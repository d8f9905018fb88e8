package core

import (
	"fmt"

	"espsim/internal/branch"
	"espsim/internal/cpu"
	"espsim/internal/mem"
	"espsim/internal/trace"
)

// StreamSource hands out the speculative pre-execution stream of a
// queued event (the paper's forked-off renderer executions, §5) as a
// tape.
type StreamSource interface {
	SpecTape(ev trace.Event) trace.Tape
}

// Stats counts ESP activity.
type Stats struct {
	// PreExecInsts is the extra instructions executed in ESP modes — the
	// paper reports +21.2% on average (Figure 14).
	PreExecInsts int64
	// CacheletFills counts cachelet misses filled from L2/memory;
	// LLCFills those that had to go to memory (mode-escalation points).
	CacheletFills int64
	LLCFills      int64
	// ModeEntries[i] counts entries into ESP-(i+1).
	ModeEntries [8]int64
	// PrefetchI/PrefetchD count list prefetches issued in normal mode;
	// SkippedLate those suppressed for arriving hopelessly late.
	PrefetchI   int64
	PrefetchD   int64
	SkippedLate int64
	// Corrections counts branches fixed by just-in-time B-list training.
	Corrections int64
	// ListFull counts records dropped because a list filled up; RecI,
	// RecD and RecB count records accepted into each list kind.
	ListFull int64
	RecI     int64
	RecD     int64
	RecB     int64
	// DirtyHazards counts dirty D-cachelet evictions; Poisonings the
	// pre-executions degraded by one (§4.4).
	DirtyHazards int64
	Poisonings   int64
	// EventsPreExecuted counts events that got any pre-execution;
	// EventsConsumed those whose records were used in normal mode;
	// SlotMismatches queue-prediction misses that discarded records.
	EventsPreExecuted int64
	EventsConsumed    int64
	SlotMismatches    int64
}

// slot is one hardware event-queue entry plus the per-mode execution
// context of the event it tracks: its speculative stream position (the
// re-entrancy state of §3.4), PIR, cachelets and prediction lists. An
// engine owns its slots for its lifetime, and each slot owns its
// structures: a new occupant resets or overwrites them before reading.
type slot struct {
	ev    trace.Event
	valid bool

	// started is the EU ("execution underway") bit of §4.1; cur walks
	// the speculative stream, and pos is the index of its next
	// instruction.
	started bool
	cur     trace.Cursor
	pos     int

	fetchLine uint64
	haveLine  bool

	pir uint64
	ras branch.RASState
	// replica is the slot's predictor copy in the BPReplicate design,
	// built on its first pre-execution and overwritten from the live
	// predictor at each occupant's first step.
	replica *branch.Predictor

	// icl and dcl are the occupant's cachelets: the pair in icls/dcls for
	// the mode it is in now. A slot builds one pair per mode it occupies
	// (index 0 is ESP-1, 1 is ESP-2 or deeper; the Ideal design uses
	// only 0).
	icl, dcl   *mem.Cache
	icls, dcls [2]*mem.Cache

	ilist accessList
	dlist accessList
	blist branchList

	hazards  int
	poisoned bool

	// delay is the remaining live-in transfer time before an idle-core
	// helper may start pre-executing this event (§7 alternative).
	delay float64

	preExecuted bool

	// ws holds per-mode instruction reuse profilers for the Figure 13
	// study, indexed by depth (nil entries for unvisited modes). The
	// slice's storage survives scrubbing, so the study never reallocates
	// it.
	ws []*mem.WorkingSet
}

// scrub empties the slot for a new occupant, or none: every field
// returns to a fresh slot's zero except the structures the slot owns.
// The list record arrays and study-profile slice keep their storage (a
// truncated-and-appended slice holds exactly what a fresh one would),
// and the cachelets and replica wait for the next occupant to reset or
// overwrite them.
func (s *slot) scrub() {
	il, dl, bl := s.ilist, s.dlist, s.blist
	il.reset(0)
	dl.reset(0)
	bl.reset(0, 0)
	*s = slot{
		ilist: il, dlist: dl, blist: bl, ws: clearProfiles(s.ws),
		icls: s.icls, dcls: s.dcls, replica: s.replica,
	}
}

// listsFull reports whether none of the three prediction lists can hold
// even a minimal further record: pre-executing this event gathers
// nothing. Space can reappear as the normal event drains the shared
// circular queue, so this is re-evaluated per stall.
func (s *slot) listsFull() bool {
	return s.ilist.full() && s.dlist.full() && s.blist.fullDir()
}

// ESP is the Event Sneak Peek engine; it implements cpu.Assist.
type ESP struct {
	Opt  Options           //esp:immutable
	Hier *mem.Hierarchy    //esp:immutable
	BP   *branch.Predictor //esp:immutable
	Src  StreamSource

	// Stats accumulates across the run.
	Stats Stats

	// slots are the JumpDepth hardware event-queue entries, nearest
	// first, and spare is the entry the running event consumes from: it
	// is cons while that event has records, idle otherwise. These
	// JumpDepth+1 slots are the engine's for its lifetime; EventStart
	// rotates the departing entry to spare and the spare to the tail.
	slots []*slot
	spare *slot

	// Consumption state for the current normal event.
	cons                *slot
	consI, consD, consB int
	curIdx              int

	// consWake is the next instruction index at which advanceConsumption
	// has any record to process: the per-instruction hook compares one
	// integer and returns until then, instead of rescanning three list
	// heads every retired instruction.
	consWake int

	// idleBudget accumulates helper-core cycles in the IdleCore design.
	idleBudget float64

	// Study collects Figure 13 working-set samples when enabled.
	Study *WorkingSetStudy

	// runWindow/promote scratch, reused across calls.
	readyAt     []float64
	done        []bool
	lineScratch []uint64
}

// instNever is the OnInst wake value meaning "no per-instruction work
// left this event".
const instNever = int(^uint(0) >> 1)

// New returns an ESP engine sharing the core's hierarchy and predictor.
func New(opt Options, h *mem.Hierarchy, bp *branch.Predictor, src StreamSource) (*ESP, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	e := &ESP{Opt: opt, Hier: h, BP: bp, Src: src}
	e.slots = make([]*slot, opt.JumpDepth)
	for i := range e.slots {
		e.slots[i] = &slot{}
	}
	e.spare = &slot{}
	e.readyAt = make([]float64, opt.JumpDepth)
	e.done = make([]bool, opt.JumpDepth)
	if opt.MeasureWorkingSets {
		e.Study = NewWorkingSetStudy(opt.JumpDepth)
	}
	return e, nil
}

// Reset restores the engine to its just-constructed state without
// reallocating its structures: every slot, the consumed one included, is
// scrubbed and kept, statistics are zeroed, and the slots' cachelets,
// lists and replica predictors keep their storage. Src points at the
// workload being replayed and is cleared; the caller installs the next
// workload's stream source before running again.
func (e *ESP) Reset() {
	for _, s := range e.slots {
		s.scrub()
	}
	e.spare.scrub()
	e.cons = nil
	e.Stats = Stats{}
	e.consI, e.consD, e.consB = 0, 0, 0
	e.curIdx = 0
	e.consWake = 0
	e.idleBudget = 0
	e.Src = nil
	if e.Opt.MeasureWorkingSets {
		e.Study = NewWorkingSetStudy(e.Opt.JumpDepth)
	}
	// Scratch is rebuilt before every use, but scrub it anyway: a
	// recycled engine must be field-for-field identical to a fresh one.
	clear(e.readyAt)
	clear(e.done)
	e.lineScratch = e.lineScratch[:0]
}

// clearProfiles empties a study-profile slice while keeping its storage.
func clearProfiles(ws []*mem.WorkingSet) []*mem.WorkingSet {
	for i := range ws {
		ws[i] = nil
	}
	return ws[:0]
}

// occupy points a slot at a new future event at the given depth,
// discarding any state from a previous occupant: its cachelets for the
// depth's mode come back cold and its lists take that mode's budgets.
func (e *ESP) occupy(s *slot, depth int, ev trace.Event) {
	s.scrub()
	s.ev, s.valid = ev, true
	s.pir = e.BP.PIR()
	if e.Opt.IdleCore {
		s.delay = float64(e.Opt.IdleTransfer)
	}
	if e.Opt.Ideal {
		e.cachelets(s, 0)
		s.ilist.unbounded()
		s.dlist.unbounded()
		s.blist.unbounded()
		return
	}
	m := e.Opt.Sizes.mode(depth)
	sz := e.Opt.Sizes
	e.cachelets(s, m)
	s.ilist.reset(sz.IListBytes[m])
	s.dlist.reset(sz.DListBytes[m])
	s.blist.reset(sz.BListDirBytes[m], sz.BListTgtBytes[m])
}

// idealCacheletBytes sizes the Ideal design's cachelets, 16-way: large
// enough that no pre-execution evicts.
const idealCacheletBytes = 4 << 20

// cachelets points s at its I/D cachelet pair for mode m, cold: the
// slot builds the pair the first time it occupies m and resets it in
// place after that.
func (e *ESP) cachelets(s *slot, m int) {
	ib, iw, db, dw := idealCacheletBytes, 16, idealCacheletBytes, 16
	if !e.Opt.Ideal {
		sz := e.Opt.Sizes
		ib, iw, db, dw = sz.ICacheletBytes[m], sz.ICacheletWays[m], sz.DCacheletBytes[m], sz.DCacheletWays[m]
	}
	s.icl = coldCachelet(&s.icls[m], "I-cachelet", ib, iw)
	s.dcl = coldCachelet(&s.dcls[m], "D-cachelet", db, dw)
}

// coldCachelet resets *c, or builds it on first use. Geometry was checked
// by Options.Validate in New (and the Ideal-mode sizes are compiled-in
// constants), so a build failure here is an internal invariant violation
// — the panic is unreachable from any input that passed validation.
func coldCachelet(c **mem.Cache, name string, bytes, ways int) *mem.Cache {
	if *c != nil {
		(*c).Reset()
		return *c
	}
	nc, err := mem.NewCache(name, bytes, ways)
	if err != nil {
		panic(fmt.Sprintf("core: internal invariant: cachelet geometry escaped validation: %v", err))
	}
	*c = nc
	return nc
}

// promote upgrades a slot that moved one step closer to execution: its
// cachelet contents migrate into the larger ESP-1 cachelets (the event
// keeps its reserved way and gains ten more, §4.2) and its lists move to
// the larger circular queues.
func (e *ESP) promote(s *slot, newDepth int) {
	if !s.valid || e.Opt.Ideal {
		return
	}
	m := e.Opt.Sizes.mode(newDepth)
	om := e.Opt.Sizes.mode(newDepth + 1)
	if m == om {
		return
	}
	oi, od := s.icl, s.dcl
	e.cachelets(s, m)
	e.lineScratch = oi.AppendLines(e.lineScratch[:0])
	for _, l := range e.lineScratch {
		s.icl.Install(l, false)
	}
	e.lineScratch = od.AppendLines(e.lineScratch[:0])
	for _, l := range e.lineScratch {
		s.dcl.Install(l, false)
	}
	sz := e.Opt.Sizes
	s.ilist.setCapacity(sz.IListBytes[m])
	s.dlist.setCapacity(sz.DListBytes[m])
	s.blist.setCapacity(sz.BListDirBytes[m], sz.BListTgtBytes[m])
}

// EventStart implements cpu.Assist: rotate the hardware event queue,
// activate the departing slot's records for consumption, and resync the
// queue with the software queue's pending events.
func (e *ESP) EventStart(ev trace.Event, pending []trace.Event) {
	// The slot that tracked this event supplies the prediction records.
	e.cons = nil
	if s := e.slots[0]; s.valid && s.ev.ID == ev.ID {
		e.finishStudy(s)
		if s.preExecuted {
			e.cons = s
			e.Stats.EventsConsumed++
			if e.Opt.BPMode == BPReplicate {
				e.installReplica(s.replica)
			}
		}
	} else if e.slots[0].valid {
		// The software runtime predicted the wrong next event (§4.5):
		// the "incorrect prediction" bit discards the gathered records.
		e.Stats.SlotMismatches++
		e.finishStudy(e.slots[0])
	}
	e.consI, e.consD, e.consB = 0, 0, 0
	e.curIdx = -e.Opt.PreEventWindow
	if e.Opt.IdleCore {
		// The gathered lists are shipped back from the helper core: the
		// pre-event head start is spent on the transfer.
		e.curIdx = 0
	}

	// Rotate: every remaining slot moves one position forward, the spare
	// becomes the empty tail, and the departing slot becomes the spare,
	// which is e.cons until this event ends if it was consumed. A spare
	// still consumed, because its event never ended, is taken back too.
	departing := e.slots[0]
	copy(e.slots, e.slots[1:])
	e.slots[len(e.slots)-1] = e.spare
	e.spare.scrub()
	e.spare = departing

	// Resync slots with the pending events now visible in the queue.
	for i := range e.slots {
		s := e.slots[i]
		if i < len(pending) {
			if s.valid && s.ev.ID == pending[i].ID {
				e.promote(s, i)
				continue
			}
			if s.valid {
				e.Stats.SlotMismatches++
				e.finishStudy(s)
			}
			e.occupy(s, i, pending[i])
		} else if s.valid {
			// No longer visible in the software queue: drop it.
			e.finishStudy(s)
			s.scrub()
		}
	}

	// The new ESP-1 entry records into the same physical circular queues
	// the departing event is still consuming from (§4.2): its capacity
	// grows as consumption drains them.
	e.updateReservations()

	// Pre-event window: the looper's queue-management instructions give
	// list prefetches a head start (§3.6).
	e.advanceConsumption()
	e.refreshWake()
}

// refreshWake recomputes consWake: the smallest instruction index at
// which advanceConsumption has any record within reach. I/D records are
// reached when curIdx+PrefetchLead meets the head record's Count; B
// records are dropped when curIdx passes Count. Any earlier call is a
// no-op, so skipping until consWake is bit-identical to calling every
// instruction. CorrectBranch can advance consB between wake-ups, which
// only ever moves the true wake later — a stale (smaller) consWake costs
// a harmless extra scan, never a missed one.
func (e *ESP) refreshWake() {
	wake := instNever
	c := e.cons
	if c == nil {
		e.consWake = wake
		return
	}
	if e.Opt.UseI && e.consI < len(c.ilist.recs) {
		if w := int(c.ilist.recs[e.consI].Count) - e.Opt.PrefetchLead; w < wake {
			wake = w
		}
	}
	if e.Opt.UseD && e.consD < len(c.dlist.recs) {
		if w := int(c.dlist.recs[e.consD].Count) - e.Opt.PrefetchLead; w < wake {
			wake = w
		}
	}
	if e.Opt.UseB && e.consB < len(c.blist.recs) {
		if w := int(c.blist.recs[e.consB].Count) + 1; w < wake {
			wake = w
		}
	}
	e.consWake = wake
}

// updateReservations charges the unconsumed tail of the current event's
// records against the ESP-1 slot's list capacity.
func (e *ESP) updateReservations() {
	s := e.slots[0]
	if e.cons == nil {
		s.ilist.setReserved(0)
		s.dlist.setReserved(0)
		s.blist.setReserved(0)
		return
	}
	s.ilist.setReserved(e.cons.ilist.remainingBits(e.consI))
	s.dlist.setReserved(e.cons.dlist.remainingBits(e.consD))
	s.blist.setReserved(e.cons.blist.remainingBits(e.consB))
}

// EventEnd implements cpu.Assist. The consumed slot was rotated out of
// the queue at EventStart and stays the spare, read by nothing past this
// point.
func (e *ESP) EventEnd(trace.Event) {
	e.cons = nil
	e.updateReservations()
}

// OnInst implements cpu.Assist: track progress and issue timely list
// prefetches PrefetchLead instructions ahead of their recorded use. The
// consWake threshold is also the return value: between record wake-ups
// the three list heads cannot match, so the core skips the call
// entirely (curIdx is only ever read by advanceConsumption, which only
// runs on a wake-up, so it never goes stale observably). CorrectBranch
// can consume a B record between wake-ups, making consWake point at an
// already-drained record; the wake then fires once as a no-op scan and
// reschedules — never skips work.
func (e *ESP) OnInst(idx int) int {
	e.curIdx = idx
	if e.cons != nil && idx >= e.consWake {
		e.advanceConsumption()
		e.refreshWake()
	}
	if e.Opt.IdleCore {
		// The helper core runs continuously alongside the main core: its
		// cycle budget accrues per retired instruction.
		e.idleBudget += idleCycleRate
		if e.idleBudget >= idleQuantum {
			b := e.idleBudget
			e.idleBudget = 0
			e.runWindow(b)
		}
		return idx + 1
	}
	if e.cons == nil {
		return instNever
	}
	return e.consWake
}

// idleCycleRate approximates the helper-core cycles that pass per
// main-core instruction (the main core's CPI); idleQuantum batches the
// helper's simulation for efficiency.
const (
	idleCycleRate = 1.8
	idleQuantum   = 256
)

func (e *ESP) advanceConsumption() {
	c := e.cons
	if c == nil {
		return
	}
	horizon := int32(e.curIdx + e.Opt.PrefetchLead)
	minLead := int32(e.Opt.MinLead)
	if e.Opt.Ideal {
		minLead = 0
	}
	if e.Opt.UseI {
		for e.consI < len(c.ilist.recs) && c.ilist.recs[e.consI].Count <= horizon {
			r := c.ilist.recs[e.consI]
			e.consI++
			if r.Count-int32(e.curIdx) < minLead {
				e.Stats.SkippedLate++
				continue
			}
			e.Hier.PrefetchI(r.Line)
			e.Stats.PrefetchI++
		}
	}
	if e.Opt.UseD {
		for e.consD < len(c.dlist.recs) && c.dlist.recs[e.consD].Count <= horizon {
			r := c.dlist.recs[e.consD]
			e.consD++
			if r.Count-int32(e.curIdx) < minLead {
				e.Stats.SkippedLate++
				continue
			}
			e.Hier.PrefetchD(r.Line)
			e.Stats.PrefetchD++
		}
	}
	if e.Opt.UseB {
		// Drop stale records (divergence leaves unmatched entries behind).
		for e.consB < len(c.blist.recs) && c.blist.recs[e.consB].Count < int32(e.curIdx) {
			e.consB++
		}
	}
}

// CorrectBranch implements cpu.Assist: just-in-time training from the
// B-lists guarantees a correct prediction for branches the pre-execution
// saw mispredicted (§3.6, §4.3).
func (e *ESP) CorrectBranch(idx int, in trace.Inst) bool {
	c := e.cons
	if c == nil || !e.Opt.UseB {
		return false
	}
	for e.consB < len(c.blist.recs) && c.blist.recs[e.consB].Count < int32(idx) {
		e.consB++
	}
	if e.consB < len(c.blist.recs) {
		r := c.blist.recs[e.consB]
		if r.Count == int32(idx) && r.PC == in.PC {
			e.consB++
			e.Stats.Corrections++
			return true
		}
	}
	return false
}

// misfetchCost is the decoder re-steer bubble paid inside pre-execution
// when a direct branch misses the BTB.
const misfetchCost = 5

// preExecResult describes why a pre-execution step stopped.
type preExecResult uint8

const (
	preExecBudget preExecResult = iota // stall window exhausted
	preExecEnd                         // event's stream ended
	preExecLLC                         // cachelet fill missed the LLC
)

// OnStall implements cpu.Assist: jump ahead into pending events for the
// duration of the stall window (§3.1, §3.2). Within the window the
// controller switches between the pending-event contexts whenever the
// active one blocks on an LLC fill: the fill proceeds in the background
// while another queued event pre-executes, and the blocked context
// resumes as soon as its line returns — the re-entrant execution contexts
// of §3.4 make the switch a PIR/RRAT swap.
func (e *ESP) OnStall(_ cpu.StallKind, _ int, _ trace.Cursor, budget int) bool {
	if e.Opt.IdleCore {
		// The idle-core design leaves the main core's stalls idle: all
		// pre-execution happens on the helper (driven from OnInst).
		return false
	}
	if budget < e.Opt.MinWindow {
		return false
	}
	return e.runWindow(float64(budget))
}

// runWindow pre-executes pending events for a window of cycles — a stall
// window in the ESP design, a helper-core quantum in the idle-core one.
func (e *ESP) runWindow(window float64) bool {
	// Reservations are only ever read inside this window (list full/add
	// checks), so recomputing them here once is exactly equivalent to the
	// old per-retired-instruction update.
	e.updateReservations()
	before := e.Stats.PreExecInsts
	t := 0.0
	n := len(e.slots)
	readyAt := e.readyAt[:n]
	done := e.done[:n]
	for i := 0; i < n; i++ {
		readyAt[i], done[i] = 0, false
	}
	for t < window {
		// Pick the closest-to-execution runnable context.
		run := -1
		next := window
		for i := 0; i < n; i++ {
			s := e.slots[i]
			if done[i] || !s.valid || (s.listsFull() && !e.Opt.Naive) {
				continue
			}
			if readyAt[i] <= t {
				run = i
				break
			}
			if readyAt[i] < next {
				next = readyAt[i]
			}
		}
		if run < 0 {
			if next >= window {
				break // nothing can run again within this window
			}
			t = next // wait for the earliest background fill
			continue
		}
		s := e.slots[run]
		if s.delay > 0 {
			// Live-in transfer to the helper core still in flight.
			use := s.delay
			if use > window-t {
				use = window - t
			}
			s.delay -= use
			t += use
			continue
		}
		b := window - t - float64(e.Opt.SwitchPenalty)
		if b <= 0 {
			break
		}
		e.Stats.ModeEntries[run]++
		res, llcLat := e.runSlot(s, run, &b)
		t = window - b // runSlot consumed (budget - b) cycles
		switch res {
		case preExecBudget:
			t = window
		case preExecEnd:
			done[run] = true // fully pre-executed; jump one deeper
		case preExecLLC:
			readyAt[run] = t + float64(llcLat)
		}
	}
	used := e.Stats.PreExecInsts > before
	if used && e.Opt.BPMode == BPShared {
		// The no-extra-hardware design point shares one RAS; returning
		// to the normal event must clear it, since it may hold
		// pre-executed frames (§4.1).
		e.BP.ClearRAS()
	}
	return used
}

// runSlot pre-executes slot s (in ESP mode depth+1) until the budget is
// exhausted, the event ends, or a fill misses the LLC.
func (e *ESP) runSlot(s *slot, depth int, b *float64) (preExecResult, int) {
	if !s.started {
		s.cur = e.Src.SpecTape(s.ev).Cursor()
		s.started = true
		if !s.preExecuted {
			s.preExecuted = true
			e.Stats.EventsPreExecuted++
		}
		if e.Opt.BPMode == BPReplicate {
			if s.replica == nil {
				s.replica = new(branch.Predictor)
			}
			// Full overwrite: no earlier occupant's training leaks through.
			*s.replica = *e.BP
		}
	}
	bp := e.BP
	switch e.Opt.BPMode {
	case BPSeparatePIR:
		// The ESP design replicates the branch "context" per mode: the
		// PIR (§4.3) and the small RAS; the prediction tables are shared,
		// with the loop predictor's in-flight iteration counters frozen
		// so the normal event's loops stay in sync.
		savedPIR, savedRAS := bp.PIR(), bp.SnapshotRAS()
		bp.SetPIR(s.pir)
		bp.RestoreRAS(s.ras)
		bp.LoopReadOnly = true
		defer func() {
			s.pir, s.ras = bp.PIR(), bp.SnapshotRAS()
			bp.SetPIR(savedPIR)
			bp.RestoreRAS(savedRAS)
			bp.LoopReadOnly = false
		}()
	case BPReplicate:
		bp = s.replica
	}
	ws := e.studyProfile(s, depth)

	// The loop runs on locals (budget, cursor, position, instruction
	// counter) and writes them back at each exit, keeping the
	// per-instruction body free of memory round-trips through s, e.Stats,
	// and the budget pointer. An exit on an LLC fill parks the slot at the
	// instruction that missed (its cursor at), which re-executes when the
	// slot resumes.
	var (
		bud      = *b
		baseCPI  = e.Opt.BaseCPI
		cur      = s.cur
		pos      = s.pos
		n        = cur.Len()
		in       trace.Inst // the current branch's record
		preInsts int64
	)
	for bud > 0 {
		if pos >= n {
			s.cur, s.pos, *b = cur, pos, bud
			e.Stats.PreExecInsts += preInsts
			return preExecEnd, 0
		}
		at := cur
		op, pc := cur.Op(pos)
		bud -= baseCPI

		// Instruction fetch through the I-cachelet.
		if l := trace.Line(pc); !s.haveLine || l != s.fetchLine {
			s.haveLine, s.fetchLine = true, l
			if ws != nil {
				ws.Touch(pc)
			}
			if res, lat := e.fetchPre(s, pc, int32(pos), &bud); res == preExecLLC {
				s.cur, s.pos, *b = at, pos, bud
				e.Stats.PreExecInsts += preInsts
				return preExecLLC, lat
			}
		}

		switch kind := op.Kind(); kind {
		case trace.Branch:
			op.SetBranch(&in, pc, cur.Target(op))
			pred := bp.PredictUpdate(&in)
			miss := branch.Mispredicted(pred, in)
			if branch.Misfetched(pred, in) {
				bud -= misfetchCost
			}
			if miss {
				bud -= float64(e.Opt.MispredictPenalty)
				if !e.Opt.Naive && !s.poisoned {
					if s.blist.add(BranchRec{
						PC: in.PC, Target: in.Addr, Count: int32(pos),
						Taken: in.Taken, Indirect: in.Indirect,
					}) {
						e.Stats.RecB++
					} else {
						e.Stats.ListFull++
					}
				}
			}
			if in.Taken {
				s.haveLine = false
			}

		case trace.Load, trace.Store:
			if res, lat := e.accessPre(s, cur.Addr(), kind == trace.Store, int32(pos), &bud); res == preExecLLC {
				s.cur, s.pos, *b = at, pos, bud
				e.Stats.PreExecInsts += preInsts
				return preExecLLC, lat
			}
		}
		pos++
		preInsts++
	}
	s.cur, s.pos, *b = cur, pos, bud
	e.Stats.PreExecInsts += preInsts
	return preExecBudget, 0
}

// fetchPre services a pre-execution instruction fetch: through the
// I-cachelet normally, or straight into the shared hierarchy in the naive
// design. On an LLC miss the line is installed before returning, so the
// re-entrant resume proceeds past it.
func (e *ESP) fetchPre(s *slot, pc uint64, pos int32, b *float64) (preExecResult, int) {
	if e.Opt.Naive {
		level, lat := e.Hier.FetchI(pc)
		if level == mem.LevelMem {
			return preExecLLC, lat
		}
		*b -= float64(lat)
		return preExecBudget, 0
	}
	if s.icl.Access(pc, false) {
		return preExecBudget, 0
	}
	lat, llc := e.Hier.FillLatency(pc)
	e.Stats.CacheletFills++
	e.record(s, &s.ilist, trace.Line(pc), pos)
	if llc {
		e.Stats.LLCFills++
		return preExecLLC, lat
	}
	*b -= float64(lat)
	return preExecBudget, 0
}

// accessPre services a pre-execution data access through the D-cachelet
// (stores stay local to it: no write-back, no coherence, §3.4, §4.4).
func (e *ESP) accessPre(s *slot, addr uint64, write bool, pos int32, b *float64) (preExecResult, int) {
	if e.Opt.Naive {
		level, lat := e.Hier.AccessD(addr, write)
		if level == mem.LevelMem {
			return preExecLLC, lat
		}
		if level == mem.LevelL2 {
			*b -= float64(lat)
		}
		return preExecBudget, 0
	}
	dirtyBefore := s.dcl.Stats.DirtyEvictions
	if s.dcl.Access(addr, write) {
		return preExecBudget, 0
	}
	if s.dcl.Stats.DirtyEvictions > dirtyBefore {
		e.dirtyHazard(s)
	}
	lat, llc := e.Hier.FillLatency(addr)
	e.Stats.CacheletFills++
	e.record(s, &s.dlist, trace.Line(addr), pos)
	if llc {
		e.Stats.LLCFills++
		return preExecLLC, lat
	}
	*b -= float64(lat)
	return preExecBudget, 0
}

// record appends an access to a prediction list unless the design has no
// lists (naive) or the pre-execution has been poisoned by a lost dirty
// line — poisoned records target perturbed addresses, modelling the
// wrong-path hints of §4.4.
func (e *ESP) record(s *slot, l *accessList, line uint64, count int32) {
	if e.Opt.Naive {
		return
	}
	if s.poisoned {
		line ^= 1 << 18 // wrong-path hint: prefetches will be useless
	}
	if l.add(line, count) {
		if l == &s.ilist {
			e.Stats.RecI++
		} else {
			e.Stats.RecD++
		}
	} else {
		e.Stats.ListFull++
	}
}

// dirtyHazard accounts a dirty D-cachelet eviction: the lost store values
// may steer the rest of this pre-execution down a wrong path (§4.4).
func (e *ESP) dirtyHazard(s *slot) {
	e.Stats.DirtyHazards++
	s.hazards++
	if p := e.Opt.DirtyHazardPeriod; p > 0 && s.hazards%p == 0 && !s.poisoned {
		s.poisoned = true
		e.Stats.Poisonings++
	}
}

// installReplica copies a warmed replicated predictor into the live one,
// preserving the live PIR and RAS (Figure 12's "separate context and
// tables" design point).
func (e *ESP) installReplica(r *branch.Predictor) {
	pir := e.BP.PIR()
	ras := e.BP.SnapshotRAS()
	stats := e.BP.Stats
	*e.BP = *r
	e.BP.SetPIR(pir)
	e.BP.RestoreRAS(ras)
	e.BP.Stats = stats
}

func (e *ESP) studyProfile(s *slot, depth int) *mem.WorkingSet {
	if e.Study == nil {
		return nil
	}
	for len(s.ws) <= depth {
		s.ws = append(s.ws, nil)
	}
	p := s.ws[depth]
	if p == nil {
		p = mem.NewWorkingSet()
		s.ws[depth] = p
	}
	return p
}

// finishStudy folds a slot's per-mode reuse profiles into the study.
// Per-depth samples land in independent per-depth slices, so the
// slice-ordered walk produces the same study as the old map iteration.
func (e *ESP) finishStudy(s *slot) {
	if e.Study == nil || len(s.ws) == 0 {
		return
	}
	for depth, p := range s.ws {
		if p != nil {
			e.Study.AddSample(depth, p)
		}
	}
	s.ws = clearProfiles(s.ws)
}
