// Package cpu is the trace-driven timing model of the simulated core
// (Figure 7: 4-wide out-of-order, 96-entry ROB, Pentium M branch
// predictor, 15-cycle misprediction penalty).
//
// The model is penalty-based: every retired instruction costs the
// dependency-limited base CPI, and microarchitectural events add exposed
// stall cycles on top — front-end instruction-miss stalls, branch
// misprediction flushes, and last-level-cache data misses that reach the
// head of the ROB. Exposed LLC-miss windows are offered to an Assist
// (runahead execution or ESP), which is exactly the hook the paper's
// technique lives behind: "Instead of stalling on long latency cache
// misses, ESP jumps ahead to pre-execute future events" (§1).
package cpu

import (
	"math"

	"espsim/internal/branch"
	"espsim/internal/mem"
	"espsim/internal/prefetch"
	"espsim/internal/trace"
)

// StallKind distinguishes the two LLC-miss stall sources.
type StallKind uint8

const (
	// StallI is a front-end stall: an instruction fetch missed the LLC.
	StallI StallKind = iota
	// StallD is a back-end stall: a data access missed the LLC and
	// reached the head of the ROB.
	StallD
)

// String names the stall kind.
func (k StallKind) String() string {
	if k == StallI {
		return "I"
	}
	return "D"
}

// Assist observes the normal execution and receives exposed stall windows.
// Implementations: runahead.Engine and core.ESP (the paper's technique).
// A nil Assist on the Core means a plain baseline.
type Assist interface {
	// EventStart announces that ev is about to execute normally. pending
	// lists the future events currently visible in the software event
	// queue (at most two unless MaxPending widens the view). It is a view
	// into the workload's shared, immutable queue table: read it, never
	// write through it.
	EventStart(ev trace.Event, pending []trace.Event)
	// EventEnd announces that ev has retired its last instruction.
	EventEnd(ev trace.Event)
	// OnInst is called before instruction idx of the current event
	// retires; assists use it to issue timely prefetches. It returns the
	// lowest future index at which it must be called again — idx+1 for
	// every instruction, math.MaxInt for not again this event — letting
	// the core skip the dispatch entirely while the assist has nothing
	// scheduled. The contract resets at EventStart: the core always calls
	// OnInst for instruction 0.
	OnInst(idx int) (nextWake int)
	// CorrectBranch reports whether the assist guarantees a correct
	// prediction for the branch at idx (ESP's just-in-time B-list
	// training, §3.6). The predictor is still trained on the outcome.
	CorrectBranch(idx int, in trace.Inst) bool
	// OnStall offers the assist an exposed stall window of budget cycles
	// starting at instruction idx; rest walks the event's instructions
	// after idx. It returns true if the assist used the window (the core
	// then charges the pipeline-flush cost of returning from speculative
	// execution, §4.1).
	OnStall(kind StallKind, idx int, rest trace.Cursor, budget int) bool
}

// FetchObserver watches the demand instruction-fetch stream: event
// boundaries and the resolved level of every fetched line. The
// event-aware instruction prefetchers the paper compares against in §7
// (EFetch, PIF) hook in here.
type FetchObserver interface {
	// BeginEvent announces the handler type of the event about to run.
	BeginEvent(handler int)
	// OnFetch observes one demand fetch of addr's line, satisfied at
	// the given hierarchy level.
	OnFetch(addr uint64, level mem.Level)
}

// The timing model's parameters: the Figure 7 core with calibrated
// exposure factors. The paper evaluates this one core, so no design
// point varies them. The 4-wide issue enters only through BaseCPI.
const (
	// ROB is the reorder-buffer capacity.
	ROB = 96
	// BaseCPI is the dependency-limited cycles per instruction with a
	// perfect memory system and predictor.
	BaseCPI = 0.95
	// MispredictPenalty is the branch misprediction flush cost.
	MispredictPenalty = 15
	// MisfetchPenalty is the decoder re-steer bubble when a correctly
	// predicted direct branch missed the BTB.
	MisfetchPenalty = 5
	// L2IExposure and L2DExposure are the fractions of an L2-hit miss
	// latency that the out-of-order window fails to hide (front-end
	// misses are barely hidden; data misses mostly are).
	L2IExposure = 0.8
	L2DExposure = 0.3
	// MemIExposed and MemDExposed are the exposed cycles of an LLC miss:
	// the 101-cycle idle DRAM latency plus queueing and row-activation
	// delays under load (data misses overlap slightly with ROB drain).
	MemIExposed = 120
	MemDExposed = 115
	// MLPFactor scales the exposed cost of an LLC data miss that falls
	// within ROB instructions of the previous one (memory-level
	// parallelism: overlapped misses).
	MLPFactor = 0.15
	// ExitFlushPenalty is charged to the normal execution each time an
	// assist used a stall window: returning from speculative execution
	// flushes the pipeline like a misprediction (§4.1).
	ExitFlushPenalty = 8
)

// Stats aggregates the timing outcome of a run.
type Stats struct {
	Insts  int64
	Cycles int64

	// Cycle breakdown (sums to ~Cycles).
	BaseCycles    int64
	IMissCycles   int64
	DMissCycles   int64
	BranchCycles  int64
	AssistPenalty int64

	// Event counts.
	Branches    int64
	Mispredicts int64
	Misfetches  int64
	LLCMissI    int64
	LLCMissD    int64

	// Stall windows offered to and used by the assist.
	StallsOffered int64
	StallsUsed    int64
	StallCycles   int64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// MispredictRate returns the branch misprediction rate.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Insts += other.Insts
	s.Cycles += other.Cycles
	s.BaseCycles += other.BaseCycles
	s.IMissCycles += other.IMissCycles
	s.DMissCycles += other.DMissCycles
	s.BranchCycles += other.BranchCycles
	s.AssistPenalty += other.AssistPenalty
	s.Branches += other.Branches
	s.Mispredicts += other.Mispredicts
	s.Misfetches += other.Misfetches
	s.LLCMissI += other.LLCMissI
	s.LLCMissD += other.LLCMissD
	s.StallsOffered += other.StallsOffered
	s.StallsUsed += other.StallsUsed
	s.StallCycles += other.StallCycles
}

// Core executes event instruction streams against the memory hierarchy,
// branch predictor and optional prefetchers, accumulating Stats.
type Core struct {
	Hier *mem.Hierarchy    //esp:immutable
	BP   *branch.Predictor //esp:immutable

	// PerfectBP makes every branch predicted correctly (Figure 3).
	PerfectBP bool //esp:immutable

	// Optional baseline prefetchers (nil disables each).
	NLI    *prefetch.NextLineI //esp:immutable
	DCU    *prefetch.DCU       //esp:immutable
	Stride *prefetch.Stride    //esp:immutable

	// FetchObs, when non-nil, watches every demand instruction fetch and
	// event boundary: the hook the event-aware instruction prefetchers
	// the paper compares against in §7 (EFetch, PIF) attach to.
	FetchObs FetchObserver //esp:immutable

	// Assist receives stall windows and branch-correction queries
	// (nil for the plain baseline).
	Assist Assist //esp:immutable

	// Stats accumulates across RunEvent calls.
	Stats Stats

	fetchLine    uint64 // noFetchLine when the next instruction must re-access the I$
	lastLLCDInst int64  // global instruction index of the previous LLC data miss
	globalInst   int64
}

// noFetchLine is the fetch-line tracker's "no line" value: trace.Line
// clears an address's low six bits, so no line address equals it.
const noFetchLine = ^uint64(0)

// New returns a core over the given hierarchy and predictor.
func New(h *mem.Hierarchy, bp *branch.Predictor) *Core {
	return &Core{Hier: h, BP: bp, fetchLine: noFetchLine, lastLLCDInst: -1 << 40}
}

// Reset restores the core's run state (statistics, fetch-line tracking,
// MLP history) to its just-constructed values. The wired-up hierarchy,
// predictor, prefetchers and assist are structure, not state, and are
// left attached; callers reset those separately.
func (c *Core) Reset() {
	c.Stats = Stats{}
	c.fetchLine = noFetchLine
	c.lastLLCDInst = -1 << 40
	c.globalInst = 0
}

// BeginEvent announces the next event's handler type to the fetch
// observer (called by the looper before RunEvent).
func (c *Core) BeginEvent(handler int) {
	if c.FetchObs != nil {
		c.FetchObs.BeginEvent(handler)
	}
}

// RunEvent executes one event's instruction stream, walking its tape,
// to completion and returns the cycles it consumed. Assist hooks
// EventStart/EventEnd are the caller's (looper's) responsibility;
// RunEvent only drives the per-instruction hooks. A baseline core (nil Assist) never wakes the
// progress hook and never queries CorrectBranch, so it pays no
// per-instruction interface dispatch. The fetch-line and MLP trackers
// live in locals, written back once per event (nothing outside this loop
// can observe them mid-event — the assists never see the Core). The
// cursor's decode inlines, and a memory op's or branch's Addr is taken
// inside the kind switch, so the loop branches on the kind once.
func (c *Core) RunEvent(tape trace.Tape) int64 {
	var (
		st        Stats
		cycles    float64
		assist    = c.Assist
		perfectBP = c.PerfectBP
		hier      = c.Hier
		bp        = c.BP
		nli       = c.NLI
		fetchObs  = c.FetchObs
		dcu       = c.DCU
		stride    = c.Stride
		fetchLine = c.fetchLine
		global    = c.globalInst // of instruction 0; idx counts on from it
		lastLLCD  = c.lastLLCDInst
		wake      = 0
		cur       = tape.Cursor()
		n         = tape.Len()
		in        trace.Inst // the current branch's record
	)
	if assist == nil {
		wake = math.MaxInt
	}
	for idx := 0; idx < n; idx++ {
		op, pc := cur.Op(idx)
		if idx >= wake {
			wake = assist.OnInst(idx)
		}
		cycles += BaseCPI

		// Instruction fetch: one hierarchy access per line transition.
		if line := trace.Line(pc); line != fetchLine {
			fetchLine = line
			level, lat := hier.FetchI(pc)
			if nli != nil {
				nli.OnFetch(pc)
			}
			if fetchObs != nil {
				fetchObs.OnFetch(pc, level)
			}
			switch level {
			case mem.LevelL2:
				// The conversion rounds the product before it is added,
				// so no architecture fuses the two into an FMA.
				p := float64(L2IExposure * float64(lat))
				cycles += p
				st.IMissCycles += int64(p)
			case mem.LevelMem:
				st.LLCMissI++
				exposed := MemIExposed
				cycles += float64(exposed)
				st.IMissCycles += int64(exposed)
				rest := cur
				rest.Skip(op)
				c.offerStall(StallI, idx, rest, exposed, &cycles, &st)
			}
		}

		switch kind := op.Kind(); kind {
		case trace.Branch:
			op.SetBranch(&in, pc, cur.Target(op))
			st.Branches++
			correct := perfectBP
			misfetch := false
			if !correct && assist != nil && assist.CorrectBranch(idx, in) {
				correct = true
			}
			if !correct {
				pred := bp.PredictUpdate(&in)
				correct = !branch.Mispredicted(pred, in)
				misfetch = branch.Misfetched(pred, in)
			} else if !perfectBP {
				// Corrected branch: the prediction is suppressed but the
				// predictor still trains on the architectural outcome.
				bp.Update(in)
			}
			switch {
			case !correct:
				st.Mispredicts++
				cycles += MispredictPenalty
				st.BranchCycles += MispredictPenalty
			case misfetch:
				st.Misfetches++
				cycles += MisfetchPenalty
				st.BranchCycles += MisfetchPenalty
			}
			if in.Taken {
				fetchLine = noFetchLine // redirect: next fetch re-accesses I$
			}

		case trace.Load, trace.Store:
			addr := cur.Addr()
			level, lat := hier.AccessD(addr, kind == trace.Store)
			if dcu != nil {
				dcu.OnAccess(addr)
			}
			if stride != nil {
				stride.OnAccess(pc, addr)
			}
			switch level {
			case mem.LevelL2:
				p := float64(L2DExposure * float64(lat)) // unfused, as above
				cycles += p
				st.DMissCycles += int64(p)
			case mem.LevelMem:
				st.LLCMissD++
				exposed := MemDExposed
				if g := global + int64(idx); g-lastLLCD < ROB {
					// Overlapped with the previous miss: MLP.
					exposed = int(float64(exposed) * MLPFactor)
				}
				lastLLCD = global + int64(idx)
				cycles += float64(exposed)
				st.DMissCycles += int64(exposed)
				c.offerStall(StallD, idx, cur, exposed, &cycles, &st)
			}
		}
	}
	c.fetchLine = fetchLine
	c.globalInst, c.lastLLCDInst = global+int64(n), lastLLCD

	st.Insts = int64(n)
	st.BaseCycles = int64(float64(st.Insts) * BaseCPI)
	st.Cycles = int64(cycles)
	c.Stats.Add(st)
	return st.Cycles
}

// offerStall hands an exposed LLC-miss window, and the rest of the
// event after idx, to the assist and charges the speculation-exit flush
// if it was used.
func (c *Core) offerStall(kind StallKind, idx int, rest trace.Cursor, exposed int, cycles *float64, st *Stats) {
	st.StallsOffered++
	st.StallCycles += int64(exposed)
	if c.Assist == nil {
		return
	}
	if c.Assist.OnStall(kind, idx, rest, exposed) {
		st.StallsUsed++
		*cycles += ExitFlushPenalty
		st.AssistPenalty += ExitFlushPenalty
	}
}

// RunFiller charges n instructions of warm, stall-free execution (the
// looper thread's queue-management instructions between events, §3.6).
func (c *Core) RunFiller(n int) {
	c.Stats.Insts += int64(n)
	add := int64(float64(n) * BaseCPI)
	c.Stats.Cycles += add
	c.Stats.BaseCycles += add
	c.globalInst += int64(n)
}
