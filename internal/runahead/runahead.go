// Package runahead implements runahead execution [16, 26, 25], the
// paper's main point of comparison. On an LLC *data* miss the core keeps
// fetching and pseudo-executing the instructions that follow the miss in
// the same event: independent loads and stores warm the data cache (their
// misses become prefetches), fetched lines warm the instruction cache,
// and branches can train the predictor.
//
// The paper highlights two structural limits that ESP escapes (§1):
// runahead stalls on instruction-cache misses (it cannot fetch past an
// LLC I-miss), and it only finds independent work in the shadow of the
// blocking load, a window limited by the miss-dependence chain. Both
// limits are modelled here.
package runahead

import (
	"espsim/internal/branch"
	"espsim/internal/cpu"
	"espsim/internal/mem"
	"espsim/internal/trace"
	"espsim/internal/workload"
)

// Config selects the runahead design point. Its zero value is the full
// runahead of Figure 9: fetched instruction lines warm the hierarchy,
// independent loads and stores warm the data cache (their misses become
// prefetches), and branches train the predictor, with the PIR and RAS
// checkpointed around the episode.
type Config struct {
	// DataOnly is the "Runahead-D" of Figure 11b: only the data accesses
	// warm anything; fetched lines are not installed and the predictor
	// is left untouched.
	DataOnly bool
}

// DataOnlyConfig returns the "Runahead-D" configuration of Figure 11b.
func DataOnlyConfig() Config { return Config{DataOnly: true} }

// The engine's calibration, shared by every design point.
const (
	// depFrac is the fraction of memory instructions in the runahead
	// window that are data-dependent on the blocking load (directly or
	// transitively) and therefore marked invalid and skipped.
	depFrac = 0.25
	// branchDepFrac is the fraction of branches in the window whose
	// outcome depends on the blocking load: they resolve INV, so their
	// outcome is just the predictor's own guess (no training value) and
	// a wrong guess sends the rest of the episode down the wrong path.
	branchDepFrac = 0.10
	// wrongPathStop is the probability an INV branch derails the episode.
	wrongPathStop = 0.25
	// baseCPI is the pseudo-retirement rate during runahead: faster than
	// real retirement, since invalid results never stall execution.
	baseCPI = 0.22
	// enterCost is the budget consumed checkpointing and redirecting
	// into runahead mode.
	enterCost = 4
)

// Stats counts runahead activity.
type Stats struct {
	// Episodes counts entered runahead windows; PreExecInsts the
	// pseudo-executed instructions (they cost energy, Figure 14).
	Episodes     int64
	PreExecInsts int64
	// StoppedOnIMiss counts episodes cut short by an LLC instruction
	// miss — the structural limit ESP does not have.
	StoppedOnIMiss int64
}

// Engine implements cpu.Assist.
type Engine struct {
	Cfg  Config            //esp:immutable
	Hier *mem.Hierarchy    //esp:immutable
	BP   *branch.Predictor //esp:immutable

	// Stats accumulates across the run.
	Stats Stats

	// inEvent is set between EventStart and EventEnd, the only time the
	// core can offer a stall.
	inEvent bool
	curEv   trace.Event
}

// New returns a runahead engine over the shared hierarchy and predictor.
func New(cfg Config, h *mem.Hierarchy, bp *branch.Predictor) *Engine {
	return &Engine{Cfg: cfg, Hier: h, BP: bp}
}

// Reset restores the engine's run state (statistics and the
// current-event tracking) to its just-constructed values. The shared
// hierarchy and predictor are reset by their owners.
func (e *Engine) Reset() {
	e.Stats = Stats{}
	e.inEvent, e.curEv = false, trace.Event{}
}

// EventStart implements cpu.Assist.
func (e *Engine) EventStart(ev trace.Event, _ []trace.Event) {
	e.inEvent, e.curEv = true, ev
}

// EventEnd implements cpu.Assist.
func (e *Engine) EventEnd(trace.Event) { e.inEvent = false }

// OnInst implements cpu.Assist: runahead does no per-instruction work
// (all activity happens inside stall windows), so it asks never to be
// called again this event.
func (e *Engine) OnInst(int) int { return int(^uint(0) >> 1) }

// CorrectBranch implements cpu.Assist: runahead has no deferred
// prediction mechanism; its predictor training acts through the shared
// tables directly.
func (e *Engine) CorrectBranch(int, trace.Inst) bool { return false }

// OnStall implements cpu.Assist: pseudo-execute the instructions that
// follow the blocking access, walking rest, until the budget runs out,
// the event ends, or fetch blocks on an LLC instruction miss.
func (e *Engine) OnStall(kind cpu.StallKind, idx int, rest trace.Cursor, budget int) bool {
	if kind == cpu.StallI || !e.inEvent {
		// Runahead is triggered by data misses only; an instruction miss
		// leaves the front end empty with nothing to pre-execute.
		return false
	}
	b := float64(budget - enterCost)
	if b <= 0 {
		return false
	}
	e.Stats.Episodes++
	full := !e.Cfg.DataOnly // warm the I-side and train the predictor too
	var (
		ras       branch.RASState
		savedPIR  uint64
		fetchLine uint64
		haveLine  bool
		in        trace.Inst // the current branch's record
		preInsts  int64
	)
	if full {
		ras = e.BP.SnapshotRAS()
		savedPIR = e.BP.PIR()
	}
window:
	for j := idx + 1; j < rest.Len() && b > 0; j++ {
		op, pc := rest.Op(j)
		b -= baseCPI
		preInsts++

		if l := trace.Line(pc); !haveLine || l != fetchLine {
			haveLine, fetchLine = true, l
			// Runahead fetches through the normal front end: L1-I hits
			// are free; L2 hits cost their latency; an LLC instruction
			// miss blocks fetch and ends the episode.
			if !e.Hier.L1I.Probe(pc) {
				lat, llcMiss := e.Hier.FillLatency(pc)
				if llcMiss {
					e.Stats.StoppedOnIMiss++
					break window
				}
				b -= float64(lat)
				if full {
					e.Hier.PrefetchI(pc)
				}
			}
		}

		switch kind := op.Kind(); kind {
		case trace.Branch:
			op.SetBranch(&in, pc, rest.Target(op))
			if dependent(e.curEv.Seed, idx, j, branchDepFrac) {
				// The branch's input is INV: runahead follows the
				// predictor's guess. A wrong guess derails the episode
				// onto a wrong path; either way there is nothing to
				// learn from it.
				if wrongPath(e.curEv.Seed, idx, j, wrongPathStop) {
					break window
				}
				continue
			}
			if full {
				e.BP.PredictUpdate(&in)
			}
			if in.Taken {
				haveLine = false
			}
		case trace.Load, trace.Store:
			addr := rest.Addr()
			// Instructions dependent on the blocking load are invalid in
			// runahead mode and perform no access.
			if dependent(e.curEv.Seed, idx, j, depFrac) {
				continue
			}
			// Misses under runahead do not block; they become prefetches.
			e.Hier.AccessD(addr, kind == trace.Store)
		}
	}
	e.Stats.PreExecInsts += preInsts
	if full {
		e.BP.RestoreRAS(ras)
		e.BP.SetPIR(savedPIR)
	}
	return true
}

// wrongPath deterministically decides whether an INV branch derailed the
// episode.
func wrongPath(seed uint64, missIdx, instIdx int, p float64) bool {
	h := workload.Hash2(seed^0x77A7, uint64(missIdx)<<32|uint64(uint32(instIdx)))
	return float64(h%1000) < p*1000
}

// dependent deterministically marks a fraction of the runahead window's
// memory instructions as transitively dependent on the blocking load.
func dependent(seed uint64, missIdx, instIdx int, frac float64) bool {
	h := workload.Hash2(seed, uint64(missIdx)<<32|uint64(uint32(instIdx)))
	return float64(h%1000) < frac*1000
}
