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
	"fmt"
	"math"

	"espsim/internal/branch"
	"espsim/internal/cpu"
	"espsim/internal/mem"
	"espsim/internal/trace"
	"espsim/internal/workload"
)

// Config parametrizes the runahead engine.
type Config struct {
	// WarmI installs fetched instruction lines into the hierarchy.
	WarmI bool
	// WarmD performs the data accesses of independent instructions,
	// turning their misses into prefetches. This is runahead's main
	// benefit and the only one enabled in the "Runahead-D" configuration
	// of Figure 11b.
	WarmD bool
	// TrainBP updates the branch predictor during runahead (with the PIR
	// and RAS checkpointed around the episode).
	TrainBP bool
	// DepFrac is the fraction of memory instructions in the runahead
	// window that are data-dependent on the blocking load (directly or
	// transitively) and therefore marked invalid and skipped.
	DepFrac float64
	// BranchDepFrac is the fraction of branches in the window whose
	// outcome depends on the blocking load: they resolve INV, so their
	// outcome is just the predictor's own guess (no training value) and
	// a wrong guess sends the rest of the episode down the wrong path.
	BranchDepFrac float64
	// WrongPathStop is the probability an INV branch derails the episode.
	WrongPathStop float64
	// BaseCPI is the pseudo-retirement rate during runahead: faster than
	// real retirement, since invalid results never stall execution.
	BaseCPI float64
	// EnterCost is the budget consumed checkpointing and redirecting
	// into runahead mode.
	EnterCost int
}

// Validate reports whether the configuration is coherent, naming the
// offending field. The zero Config is NOT valid: start from
// DefaultConfig or DataOnlyConfig. Every float range check is written
// so that NaN fails it.
func (c Config) Validate() error {
	switch {
	case !(c.BaseCPI > 0) || math.IsInf(c.BaseCPI, 1):
		return fmt.Errorf("runahead: BaseCPI must be positive and finite, got %g (start from DefaultConfig)", c.BaseCPI)
	case !(c.DepFrac >= 0 && c.DepFrac <= 1):
		return fmt.Errorf("runahead: DepFrac must be in [0,1], got %g", c.DepFrac)
	case !(c.BranchDepFrac >= 0 && c.BranchDepFrac <= 1):
		return fmt.Errorf("runahead: BranchDepFrac must be in [0,1], got %g", c.BranchDepFrac)
	case !(c.WrongPathStop >= 0 && c.WrongPathStop <= 1):
		return fmt.Errorf("runahead: WrongPathStop must be in [0,1], got %g", c.WrongPathStop)
	case c.EnterCost < 0:
		return fmt.Errorf("runahead: EnterCost must be non-negative, got %d", c.EnterCost)
	}
	return nil
}

// DefaultConfig returns the full runahead configuration used in Figure 9.
func DefaultConfig() Config {
	return Config{
		WarmI: true, WarmD: true, TrainBP: true,
		DepFrac: 0.25, BranchDepFrac: 0.10, WrongPathStop: 0.25,
		BaseCPI: 0.22, EnterCost: 4,
	}
}

// DataOnlyConfig returns the "Runahead-D" configuration of Figure 11b:
// warm the data cache only, leave the predictor untouched.
func DataOnlyConfig() Config {
	c := DefaultConfig()
	c.WarmI, c.TrainBP = false, false
	return c
}

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
	b := float64(budget - e.Cfg.EnterCost)
	if b <= 0 {
		return false
	}
	e.Stats.Episodes++
	var (
		ras       branch.RASState
		savedPIR  uint64
		fetchLine uint64
		haveLine  bool
		in        trace.Inst // the current branch's record
		baseCPI   = e.Cfg.BaseCPI
		preInsts  int64
	)
	if e.Cfg.TrainBP {
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
				if e.Cfg.WarmI {
					e.Hier.PrefetchI(pc)
				}
			}
		}

		switch kind := op.Kind(); kind {
		case trace.Branch:
			op.SetBranch(&in, pc, rest.Target(op))
			if dependent(e.curEv.Seed, idx, j, e.Cfg.BranchDepFrac) {
				// The branch's input is INV: runahead follows the
				// predictor's guess. A wrong guess derails the episode
				// onto a wrong path; either way there is nothing to
				// learn from it.
				if wrongPath(e.curEv.Seed, idx, j, e.Cfg.WrongPathStop) {
					break window
				}
				continue
			}
			if e.Cfg.TrainBP {
				e.BP.PredictUpdate(&in)
			}
			if in.Taken {
				haveLine = false
			}
		case trace.Load, trace.Store:
			addr := rest.Addr()
			if !e.Cfg.WarmD {
				continue
			}
			// Instructions dependent on the blocking load are invalid in
			// runahead mode and perform no access.
			if dependent(e.curEv.Seed, idx, j, e.Cfg.DepFrac) {
				continue
			}
			// Misses under runahead do not block; they become prefetches.
			e.Hier.AccessD(addr, kind == trace.Store)
		}
	}
	e.Stats.PreExecInsts += preInsts
	if e.Cfg.TrainBP {
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
