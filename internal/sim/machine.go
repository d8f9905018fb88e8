package sim

import (
	"fmt"

	"espsim/internal/branch"
	"espsim/internal/core"
	"espsim/internal/cpu"
	"espsim/internal/energy"
	"espsim/internal/eventq"
	"espsim/internal/mem"
	"espsim/internal/prefetch"
	"espsim/internal/runahead"
)

// Machine is the machine plane: one simulated core assembled once from a
// Config — hierarchy, branch predictor, prefetchers, and the configured
// stall-window assist — that can replay any number of workloads. Run
// resets every component to cold state first, without reallocating their
// tables, so each replay is bit-identical to a freshly built machine and
// the replay loop is allocation-flat.
//
// A Machine is single-threaded; build one per worker and share the
// (immutable) workloads instead.
type Machine struct {
	cfg  Config //esp:immutable
	hier *mem.Hierarchy
	bp   *branch.Predictor
	c    *cpu.Core

	nli    *prefetch.NextLineI
	dcu    *prefetch.DCU
	stride *prefetch.Stride
	efetch *prefetch.EFetch
	pif    *prefetch.PIF

	ra  *runahead.Engine
	esp *core.ESP
}

// NewMachine validates cfg and assembles the machine.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ccfg := cfg.effectiveCPU()

	m := &Machine{cfg: cfg}
	m.hier = mem.DefaultHierarchy()
	m.hier.PerfectL1I = cfg.PerfectL1I
	m.hier.PerfectL1D = cfg.PerfectL1D
	m.bp = branch.New()
	m.c = cpu.New(ccfg, m.hier, m.bp)

	if cfg.NLI {
		m.nli = prefetch.NewNextLineI(m.hier)
		m.c.NLI = m.nli
	}
	if cfg.NLD {
		m.dcu = prefetch.NewDCU(m.hier)
		m.c.DCU = m.dcu
	}
	if cfg.StridePF {
		m.stride = prefetch.NewStride(m.hier)
		m.c.Stride = m.stride
	}
	switch {
	case cfg.EFetch:
		m.efetch = prefetch.NewEFetch(m.hier)
		m.c.FetchObs = m.efetch
	case cfg.PIF:
		m.pif = prefetch.NewPIF(m.hier)
		m.c.FetchObs = m.pif
	}

	switch cfg.Assist {
	case AssistRunahead:
		m.ra = runahead.New(cfg.effectiveRA(), m.hier, m.bp)
		m.c.Assist = m.ra
	case AssistESP:
		// The stream source is bound per replay in Run; the engine is
		// built once.
		espEng, err := core.New(cfg.effectiveESP(), m.hier, m.bp, nil)
		if err != nil {
			return nil, fmt.Errorf("esp: %w", err)
		}
		m.esp = espEng
		m.c.Assist = espEng
	}
	return m, nil
}

// Reset restores every component to its just-constructed cold state
// without reallocating tables: caches are invalidated in place, predictor
// tables are zeroed, assist structures return to their pools. A reset
// machine replays a workload bit-identically to a freshly built one.
func (m *Machine) Reset() {
	m.hier.Reset()
	m.bp.Reset()
	m.c.Reset()
	if m.nli != nil {
		m.nli.Reset()
	}
	if m.dcu != nil {
		m.dcu.Reset()
	}
	if m.stride != nil {
		m.stride.Reset()
	}
	if m.efetch != nil {
		m.efetch.Reset()
	}
	if m.pif != nil {
		m.pif.Reset()
	}
	if m.ra != nil {
		m.ra.Reset()
	}
	if m.esp != nil {
		m.esp.Reset()
	}
}

// Run resets the machine and replays w through it, returning the
// simulation result. The workload is only read. The machine's MaxEvents
// bounds the replay (a workload built under a larger bound, or none,
// replays only its first MaxEvents events), and MaxPending shapes the
// queue view here.
func (m *Machine) Run(w *Workload) Result {
	m.replay(w, m.cfg.MaxEvents, m.cfg.MaxPending, nil)
	return m.result(w, m.cfg.Name)
}

// Replay resets the machine and replays w through it, bounded by the
// machine's MaxEvents, leaving the results in the machine's statistics
// (read them via Run, which wraps Replay and assembles a Result). This
// is the allocation-zero hot path: a warm machine replaying a
// materialized workload performs no heap allocations, because the replay
// reads the workload's tapes and queue views in place and keeps no
// scratch of its own.
func (m *Machine) Replay(w *Workload) { m.replay(w, m.cfg.MaxEvents, m.cfg.MaxPending, nil) }

// replay is the looper thread (paper §2.2, Figure 2): it dequeues the
// workload's events in order, at most maxEvents when positive, and runs
// each through the core. The assist sees each event's queue view as
// w.Source(maxPending).Pending reports it, and ESP reads its speculative
// streams from w itself. Before each dequeue it polls done (a nil done
// never closes): once done is closed no further event runs, and replay
// returns true.
func (m *Machine) replay(w *Workload, maxEvents, maxPending int, done <-chan struct{}) (stopped bool) {
	m.Reset()
	if m.esp != nil {
		m.esp.Src = w
	}
	c, assist := m.c, m.c.Assist
events:
	for i, ev := range w.events[:execCount(w.nExec, maxEvents)] {
		select {
		case <-done:
			stopped = true
			break events
		default:
		}
		if assist != nil {
			assist.EventStart(ev, w.pending(i, maxPending))
		}
		c.BeginEvent(ev.Handler)
		// Queue management runs between dequeue and handler entry; ESP
		// overlaps its pre-event prefetches with it (§3.6).
		c.RunFiller(eventq.LooperOverhead)
		c.RunEvent(w.normal[i])
		if assist != nil {
			assist.EventEnd(ev)
		}
		// The handler returned to the looper's dispatch loop: the call
		// stack (and with it the RAS) is realigned to the loop's depth.
		c.BP.ClearRAS()
	}
	// Unbind the workload so a pooled machine never pins its arena.
	if m.esp != nil {
		m.esp.Src = nil
	}
	return stopped
}

// result assembles the Result, labelled config, and energy accounting
// from the machine's post-run statistics, plus the workload's
// build-time schedule summary.
func (m *Machine) result(w *Workload, config string) Result {
	c, hier := m.c, m.hier
	res := Result{
		App:    w.App,
		Config: config,
		Insts:  c.Stats.Insts,
		Cycles: c.Stats.Cycles,
		IPC:    c.Stats.IPC(),
		CPU:    c.Stats,
		L1I:    hier.L1I.Stats,
		L1D:    hier.L1D.Stats,
		L2:     hier.L2.Stats,
	}
	if c.Stats.Insts > 0 {
		res.IMPKI = float64(hier.L1I.Stats.Misses) / float64(c.Stats.Insts) * 1000
	}
	res.DMissRate = hier.L1D.Stats.MissRate()
	res.MispredictRate = c.Stats.MispredictRate()

	var preExec int64
	act := energy.Activity{
		Cycles:      c.Stats.Cycles,
		Insts:       c.Stats.Insts,
		Branches:    c.Stats.Branches,
		Mispredicts: c.Stats.Mispredicts,
		L1IAccesses: hier.L1I.Stats.Accesses,
		L1DAccesses: hier.L1D.Stats.Accesses,
		L2Accesses:  hier.L2.Stats.Accesses,
		MemAccesses: hier.L2.Stats.Misses,
		Prefetches:  hier.L1I.Stats.PrefetchInstalls + hier.L1D.Stats.PrefetchInstalls,
	}
	if m.esp != nil {
		st := m.esp.Stats
		res.ESPStats = &st
		res.Study = m.esp.Study
		preExec = st.PreExecInsts
		act.L2Accesses += st.CacheletFills
		act.MemAccesses += st.LLCFills
		act.CacheletOps = st.PreExecInsts
		act.ListOps = st.PrefetchI + st.PrefetchD + st.Corrections + st.CacheletFills
	}
	if m.ra != nil {
		st := m.ra.Stats
		res.RAStats = &st
		preExec = st.PreExecInsts
	}
	act.PreExecInsts = preExec
	if c.Stats.Insts > 0 {
		res.ExtraInstPct = float64(preExec) / float64(c.Stats.Insts) * 100
	}
	res.Energy = energy.Compute(act, energy.DefaultModel())
	// Sched() already hands out an owned copy, so the Result can keep it
	// past workload cache evictions.
	res.Sched = w.Sched()
	return res
}
