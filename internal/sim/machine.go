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

// Machine is the machine plane: one simulated core — hierarchy, branch
// predictor and timing model — that replays any number of workloads.
// Every design point shares the Figure 7 hierarchy and predictor; a
// Config varies only the timing model, the Perfect* switches, the
// prefetchers and the stall-window assist. Fitting the machine to a
// Config sets the first two and attaches the rest, building each
// prefetcher or assist the first time a config names it and keeping it
// for the next. Run resets the hierarchy, predictor, core and attached
// components to cold state first, without reallocating their tables, so
// each replay is bit-identical to a freshly built machine's and the
// replay loop is allocation-flat.
//
// A Machine is single-threaded; build one per worker and share the
// (immutable) workloads instead. A Runner holds one per cell in flight
// and fits it to each cell's config.
type Machine struct {
	cfg  Config //esp:immutable
	hier *mem.Hierarchy
	bp   *branch.Predictor
	c    *cpu.Core

	// Each prefetcher is built the first time a config names it; fit
	// attaches to the core only those cfg names.
	nli    *prefetch.NextLineI
	dcu    *prefetch.DCU
	stride *prefetch.Stride
	efetch *prefetch.EFetch
	pif    *prefetch.PIF

	// ra or esp is the assist attached for cfg (nil: none); ras and esps
	// keep every engine built so far, one per runahead.Config or
	// core.Options.
	ra   *runahead.Engine
	esp  *core.ESP
	ras  []*runahead.Engine //esp:immutable
	esps []*core.ESP        //esp:immutable
}

// NewMachine validates cfg and assembles the machine, fit to cfg.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{hier: mem.DefaultHierarchy(), bp: branch.New()}
	m.c = cpu.New(cpu.Config{}, m.hier, m.bp) // fit sets the timing model
	if err := m.fit(cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// fit prepares the machine to replay cells as cfg, which must be valid:
// it sets cfg's timing configuration and Perfect* switches and attaches
// the prefetchers and assist cfg names, building any the machine does
// not have yet. Every fit component is reset by the next replay.
func (m *Machine) fit(cfg Config) error {
	c := m.c
	c.Cfg = cfg.effectiveCPU()
	m.hier.PerfectL1I, m.hier.PerfectL1D = cfg.PerfectL1I, cfg.PerfectL1D
	c.NLI, c.DCU, c.Stride, c.FetchObs, c.Assist = nil, nil, nil, nil, nil
	m.ra, m.esp = nil, nil

	if cfg.NLI {
		c.NLI = kept(&m.nli, prefetch.NewNextLineI, m.hier)
	}
	if cfg.NLD {
		c.DCU = kept(&m.dcu, prefetch.NewDCU, m.hier)
	}
	if cfg.StridePF {
		c.Stride = kept(&m.stride, prefetch.NewStride, m.hier)
	}
	switch {
	case cfg.EFetch:
		c.FetchObs = kept(&m.efetch, prefetch.NewEFetch, m.hier)
	case cfg.PIF:
		c.FetchObs = kept(&m.pif, prefetch.NewPIF, m.hier)
	}

	switch cfg.Assist {
	case AssistRunahead:
		m.ra = m.runaheadFor(cfg.effectiveRA())
		c.Assist = m.ra
	case AssistESP:
		espEng, err := m.espFor(cfg.effectiveESP())
		if err != nil {
			return err
		}
		m.esp = espEng
		c.Assist = espEng
	}
	m.cfg = cfg
	return nil
}

// kept returns the prefetcher *p, building it over h the first time.
func kept[T any](p **T, build func(*mem.Hierarchy) *T, h *mem.Hierarchy) *T {
	if *p == nil {
		*p = build(h)
	}
	return *p
}

// runaheadFor returns the machine's runahead engine for rc, building it
// the first time.
func (m *Machine) runaheadFor(rc runahead.Config) *runahead.Engine {
	for _, e := range m.ras {
		if e.Cfg == rc {
			return e
		}
	}
	e := runahead.New(rc, m.hier, m.bp)
	m.ras = append(m.ras, e)
	return e
}

// espFor returns the machine's ESP engine for opt, building it the
// first time. The stream source is bound per replay.
func (m *Machine) espFor(opt core.Options) (*core.ESP, error) {
	for _, e := range m.esps {
		if e.Opt == opt {
			return e, nil
		}
	}
	e, err := core.New(opt, m.hier, m.bp, nil)
	if err != nil {
		return nil, fmt.Errorf("esp: %w", err)
	}
	m.esps = append(m.esps, e)
	return e, nil
}

// Reset restores the hierarchy, predictor, core, prefetchers and the
// attached assist to their just-constructed cold state without
// reallocating tables: caches are invalidated in place, predictor tables
// are zeroed, assist structures return to their pools. A reset machine
// replays a workload bit-identically to a freshly built one.
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
// queue view here, never deeper than the views w keeps (a Runner's
// bounded workloads keep only what their cells read; Runner.RunWorkload
// refuses a deeper replay).
func (m *Machine) Run(w *Workload) Result {
	m.replay(w, nil)
	return m.result(w)
}

// Replay resets the machine and replays w through it, bounded by the
// machine's MaxEvents, leaving the results in the machine's statistics
// (read them via Run, which wraps Replay and assembles a Result). This
// is the allocation-zero hot path: a warm machine replaying a
// materialized workload performs no heap allocations, because the replay
// reads the workload's tapes and queue views in place and keeps no
// scratch of its own.
func (m *Machine) Replay(w *Workload) { m.replay(w, nil) }

// replay is the looper thread (paper §2.2, Figure 2): it dequeues the
// workload's events in order, at most cfg.MaxEvents when positive, and
// runs each through the core. The assist sees each event's queue view
// as w.Source(cfg.MaxPending).Pending reports it, and ESP reads its
// speculative streams from w itself. Before each dequeue it polls done
// (a nil done never closes): once done is closed no further event runs,
// and replay returns true.
func (m *Machine) replay(w *Workload, done <-chan struct{}) (stopped bool) {
	m.Reset()
	if m.esp != nil {
		m.esp.Src = w
	}
	c, assist, maxPending := m.c, m.c.Assist, m.cfg.MaxPending
events:
	for i, ev := range w.events[:execCount(w.nExec, m.cfg.MaxEvents)] {
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

// result assembles the Result, labelled with the config's name, and
// energy accounting from the machine's post-run statistics, plus the
// workload's build-time schedule summary.
func (m *Machine) result(w *Workload) Result {
	c, hier := m.c, m.hier
	res := Result{
		App:    w.App,
		Config: m.cfg.Name,
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
