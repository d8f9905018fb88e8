package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	esp "espsim"
	"espsim/internal/branch"
	"espsim/internal/checkpoint"
	"espsim/internal/eventq"
	"espsim/internal/fault"
	"espsim/internal/mem"
	"espsim/internal/prefetch"
	"espsim/internal/serve"
	"espsim/internal/sim"
	"espsim/internal/tenantq"
	"espsim/internal/trace"
	"espsim/internal/workload"
)

// probeSet is what the per-layer probes replay for one workload: its
// own cells, bodies and admissions, outside the end-to-end timing.
type probeSet struct {
	cells       []cell
	rep         cell // the cell whose workload plane drives the component probes
	bodies      [][]byte
	sweepBodies bool
	admissions  []admission
	// grid is the sweep the cluster probe runs through a coordinator
	// for workloads whose own path has none (nil: the traced phase
	// already went through one).
	grid *serve.SweepRequest
}

// admission is one tenant fair-queue acquisition a request causes.
type admission struct{ slots, cost int }

// perOp runs fn repeatedly until at least minDur has passed and returns
// the mean time per call, best of three rounds.
func perOp(minDur time.Duration, fn func()) time.Duration {
	best := time.Duration(-1)
	for round := 0; round < 3; round++ {
		n := 0
		start := time.Now()
		for time.Since(start) < minDur {
			fn()
			n++
		}
		if d := time.Since(start) / time.Duration(n); best < 0 || d < best {
			best = d
		}
	}
	return best
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// layerProbes measures every per-layer cost of ps and adds the results
// to m.
func layerProbes(ps probeSet, dir string, m map[string]float64) error {
	builds, cfgs, rep, prof, raw, err := ps.planes()
	if err != nil {
		return err
	}

	// sim: workload materialization, machine assembly, reset, result.
	var buildWall time.Duration
	var bytesTotal int64
	for _, build := range builds {
		start := time.Now()
		w, err := build()
		if err != nil {
			return err
		}
		buildWall += time.Since(start)
		bytesTotal += w.Bytes()
	}
	m["sim.workload_build_ms"] = ms(buildWall) / float64(len(builds))
	m["sim.workload_mb"] = float64(bytesTotal) / float64(len(builds)) / (1 << 20)
	var machines []*sim.Machine
	var machineWall time.Duration
	for _, cfg := range cfgs {
		start := time.Now()
		mc, err := sim.NewMachine(cfg)
		if err != nil {
			return err
		}
		machineWall += time.Since(start)
		machines = append(machines, mc)
	}
	m["sim.machine_build_us"] = us(machineWall) / float64(len(cfgs))
	m["sim.reset_us"] = us(perOp(20*time.Millisecond, func() {
		for _, mc := range machines {
			mc.Reset()
		}
	})) / float64(len(machines))
	// Result assembly is what Run adds to Replay; on an empty workload
	// the replay itself is only the reset, so the difference is not
	// lost in the noise of a long replay.
	empty := sim.MaterializeSource("empty", &eventq.TraceSource{}, 0)
	run := perOp(20*time.Millisecond, func() { machines[0].Run(empty) })
	replay := perOp(20*time.Millisecond, func() { machines[0].Replay(empty) })
	m["sim.result_us"] = us(run - replay)

	componentProbes(rep, m)
	if err := assistProbes(rep, m); err != nil {
		return err
	}
	if err := buildSideProbes(prof, raw, m); err != nil {
		return err
	}
	return serviceProbes(ps, machines[0], rep, dir, m)
}

// planes resolves the probe set into workload builders, machine
// configurations, the representative workload and profile, and an
// ESPT trace.
func (ps probeSet) planes() (builds []func() (*sim.Workload, error), cfgs []esp.Config, rep *sim.Workload, prof workload.Profile, raw []byte, err error) {
	seenCfg := map[string]bool{}
	for _, c := range ps.cells {
		if seenCfg[c.Config+"@"+c.Sched] {
			continue
		}
		seenCfg[c.Config+"@"+c.Sched] = true
		cfg, err := c.config()
		if err != nil {
			return nil, nil, nil, prof, nil, err
		}
		cfgs = append(cfgs, cfg)
	}
	seen := map[string]bool{}
	for _, c := range ps.cells {
		key := cellKey(c.App, c.Sched, c.MaxEvents)
		if seen[key] {
			continue
		}
		seen[key] = true
		cfg, err := c.config()
		if err != nil {
			return nil, nil, nil, prof, nil, err
		}
		p, err := workload.ByName(c.App)
		if err != nil {
			return nil, nil, nil, prof, nil, err
		}
		builds = append(builds, func() (*sim.Workload, error) { return sim.NewWorkloadSched(p, cfg.MaxEvents, cfg.Sched) })
	}
	cfg, err := ps.rep.config()
	if err != nil {
		return nil, nil, nil, prof, nil, err
	}
	if prof, err = workload.ByName(ps.rep.App); err != nil {
		return nil, nil, nil, prof, nil, err
	}
	if rep, err = sim.NewWorkloadSched(prof, cfg.MaxEvents, cfg.Sched); err != nil {
		return nil, nil, nil, prof, nil, err
	}
	raw, err = makeTrace(prof)
	return builds, cfgs, rep, prof, raw, err
}

// dataRef is one data access of a replayed stream.
type dataRef struct {
	pc, addr uint64
	write    bool
}

// componentProbes drives rep's real committed instruction streams
// through one component at a time: the fetches the core issues (one per
// line transition), the data accesses, and the branches.
func componentProbes(rep *sim.Workload, m map[string]float64) {
	var fetches []uint64
	var data []dataRef
	var branches []trace.Inst
	src := rep.Source(0)
	for i := 0; i < rep.Events(); i++ {
		line := ^uint64(0)
		for _, in := range src.Insts(i, false) {
			if l := trace.Line(in.PC); l != line {
				line = l
				fetches = append(fetches, in.PC)
			}
			switch in.Kind {
			case trace.Load, trace.Store:
				data = append(data, dataRef{pc: in.PC, addr: in.Addr, write: in.Kind == trace.Store})
			case trace.Branch:
				branches = append(branches, in)
			}
		}
	}
	h := mem.DefaultHierarchy()
	nsPer := func(n int, fn func()) float64 {
		return float64(perOp(20*time.Millisecond, func() { h.Reset(); fn() })) / float64(max(n, 1))
	}
	m["mem.fetchi_ns"] = nsPer(len(fetches), func() {
		for _, pc := range fetches {
			h.FetchI(pc)
		}
	})
	m["mem.accessd_ns"] = nsPer(len(data), func() {
		for _, d := range data {
			h.AccessD(d.addr, d.write)
		}
	})
	nli, dcu, stride := prefetch.NewNextLineI(h), prefetch.NewDCU(h), prefetch.NewStride(h)
	m["prefetch.nli_ns"] = nsPer(len(fetches), func() {
		nli.Reset()
		for _, pc := range fetches {
			nli.OnFetch(pc)
		}
	})
	m["prefetch.dcu_ns"] = nsPer(len(data), func() {
		dcu.Reset()
		for _, d := range data {
			dcu.OnAccess(d.addr)
		}
	})
	m["prefetch.stride_ns"] = nsPer(len(data), func() {
		stride.Reset()
		for _, d := range data {
			stride.OnAccess(d.pc, d.addr)
		}
	})
	bp := branch.New()
	m["branch.predict_ns"] = nsPer(len(branches), func() {
		bp.Reset()
		for i := range branches {
			bp.PredictUpdate(&branches[i])
		}
	})
}

// assistProbes times what ESP and runahead add to a warm NL replay of
// the same workload.
func assistProbes(rep *sim.Workload, m map[string]float64) error {
	replay := map[string]time.Duration{}
	for _, cfg := range []esp.Config{esp.NLConfig(), esp.ESPNLConfig(), esp.RunaheadNLConfig()} {
		mc, err := sim.NewMachine(cfg)
		if err != nil {
			return err
		}
		replay[cfg.Name] = perOp(30*time.Millisecond, func() { mc.Replay(rep) })
	}
	m["core.esp_extra_ms"] = ms(replay["ESP+NL"] - replay["NL"])
	m["runahead.extra_ms"] = ms(replay["Runahead+NL"] - replay["NL"])
	return nil
}

// traceEvents and traceInsts bound the ESPT trace the decoder probe
// reads: the first events of a session, at most traceEvents of them and
// at most traceInsts instructions (at least one event), under 1 MB.
// Suite applications' events differ in length by an order of magnitude,
// so the instruction bound keeps the decoded size alike across them.
const (
	traceEvents = 40
	traceInsts  = 200_000
)

// makeTrace records the first events of prof's session, within the
// traceEvents and traceInsts bounds, as an ESPT trace the way tracegen
// does.
func makeTrace(prof workload.Profile) ([]byte, error) {
	sess, err := workload.NewSession(prof)
	if err != nil {
		return nil, err
	}
	var evs []trace.EventTrace
	insts := 0
	for _, ev := range sess.Events {
		if len(evs) == traceEvents || (len(evs) > 0 && insts+ev.Len > traceInsts) {
			break
		}
		insts += ev.Len
		evs = append(evs, trace.EventTrace{Event: ev, Insts: trace.Record(sess.Gen.Stream(ev, false), ev.Len)})
	}
	var buf bytes.Buffer
	if err := trace.WriteFile(&buf, evs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// buildSideProbes times the instruction generator, the dispatch
// scheduler and the ESPT decoder.
func buildSideProbes(prof workload.Profile, raw []byte, m map[string]float64) error {
	sess, err := workload.NewSession(prof)
	if err != nil {
		return err
	}
	evs := sess.Events[:min(traceEvents, len(sess.Events))]
	var wk workload.Walker
	var buf []trace.Inst
	insts := 0
	for _, ev := range evs {
		insts += ev.Len
	}
	gen := perOp(20*time.Millisecond, func() {
		for _, ev := range evs {
			wk.Init(sess.Gen, ev, false)
			buf = wk.Append(buf[:0])
		}
	})
	m["workload.gen_ns_per_inst"] = float64(gen) / float64(insts)

	var mobile [][]trace.Event
	for _, p := range workload.MobileSuite() {
		s, err := workload.NewSession(p)
		if err != nil {
			return err
		}
		mobile = append(mobile, s.Events)
	}
	var schedErr error
	m["eventq.schedule_ms"] = ms(perOp(20*time.Millisecond, func() {
		for _, e := range mobile {
			if _, err := eventq.BuildSchedule(e, eventq.SchedEDF); err != nil {
				schedErr = err
			}
		}
	})) / float64(len(mobile))
	if schedErr != nil {
		return schedErr
	}

	var decErr error
	dec := perOp(20*time.Millisecond, func() {
		if _, err := trace.ReadFileLimits(bytes.NewReader(raw), trace.DefaultLimits()); err != nil {
			decErr = err
		}
	})
	m["trace.decode_ms_per_mb"] = ms(dec) / (float64(len(raw)) / (1 << 20))
	return decErr
}

// serviceProbes times the serving layers on this workload's own
// requests: request parsing, response encoding, fair-queue admission,
// the retry executor and journal appends.
func serviceProbes(ps probeSet, mc *sim.Machine, rep *sim.Workload, dir string, m map[string]float64) error {
	var parseErr error
	m["serve.parse_us"] = us(perOp(20*time.Millisecond, func() {
		for _, b := range ps.bodies {
			var err error
			if ps.sweepBodies {
				_, err = serve.ParseSweepRequest(b)
			} else {
				_, err = serve.ParseRunRequest(b)
			}
			if err != nil {
				parseErr = err
			}
		}
	})) / float64(len(ps.bodies))
	if parseErr != nil {
		return parseErr
	}

	res := mc.Run(rep)
	var resp any = serve.RunResponse{Result: res}
	if ps.sweepBodies {
		cells := make([]serve.SweepCell, len(ps.cells))
		for i, c := range ps.cells {
			cells[i] = serve.SweepCell{App: c.App, Config: c.Config, Result: &res, Attempts: 1}
		}
		resp = serve.SweepResponse{Cells: cells}
	}
	enc := json.NewEncoder(io.Discard)
	enc.SetEscapeHTML(false)
	m["serve.encode_us"] = us(perOp(20*time.Millisecond, func() { _ = enc.Encode(resp) }))

	queues := map[int]*tenantq.Queue{}
	for _, a := range ps.admissions {
		if queues[a.slots] == nil {
			queues[a.slots] = tenantq.New(tenantq.Options{Slots: a.slots})
		}
	}
	var acqErr error
	ctx := context.Background()
	m["tenantq.acquire_us"] = us(perOp(20*time.Millisecond, func() {
		for _, a := range ps.admissions {
			release, err := queues[a.slots].Acquire(ctx, tenantq.DefaultTenant, a.cost)
			if err != nil {
				acqErr = err
				continue
			}
			release()
		}
	})) / float64(len(ps.admissions))
	if acqErr != nil {
		return acqErr
	}

	exec := fault.NewExecutor(fault.RetryPolicy{}, fault.NewBreakerSet(5, 30*time.Second), fault.Retryable, 1)
	keys := make([]string, len(ps.cells))
	for i, c := range ps.cells {
		keys[i] = c.App + "/" + c.Config
	}
	noop := func(int) error { return nil }
	m["fault.exec_us"] = us(perOp(20*time.Millisecond, func() {
		for _, k := range keys {
			exec.Run(ctx, k, noop)
		}
	})) / float64(len(keys))

	rec, err := json.Marshal(struct {
		App    string     `json:"app"`
		Config string     `json:"config"`
		Result esp.Result `json:"result"`
	}{res.App, res.Config, res})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "probe.espj")
	j, _, _, err := checkpoint.Open(path, checkpoint.Meta{Version: 1, SweepID: "probe"}.Encode())
	if err != nil {
		return err
	}
	defer os.Remove(path)
	const appends = 32
	start := time.Now()
	for i := 0; i < appends; i++ {
		if err := j.Append(rec); err != nil {
			j.Close()
			return fmt.Errorf("journal append: %w", err)
		}
	}
	m["checkpoint.append_us"] = us(time.Since(start)) / appends
	return j.Close()
}
