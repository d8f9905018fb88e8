package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	esp "espsim"
	"espsim/internal/serve"
	"espsim/internal/workload"
)

// fig9Configs is the Figure 9 machine axis, baseline first.
var fig9Configs = []string{"base", "NL", "NL+S", "Runahead", "Runahead+NL", "ESP", "ESP+NL"}

// runOpenConfigs is run-open's machine axis.
var runOpenConfigs = []string{"base", "NL", "ESP+NL"}

const (
	// runOpenMaxEvents bounds every run-open cell to a few events, so
	// fixed per-request costs dominate.
	runOpenMaxEvents = 4
	// runOpenRate is run-open's offered load in requests per second:
	// about a ninth of the 918 req/s a saturating run measured on a
	// 2-core host. Queueing amplifies the host's run-to-run speed
	// swings: across seeds, p95 spread by 17–28% at 200 req/s and 12%
	// here, and at 400 req/s p50 spread by 25% and p99 by 41%.
	runOpenRate = 100
)

func suiteNames() []string {
	var names []string
	for _, p := range workload.Suite() {
		names = append(names, p.Name)
	}
	return names
}

// fig9Cells is the full Figure 9 grid at scale 1.
func fig9Cells() []cell {
	var cells []cell
	for _, app := range suiteNames() {
		for _, cfg := range fig9Configs {
			cells = append(cells, cell{App: app, Config: cfg})
		}
	}
	return cells
}

// runOpenCells is run-open's request mix: the paper suite under FIFO
// and the two mobile-web profiles under fifo and edf, each on every
// run-open machine, bounded to runOpenMaxEvents.
func runOpenCells() []cell {
	var cells []cell
	for _, app := range suiteNames() {
		for _, cfg := range runOpenConfigs {
			cells = append(cells, cell{App: app, Config: cfg, MaxEvents: runOpenMaxEvents})
		}
	}
	for _, p := range workload.MobileSuite() {
		for _, sched := range []string{"fifo", "edf"} {
			for _, cfg := range runOpenConfigs {
				cells = append(cells, cell{App: p.Name, Config: cfg, Sched: sched, MaxEvents: runOpenMaxEvents})
			}
		}
	}
	return cells
}

// phase is what one measured phase observed.
type phase struct {
	root      int32 // the phase's root span, -1 when untraced
	reqs      int64 // request ids handed out
	lat       []time.Duration
	late      []time.Duration // how late each request left the generator
	attempted int
	failed    int
	firstErr  error
	backlog   int // requests due but unsent when the phase window closed
	sim       simAgg
}

func (ph *phase) nextReq() int64 {
	ph.reqs++
	return ph.reqs
}

func (ph *phase) fail(err error) {
	ph.failed++
	if ph.firstErr == nil {
		ph.firstErr = err
	}
}

// simAgg sums the simulated statistics of verified results.
type simAgg struct {
	cells, insts, cycles                int64
	imiss, dmiss, brcyc                 int64
	l1iMiss, l1dAcc, l1dMiss            int64
	pfInstalls, pfUseful                int64
	branches, mispredicts               int64
	espInsts, preExec, evPre, evConsume int64
}

func (a *simAgg) add(r *esp.Result) {
	a.cells++
	a.insts += r.Insts
	a.cycles += r.Cycles
	a.imiss += r.CPU.IMissCycles
	a.dmiss += r.CPU.DMissCycles
	a.brcyc += r.CPU.BranchCycles
	a.l1iMiss += r.L1I.Misses
	a.l1dAcc += r.L1D.Accesses
	a.l1dMiss += r.L1D.Misses
	a.pfInstalls += r.L1I.PrefetchInstalls + r.L1D.PrefetchInstalls
	a.pfUseful += r.L1I.PrefetchUseful + r.L1D.PrefetchUseful
	a.branches += r.CPU.Branches
	a.mispredicts += r.CPU.Mispredicts
	if s := r.ESPStats; s != nil {
		a.espInsts += r.Insts
		a.preExec += s.PreExecInsts
		a.evPre += s.EventsPreExecuted
		a.evConsume += s.EventsConsumed
	}
}

// espPair holds one input's simulated cycles under ESP+NL and NL+S.
type espPair struct{ esp, nls int64 }

// espOverNLS is the harmonic-mean speedup of ESP+NL over NL+S across
// the inputs both were simulated on, in percent.
func espOverNLS(pairs map[string]*espPair) float64 {
	var sp []float64
	keys := make([]string, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Strings(keys) // summation order fixes the last bits
	for _, k := range keys {
		if p := pairs[k]; p.esp > 0 && p.nls > 0 {
			sp = append(sp, float64(p.nls)/float64(p.esp))
		}
	}
	return hmeanImprovementPct(sp)
}

// bench is one named workload.
type bench interface {
	// setup builds a fresh fleet and runs its cold pass.
	setup(dir string) (*fleet, error)
	// drive runs one measured phase of length d.
	drive(f *fleet, d time.Duration, ph *phase)
	// probes lists the inputs the per-layer probes replay.
	probes() probeSet
	// espPairs is the simulated ESP+NL versus NL+S record so far.
	espPairs() map[string]*espPair
}

func newBench(name string, seed int64, v *verifier) (bench, error) {
	switch name {
	case "fig9-sweep":
		return newFig9(seed, v), nil
	case "run-open":
		return newRunOpen(seed, v)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// ---- fig9-sweep -------------------------------------------------------

// fig9 POSTs the whole Figure 9 grid to espcoord from one closed-loop
// client, in a seeded app and config order, under a fresh sweep_id.
type fig9 struct {
	rng    *rand.Rand
	v      *verifier
	sweeps int
	pairs  map[string]*espPair
	first  string // the first app of the first sweep body
}

func newFig9(seed int64, v *verifier) *fig9 {
	return &fig9{rng: rand.New(rand.NewSource(seed)), v: v, pairs: map[string]*espPair{}}
}

// body returns the next sweep request in the seeded sequence.
func (b *fig9) body() []byte {
	apps, cfgs := suiteNames(), append([]string(nil), fig9Configs...)
	b.rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	b.rng.Shuffle(len(cfgs), func(i, j int) { cfgs[i], cfgs[j] = cfgs[j], cfgs[i] })
	if b.first == "" {
		b.first = apps[0]
	}
	b.sweeps++
	raw, _ := json.Marshal(serve.SweepRequest{Apps: apps, Configs: cfgs, SweepID: fmt.Sprintf("sweep-%d", b.sweeps)})
	return raw
}

func (b *fig9) setup(dir string) (*fleet, error) {
	f, err := newFleet(true, dir)
	if err != nil {
		return nil, err
	}
	var ph phase
	if err := b.sweep(f, &ph); err != nil {
		f.close()
		return nil, fmt.Errorf("cold sweep: %w", err)
	}
	return f, nil
}

func (b *fig9) drive(f *fleet, d time.Duration, ph *phase) {
	end := time.Now().Add(d)
	prev := time.Now()
	for time.Now().Before(end) {
		ph.late = append(ph.late, time.Since(prev))
		ph.attempted++
		if err := b.sweep(f, ph); err != nil {
			ph.fail(err)
		}
		prev = time.Now()
	}
}

// sweep posts one grid and verifies every cell.
func (b *fig9) sweep(f *fleet, ph *phase) error {
	rep, err := f.post("/sweep", b.body(), ph.nextReq(), ph.root)
	if err != nil {
		return err
	}
	if rep.status != http.StatusOK {
		return fmt.Errorf("sweep answered %d: %s", rep.status, bytes.TrimSpace(rep.body))
	}
	var resp serve.SweepResponse
	if err := json.Unmarshal(rep.body, &resp); err != nil {
		return fmt.Errorf("decoding sweep response: %w", err)
	}
	if len(resp.Cells) != len(suiteNames())*len(fig9Configs) {
		return fmt.Errorf("sweep returned %d cells", len(resp.Cells))
	}
	for i := range resp.Cells {
		c := &resp.Cells[i]
		if c.Result == nil {
			return fmt.Errorf("%s/%s: %s%s", c.App, c.Config, c.Error, c.Skipped)
		}
		if err := b.v.check(c.Result, 0); err != nil {
			return err
		}
		ph.sim.add(c.Result)
		p := b.pairs[c.App]
		if p == nil {
			p = &espPair{}
			b.pairs[c.App] = p
		}
		switch c.Config {
		case "ESP+NL":
			p.esp = c.Result.Cycles
		case "NL+S":
			p.nls = c.Result.Cycles
		}
	}
	ph.lat = append(ph.lat, rep.lat)
	return nil
}

func (b *fig9) espPairs() map[string]*espPair { return b.pairs }

func (b *fig9) probes() probeSet {
	first := b.first
	if first == "" {
		first = suiteNames()[0]
	}
	ps := probeSet{cells: fig9Cells(), sweepBodies: true}
	for _, c := range ps.cells {
		if c.App == first && c.Config == "base" {
			ps.rep = c
		}
	}
	for i := 0; i < 4; i++ {
		ps.bodies = append(ps.bodies, b.body())
	}
	// One coordinator admission of the whole grid, then one worker
	// admission per application batch.
	ps.admissions = append(ps.admissions, admission{slots: 64 * 2, cost: len(ps.cells)})
	for range suiteNames() {
		ps.admissions = append(ps.admissions, admission{slots: 1, cost: len(fig9Configs)})
	}
	return ps
}

// ---- run-open ---------------------------------------------------------

// runOpen sends seeded Poisson arrivals of small /run cells to one espd
// over at most maxConns connections, timing each from its due time.
type runOpen struct {
	seed   int64
	phases int64
	v      *verifier
	cells  []cell
	bodies [][]byte
	pairs  map[string]*espPair
}

func newRunOpen(seed int64, v *verifier) (*runOpen, error) {
	b := &runOpen{seed: seed, v: v, cells: runOpenCells(), pairs: map[string]*espPair{}}
	for _, c := range b.cells {
		raw, err := json.Marshal(serve.RunRequest{App: c.App, Config: c.Config, Sched: c.Sched, MaxEvents: c.MaxEvents})
		if err != nil {
			return nil, err
		}
		b.bodies = append(b.bodies, raw)
		if c.Config == "ESP+NL" {
			// NL+S is not in the mix: simulate it once, outside every
			// timed region, as the reference ESP+NL is compared against.
			ref := c
			ref.Config = "NL+S"
			res, err := freshResult(ref)
			if err != nil {
				return nil, err
			}
			b.pairs[c.App+"@"+c.Sched] = &espPair{nls: res.Cycles}
		}
	}
	return b, nil
}

// arrival is one scheduled request: when it is due after the phase
// starts, and which cell it asks for.
type arrival struct {
	at   time.Duration
	cell int
}

// schedule draws the arrivals of the next phase of length d.
func (b *runOpen) schedule(d time.Duration) []arrival {
	b.phases++
	rng := rand.New(rand.NewSource(b.seed*1000003 + b.phases))
	var out []arrival
	var t float64
	for {
		t += rng.ExpFloat64() / runOpenRate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, arrival{at: at, cell: rng.Intn(len(b.cells))})
	}
}

func (b *runOpen) setup(dir string) (*fleet, error) {
	f, err := newFleet(false, dir)
	if err != nil {
		return nil, err
	}
	var ph phase
	for i := range b.cells {
		rep, err := f.post("/run", b.bodies[i], ph.nextReq(), -1)
		if err == nil {
			err = b.check(f, i, rep, &ph)
		}
		if err != nil {
			f.close()
			return nil, fmt.Errorf("cold pass: %w", err)
		}
	}
	return f, nil
}

func (b *runOpen) drive(f *fleet, d time.Duration, ph *phase) {
	arr := b.schedule(d)
	replies := make([]reply, len(arr))
	errs := make([]error, len(arr))
	sent := make([]time.Time, len(arr))
	done := make([]time.Time, len(arr))
	reqs := make([]int64, len(arr))
	for k := range reqs {
		reqs[k] = ph.nextReq()
	}
	// Each connection takes the next arrival in due order, sleeps until
	// it is due if it is early, and sends it; an arrival due while both
	// connections are busy waits, and that wait counts in its latency.
	// How long after its due time an arrival is sent, whether from
	// oversleeping or from waiting for a connection, is its lateness.
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < maxConns; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(arr); k = int(next.Add(1) - 1) {
				if wait := time.Until(start.Add(arr[k].at)); wait > 0 {
					time.Sleep(wait)
				}
				sent[k] = time.Now()
				replies[k], errs[k] = f.post("/run", b.bodies[arr[k].cell], reqs[k], ph.root)
				done[k] = time.Now()
			}
		}()
	}
	wg.Wait()

	// Verification runs after the phase so it never delays a send.
	end := start.Add(d)
	for k, a := range arr {
		ph.attempted++
		due := start.Add(a.at)
		ph.late = append(ph.late, sent[k].Sub(due))
		if sent[k].After(end) {
			ph.backlog++
		}
		err := errs[k]
		if err == nil {
			err = b.check(f, a.cell, replies[k], ph)
		}
		if err != nil {
			ph.fail(err)
			continue
		}
		ph.lat = append(ph.lat, done[k].Sub(due))
	}
}

// check verifies one /run reply for cell i and records its engine span.
func (b *runOpen) check(f *fleet, i int, rep reply, ph *phase) error {
	res, err := decodeRun(f, rep)
	if err != nil {
		return err
	}
	c := b.cells[i]
	if err := b.v.check(&res, c.MaxEvents); err != nil {
		return err
	}
	ph.sim.add(&res)
	if c.Config == "ESP+NL" {
		b.pairs[c.App+"@"+c.Sched].esp = res.Cycles
	}
	return nil
}

// decodeRun decodes a /run reply and adds the server-reported engine
// time under the front handler's span.
func decodeRun(f *fleet, rep reply) (esp.Result, error) {
	if rep.status != http.StatusOK {
		return esp.Result{}, fmt.Errorf("run answered %d: %s", rep.status, bytes.TrimSpace(rep.body))
	}
	var resp serve.RunResponse
	if err := json.Unmarshal(rep.body, &resp); err != nil {
		return esp.Result{}, fmt.Errorf("decoding run response: %w", err)
	}
	f.tracer().reported("engine", rep.span, msDuration(resp.WallMs))
	return resp.Result, nil
}

func (b *runOpen) espPairs() map[string]*espPair { return b.pairs }

func (b *runOpen) probes() probeSet {
	ps := probeSet{cells: b.cells, bodies: b.bodies}
	for _, c := range b.cells {
		if c.App == "mobileweb" && c.Sched == "edf" && c.Config == "base" {
			ps.rep = c
		}
	}
	ps.admissions = []admission{{slots: 2, cost: 1}}
	var apps []string
	for _, p := range append(workload.Suite(), workload.MobileSuite()...) {
		apps = append(apps, p.Name)
	}
	ps.grid = &serve.SweepRequest{Apps: apps, Configs: runOpenConfigs, MaxEvents: runOpenMaxEvents}
	return ps
}
