package sim

import (
	"context"
	"testing"

	"espsim/internal/eventq"
	"espsim/internal/workload"
)

// TestReplayAllocFree pins the PR's headline contract: a warm machine
// replaying a materialized workload performs zero heap allocations. The
// first replay (a depth-8 ESP engine's first few) may still size scratch
// and list arrays to the workload; every replay after that must run
// entirely out of the machine's own storage, for every assist and
// prefetcher configuration the sweep grid uses and every ESP design that
// owns structures of its own.
func TestReplayAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is wall-clock heavy")
	}
	prof := testProfile(t)
	w, err := NewWorkload(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range append([]Config{
		{Name: "base"},
		{Name: "nls", NLI: true, NLD: true, StridePF: true},
		{Name: "efetch", EFetch: true},
		{Name: "pif", PIF: true},
		{Name: "ra", NLI: true, NLD: true, Assist: AssistRunahead},
		espConfig(),
	}, espDesigns()...) {
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		// Warm-up: scratch and list arrays size themselves here. An ESP
		// slot's list arrays grow to the largest occupant it has held,
		// and which occupants a slot holds shifts from replay to replay,
		// so a depth-8 engine's nine slots take a few replays to settle.
		warm := 1
		if cfg.ESP.JumpDepth > 2 {
			warm = 4
		}
		for range warm {
			m.Replay(w)
		}
		if n := testing.AllocsPerRun(3, func() { m.Replay(w) }); n != 0 {
			t.Errorf("%s: warm Replay heap-allocates %v times per run, want 0", cfg.Name, n)
		}
	}
}

// TestReplayAllocFreeScheduled extends the zero-allocation contract to
// the scheduling dimension: a workload materialized under a non-FIFO
// schedule (timed events, reordered queue, arrival-based pending
// windows) replays with zero heap allocations too. The schedule lives
// entirely in the immutable workload plane, so the replay loop must not
// notice it exists.
func TestReplayAllocFreeScheduled(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is wall-clock heavy")
	}
	prof := workload.MobileWeb()
	prof.Events = 60
	for _, policy := range []eventq.SchedPolicy{eventq.SchedFIFO, eventq.SchedEDF} {
		w, err := NewWorkloadSched(prof, 0, policy)
		if err != nil {
			t.Fatal(err)
		}
		if w.Sched() == nil {
			t.Fatalf("%v: timed workload has no schedule stats", policy)
		}
		for _, cfg := range []Config{{Name: "base"}, espConfig()} {
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
			m.Replay(w)
			if n := testing.AllocsPerRun(3, func() { m.Replay(w) }); n != 0 {
				t.Errorf("%s@%v: warm Replay heap-allocates %v times per run, want 0", cfg.Name, policy, n)
			}
		}
	}
}

// TestRunnerWarmCellAllocFlat is the same contract one layer up: a warm
// Runner re-running a cached cell (workload plane already materialized,
// machine drawn from the pool) must not allocate beyond the Result
// assembly itself.
func TestRunnerWarmCellAllocFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is wall-clock heavy")
	}
	prof := workload.Bing()
	prof.Events = 30
	cfg := espConfig()
	r := NewRunner()
	if _, err := r.RunCell(context.Background(), "warm", prof, cfg); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(3, func() {
		if _, err := r.RunCell(context.Background(), "warm", prof, cfg); err != nil {
			t.Error(err)
		}
	})
	if n > warmCellAllocs {
		t.Errorf("warm RunCell heap-allocates %v times per run, want <= %d", n, warmCellAllocs)
	}
}

// warmCellAllocs bounds a warm cell's heap allocations: RunCell
// assembles a fresh Result (one ESPStats or RAStats box for assisted
// configs); anything beyond that small constant means the hot path
// regressed.
const warmCellAllocs = 4

// TestRunnerRefitAllocFlat: once a slot has run each Figure 9 config,
// cycling through them all allocates no more per cell than a warm cell
// of one config, so fitting a machine to a config it has seen builds
// nothing.
func TestRunnerRefitAllocFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is wall-clock heavy")
	}
	prof := workload.Bing()
	prof.Events = 30
	cfgs := fig9Configs()
	r := NewRunner()
	cycle := func() {
		for _, cfg := range cfgs {
			if _, err := r.RunCell(context.Background(), "cycle", prof, cfg); err != nil {
				t.Error(err)
			}
		}
	}
	cycle()
	if n := testing.AllocsPerRun(3, cycle) / float64(len(cfgs)); n > warmCellAllocs {
		t.Errorf("cycling the Figure 9 configs heap-allocates %.2f times per cell, want <= %d", n, warmCellAllocs)
	}
	if p := r.Perf(); p.MachineBuilds != 1 {
		t.Fatalf("one caller built %d machines, want 1", p.MachineBuilds)
	}
}
