package sim

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"espsim/internal/core"
	"espsim/internal/eventq"
	"espsim/internal/trace"
	"espsim/internal/workload"
)

// cellWorkload is the workload RunCell replays for a cell of prof as
// cfg, built on first use and shared after. It is not held once
// returned, so the cache may evict it.
func cellWorkload(t *testing.T, r *Runner, prof workload.Profile, cfg Config) *Workload {
	t.Helper()
	cell, err := r.hold(cellKey(prof, cfg))
	if err != nil {
		t.Fatal(err)
	}
	r.release(cell)
	return cell.w
}

// smallSuite returns three distinct small profiles, for cache tests.
func smallSuite() []workload.Profile {
	out := []workload.Profile{workload.Amazon(), workload.Bing(), workload.Pixlr()}
	for i := range out {
		out[i].Events = 24
	}
	return out
}

// fig9Configs returns the Figure 9 machine axis: base, NL, NL+S,
// Runahead, Runahead+NL, ESP and ESP+NL.
func fig9Configs() []Config {
	return []Config{
		{Name: "base"},
		{Name: "NL", NLI: true, NLD: true},
		{Name: "NL+S", NLI: true, NLD: true, StridePF: true},
		{Name: "Runahead", Assist: AssistRunahead},
		{Name: "Runahead+NL", NLI: true, NLD: true, Assist: AssistRunahead},
		{Name: "ESP", Assist: AssistESP, ESP: core.DefaultOptions()},
		espConfig(),
	}
}

// TestRunnerMachinesPerCellInFlight: goroutines cycling the Figure 9
// configs, each from a different starting point, never have more cells
// in flight than there are goroutines, so the Runner builds at most one
// machine per goroutine, and every result equals a fresh machine's.
func TestRunnerMachinesPerCellInFlight(t *testing.T) {
	prof := testProfile(t)
	prof.Events = 8
	cfgs := fig9Configs()
	w, err := NewWorkload(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m.Run(w)
	}

	const goroutines, laps = 3, 2
	r := NewRunner()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < laps*len(cfgs); i++ {
				k := (g*2 + i) % len(cfgs)
				res, err := r.RunCell(context.Background(), "cycle", prof, cfgs[k])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res, want[k]) {
					t.Errorf("%s: pooled result differs from a fresh machine's", cfgs[k].Name)
				}
			}
		}()
	}
	wg.Wait()
	if p := r.Perf(); p.MachineBuilds > goroutines {
		t.Fatalf("%d goroutines built %d machines, want at most %d", goroutines, p.MachineBuilds, goroutines)
	}
}

// TestRunnerWorkloadLRU exercises the cap: with room for two workloads,
// touching a third evicts the least recently used, and re-requesting the
// evicted key rebuilds it (a build, not a reuse).
func TestRunnerWorkloadLRU(t *testing.T) {
	profs := smallSuite()
	r := NewRunner()
	r.SetWorkloadCap(2)

	wa := cellWorkload(t, r, profs[0], Config{})
	cellWorkload(t, r, profs[1], Config{})
	// Touch A so B becomes the LRU entry, then insert C: B is evicted.
	if again := cellWorkload(t, r, profs[0], Config{}); again != wa {
		t.Fatalf("re-request of cached workload: got %p, want the shared %p", again, wa)
	}
	cellWorkload(t, r, profs[2], Config{})
	p := r.Perf()
	if p.WorkloadBuilds != 3 || p.WorkloadReuses != 1 || p.WorkloadEvicts != 1 {
		t.Fatalf("after insert past cap: perf %+v, want 3 builds / 1 reuse / 1 evict", p)
	}
	// A stayed resident (it was freshened); B was evicted and rebuilds.
	if again := cellWorkload(t, r, profs[0], Config{}); again != wa {
		t.Fatalf("A should still be cached, got %p", again)
	}
	cellWorkload(t, r, profs[1], Config{})
	p = r.Perf()
	if p.WorkloadBuilds != 4 || p.WorkloadEvicts != 2 {
		t.Fatalf("evicted key must rebuild: perf %+v, want 4 builds / 2 evicts", p)
	}
}

// TestRunnerSetWorkloadCapTrims checks that lowering the cap on a warm
// cache evicts immediately, and that cap < 1 means unbounded.
func TestRunnerSetWorkloadCapTrims(t *testing.T) {
	profs := smallSuite()
	r := NewRunner()
	for _, p := range profs {
		cellWorkload(t, r, p, Config{})
	}
	if got := r.Perf().WorkloadEvicts; got != 0 {
		t.Fatalf("unbounded cache evicted %d workloads", got)
	}
	r.SetWorkloadCap(1)
	if got := r.Perf().WorkloadEvicts; got != 2 {
		t.Fatalf("trim to cap 1: %d evictions, want 2", got)
	}
}

// TestFaultHookInjectsRunFaults drives every injection shape through
// one runner: an injected error fails the cell (machine pooled again),
// an injected panic takes the containment path (machine dropped, error
// classified ErrPanic), and removing the hook restores clean runs that
// match an uninjected reference bit-for-bit.
func TestFaultHookInjectsRunFaults(t *testing.T) {
	prof := testProfile(t)
	cfg := espConfig()
	r := NewRunner()
	want, err := r.RunCell(context.Background(), "ref", prof, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var calls []FaultPoint
	fail := "error"
	r.SetFaultHook(func(p FaultPoint) error {
		calls = append(calls, p)
		if p.Op != "run" {
			return nil
		}
		switch fail {
		case "error":
			return fmt.Errorf("injected")
		case "panic":
			panic("injected panic")
		}
		return nil
	})

	if _, err := r.RunCell(context.Background(), "cell", prof, cfg); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("injected error did not surface: %v", err)
	} else if errors.Is(err, ErrPanic) {
		t.Fatalf("plain injected error classified as panic: %v", err)
	}
	fail = "panic"
	if _, err := r.RunCell(context.Background(), "cell", prof, cfg); !errors.Is(err, ErrPanic) {
		t.Fatalf("injected panic not classified ErrPanic: %v", err)
	}
	fail = "none"
	res, err := r.RunCell(context.Background(), "cell", prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatal("post-fault replay deviates from the uninjected reference")
	}
	r.SetFaultHook(nil)
	if _, err := r.RunCell(context.Background(), "cell", prof, cfg); err != nil {
		t.Fatalf("removed hook still faults: %v", err)
	}
	if len(calls) == 0 {
		t.Fatal("fault hook never called")
	}
}

// TestFaultHookBuildFailureNotSticky: an injected workload-build failure
// surfaces as ErrBuild, and — unlike a cached workload — is dropped from
// the cache, so the next attempt rebuilds and succeeds.
func TestFaultHookBuildFailureNotSticky(t *testing.T) {
	prof := testProfile(t)
	cfg := espConfig()
	r := NewRunner()
	failures := 1
	r.SetFaultHook(func(p FaultPoint) error {
		if p.Op == "build" && failures > 0 {
			failures--
			return fmt.Errorf("injected build failure")
		}
		return nil
	})
	if _, err := r.RunCell(context.Background(), "cell", prof, cfg); !errors.Is(err, ErrBuild) {
		t.Fatalf("injected build failure not classified ErrBuild: %v", err)
	}
	res, err := r.RunCell(context.Background(), "cell", prof, cfg)
	if err != nil {
		t.Fatalf("retry after transient build failure: %v", err)
	}
	r.SetFaultHook(nil)
	want, err := NewRunner().RunCell(context.Background(), "ref", prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatal("rebuilt workload deviates from a fresh runner's result")
	}
	p := r.Perf()
	if p.WorkloadReuses != 0 {
		t.Fatalf("failed build was reused: %+v", p)
	}
}

// workloadDigest hashes every observable byte of a workload: events and
// pending views (every trace.Event field of both, since assists get
// views into the workload's own pending table), and the normal and
// speculative instruction streams.
func workloadDigest(w *Workload) uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	putEvent := func(ev trace.Event) { fmt.Fprintf(h, "%+v;", ev) }
	src := w.Source(0)
	for i := 0; i < src.Len(); i++ {
		putEvent(src.Event(i))
		pend := src.Pending(i)
		put(uint64(len(pend)))
		for _, p := range pend {
			putEvent(p)
		}
		for _, spec := range []bool{false, true} {
			for _, in := range src.Insts(i, spec) {
				put(in.PC)
				put(in.Addr)
				put(uint64(in.Kind))
			}
		}
	}
	return h.Sum64()
}

// TestWorkloadImmutableUnderConcurrentReplay is the engine half of the
// service soak: many machines replaying one cached workload concurrently
// must leave it bit-identical (the serve layer relies on this to hand
// cache hits to every request) and must all produce the same result.
func TestWorkloadImmutableUnderConcurrentReplay(t *testing.T) {
	prof := testProfile(t)
	r := NewRunner()
	w := cellWorkload(t, r, prof, Config{MaxEvents: 48, MaxPending: specLookahead})
	before := workloadDigest(w)

	cfgs := []Config{
		{Name: "base", MaxEvents: 48},
		{Name: "esp-nl", NLI: true, NLD: true, Assist: AssistESP, ESP: core.DefaultOptions(), MaxEvents: 48},
		{Name: "ra", Assist: AssistRunahead, MaxEvents: 48},
	}
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := r.RunWorkload(context.Background(), "ref", w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	const lapsPerConfig = 8
	var wg sync.WaitGroup
	errs := make(chan error, len(cfgs)*lapsPerConfig)
	for i, cfg := range cfgs {
		for lap := 0; lap < lapsPerConfig; lap++ {
			wg.Add(1)
			go func(i int, cfg Config) {
				defer wg.Done()
				res, err := r.RunWorkload(context.Background(), "soak", w, cfg)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res, want[i]) {
					t.Errorf("%s: concurrent replay deviates from reference", cfg.Name)
				}
			}(i, cfg)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if after := workloadDigest(w); after != before {
		t.Fatalf("workload mutated by concurrent replays: digest %x -> %x", before, after)
	}
}

// TestTimedCellsReleaseTimers: a finished timed cell leaves nothing live
// behind it. espd runs every cell under a context with a timeout (two
// minutes by default), canceled once the cell returns; a timeout timer
// left running would pin its memory until it fired. The first batch
// warms the runner's pools and the runtime's caches; only what the
// second batch leaves live is measured, since warm-up garbage makes a
// single batch's delta unreliable.
func TestTimedCellsReleaseTimers(t *testing.T) {
	w := MaterializeSource("empty", &eventq.TraceSource{}, 0)
	r := NewRunner()
	batch := func(n int) {
		for i := 0; i < n; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
			_, err := r.RunWorkload(ctx, "timed", w, Config{Name: "base"})
			cancel()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	const cells = 1000
	batch(500)
	before := liveHeap()
	batch(cells)
	after := liveHeap()
	// The runner's pooled machine must count in both measurements.
	runtime.KeepAlive(r)
	if per := (after - before) / cells; per > 64 {
		t.Fatalf("each finished timed cell left %d B live, want at most 64", per)
	}
}

// TestRunWorkloadStopsOnContext: a cell whose context is done before
// its replay runs no event. An expired deadline fails it with
// ErrTimeout, a cancellation with an error wrapping context.Canceled;
// either way the cell is not counted and its machine is pooled again.
func TestRunWorkloadStopsOnContext(t *testing.T) {
	prof := testProfile(t)
	cfg := espConfig()
	r := NewRunner()
	w := cellWorkload(t, r, prof, Config{MaxEvents: 8, MaxPending: specLookahead})
	if _, err := r.RunWorkload(context.Background(), "warm", w, cfg); err != nil {
		t.Fatal(err)
	}

	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"expired", expired, ErrTimeout},
		{"canceled", canceled, context.Canceled},
	} {
		before := r.Perf()
		if _, err := r.RunWorkload(tc.ctx, "stopped", w, cfg); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err %v, want %v", tc.name, err, tc.want)
		}
		after := r.Perf()
		if after.Cells != before.Cells {
			t.Fatalf("%s: stopped cell counted: Cells %d -> %d", tc.name, before.Cells, after.Cells)
		}
		if after.MachineBuilds != 1 || after.MachineReuses != before.MachineReuses+1 {
			t.Fatalf("%s: machines %d built/%d reused, want the pooled machine reused", tc.name, after.MachineBuilds, after.MachineReuses)
		}
	}
	if _, err := r.RunWorkload(context.Background(), "after", w, cfg); err != nil {
		t.Fatal(err)
	}
	if p := r.Perf(); p.MachineBuilds != 1 || p.Cells != 2 {
		t.Fatalf("after the stopped cells: %d machines built, %d cells, want 1 and 2", p.MachineBuilds, p.Cells)
	}
}
