package sim

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"espsim/internal/trace"
	"espsim/internal/workload"
)

// TestWorkloadBytes: the footprint is positive, grows with the executed
// prefix, and counts the tape at its real size: the arena's arrays hold
// exactly the streams' encodings, with no append slack, its streams
// share one operand table, counted once, and the tape is most of the
// count.
func TestWorkloadBytes(t *testing.T) {
	prof := workload.Amazon()
	prof.Events = 48
	small, err := NewWorkload(prof, 16)
	if err != nil {
		t.Fatal(err)
	}
	large, err := NewWorkload(prof, 48)
	if err != nil {
		t.Fatal(err)
	}
	if small.Bytes() <= 0 {
		t.Fatalf("Bytes() = %d, want positive", small.Bytes())
	}
	if large.Bytes() <= small.Bytes() {
		t.Fatalf("48-event workload (%d B) not larger than 16-event (%d B)", large.Bytes(), small.Bytes())
	}
	// Every stream the build materialized, once each: diverging events
	// have their own speculative stream, and speculative streams run
	// past the executed prefix. A stream encoded alone carries an
	// operand table of its own, which is all an empty stream costs.
	table := trace.EncodeTape([]trace.Inst{}).Bytes()
	exact := table
	src := large.Source(0)
	for i := range large.spec {
		if i < large.nExec {
			exact += trace.EncodeTape(src.Insts(i, false)).Bytes() - table
			if large.events[i].Diverge < 0 {
				continue
			}
		}
		exact += trace.EncodeTape(src.Insts(i, true)).Bytes() - table
	}
	if got := large.tape.Bytes(); got != exact {
		t.Fatalf("tape holds %d bytes, its streams encode to %d", got, exact)
	}
	if b := large.Bytes(); b < exact || b > exact+exact/10 {
		t.Fatalf("Bytes() = %d, want the %d-byte tape plus under 10%% of tables", b, exact)
	}
}

// TestWorkloadBytesPerInst: a session costs at most 3 bytes per
// committed instruction, speculative streams and tables included; a
// tape of uint64 operands cost about 4.6, a []trace.Inst arena about
// 24.5.
func TestWorkloadBytesPerInst(t *testing.T) {
	for _, p := range smallSuite() {
		w, err := NewWorkload(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if per := float64(w.Bytes()) / float64(w.Insts()); per > 3 {
			t.Errorf("%s: %.2f bytes per committed instruction, want at most 3", p.Name, per)
		}
	}
}

// TestRunnerByteBudget: with a budget that fits roughly one workload,
// the cache evicts under pressure, live bytes never pass the budget,
// and every run still succeeds.
func TestRunnerByteBudget(t *testing.T) {
	r := NewRunner()
	profs := smallSuite()
	one := cellWorkload(t, r, profs[0], Config{})
	budget := one.Bytes() + one.Bytes()/2 // room for ~1.5 workloads
	r.SetWorkloadBudget(budget)

	for round := 0; round < 2; round++ {
		for _, p := range profs {
			if _, err := r.RunCell(context.Background(), p.Name, p, espConfig()); err != nil {
				t.Fatalf("run %s: %v", p.Name, err)
			}
			if live, _ := r.LiveBytes(); live > budget {
				t.Fatalf("live workloads take %d bytes, past the %d-byte budget", live, budget)
			}
		}
	}
	perf := r.Perf()
	if perf.WorkloadEvicts == 0 {
		t.Fatal("three workloads under a 1.5-workload budget evicted nothing")
	}
	if perf.Cells != 6 {
		t.Fatalf("completed %d cells, want 6", perf.Cells)
	}
}

// workloadSizes is the accounted size of each profile's full workload.
func workloadSizes(t *testing.T, profs []workload.Profile) []int64 {
	t.Helper()
	sizes := make([]int64, len(profs))
	for i, p := range profs {
		w, err := NewWorkload(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = w.Bytes()
	}
	return sizes
}

// holdDuringRun makes r's replays of app block in the fault hook until
// release is called, at the latest when the test ends, so a test can act
// while a cell holds app's workload; entered receives once per blocked
// replay.
func holdDuringRun(t *testing.T, r *Runner, app string) (entered <-chan struct{}, release func()) {
	in, out := make(chan struct{}), make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(out) }) }
	t.Cleanup(release)
	r.SetFaultHook(func(pt FaultPoint) error {
		if pt.Op == "run" && pt.App == app {
			select {
			case in <- struct{}{}:
				<-out
			case <-out:
			}
		}
		return nil
	})
	return in, release
}

// TestHeldWorkloadIsNotEvicted: while a cell replays a workload, neither
// the entry cap nor the byte budget evicts it, however many other
// workloads pass through the cache, and a second lookup of its key
// reuses it without building it again.
func TestHeldWorkloadIsNotEvicted(t *testing.T) {
	profs := smallSuite()
	sizes := workloadSizes(t, profs)
	for _, bound := range []string{"cap", "budget"} {
		t.Run(bound, func(t *testing.T) {
			r := NewRunner()
			if bound == "cap" {
				r.SetWorkloadCap(1)
			} else {
				r.SetWorkloadBudget(sizes[0] + max(sizes[1], sizes[2]))
			}
			entered, release := holdDuringRun(t, r, profs[0].Name)
			done := make(chan error)
			go func() {
				_, err := r.RunCell(context.Background(), "held", profs[0], espConfig())
				done <- err
			}()
			<-entered
			for _, p := range append(profs[1:], profs[1:]...) {
				if _, err := r.RunCell(context.Background(), p.Name, p, espConfig()); err != nil {
					t.Fatalf("run %s beside the held workload: %v", p.Name, err)
				}
			}
			held := r.Perf()
			cellWorkload(t, r, profs[0], espConfig())
			release()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			p := r.Perf()
			if p.WorkloadEvicts == 0 {
				t.Fatalf("the %s never evicted: %+v", bound, p)
			}
			if p.WorkloadBuilds != held.WorkloadBuilds || p.WorkloadReuses != held.WorkloadReuses+1 {
				t.Fatalf("a second lookup of the held workload built %d and reused %d, want 0 and 1",
					p.WorkloadBuilds-held.WorkloadBuilds, p.WorkloadReuses-held.WorkloadReuses)
			}
		})
	}
}

// TestRefusedBuildKeepsIdleWorkloads: a build that cannot fit the budget
// even with every idle workload evicted fails with ErrMemory and leaves
// the cache as it was; the idle workloads are still cached and live.
func TestRefusedBuildKeepsIdleWorkloads(t *testing.T) {
	profs := smallSuite()
	sizes := workloadSizes(t, profs[:2])
	budget := sizes[0] + sizes[1]
	r := NewRunner()
	r.SetWorkloadBudget(budget)
	for _, p := range profs[:2] {
		if _, err := r.RunCell(context.Background(), p.Name, p, espConfig()); err != nil {
			t.Fatal(err)
		}
	}
	large := profs[2]
	large.Events = 200
	for i := 0; i < 2; i++ {
		if _, err := r.RunCell(context.Background(), "large", large, espConfig()); !errors.Is(err, ErrMemory) {
			t.Fatalf("a workload past the whole budget: %v, want ErrMemory", err)
		}
	}
	if live, peak := r.LiveBytes(); live != budget || peak != budget {
		t.Fatalf("live %d, peak %d bytes after the refusals, want both %d", live, peak, budget)
	}
	before := r.Perf()
	for _, p := range profs[:2] {
		cellWorkload(t, r, p, espConfig())
	}
	p := r.Perf()
	if p.WorkloadEvicts != 0 || p.WorkloadBuilds != before.WorkloadBuilds || p.WorkloadBuilds != 4 {
		t.Fatalf("refused builds disturbed the cache: %+v, want 4 builds (2 refused) and no eviction", p)
	}
}

// TestRunWorkloadHoldsCallerWorkload: a workload the runner did not
// build counts as live only while RunWorkload replays it, once however
// many cells hold it, and one that does not fit the budget is refused.
func TestRunWorkloadHoldsCallerWorkload(t *testing.T) {
	prof := smallSuite()[0]
	w, err := NewWorkload(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	entered, release := holdDuringRun(t, r, prof.Name)
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := r.RunWorkload(context.Background(), "caller", w, espConfig())
			done <- err
		}()
		<-entered
	}
	if live, _ := r.LiveBytes(); live != w.Bytes() {
		t.Fatalf("two replays of a %d-byte workload count %d live bytes", w.Bytes(), live)
	}
	release()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if live, peak := r.LiveBytes(); live != 0 || peak != w.Bytes() {
		t.Fatalf("after the replays: live %d, peak %d bytes, want 0 and %d", live, peak, w.Bytes())
	}

	r.SetWorkloadBudget(w.Bytes() - 1)
	if _, err := r.RunWorkload(context.Background(), "caller", w, espConfig()); !errors.Is(err, ErrMemory) {
		t.Fatalf("a workload past the budget: %v, want ErrMemory", err)
	}
}

// TestIdleMachineHoldsNoWorkload: once a replay ends, the machine that
// ran it pins none of the workload's memory, whichever assist it was fit
// to: an ESP engine's slots drop their speculative stream positions
// with the workload.
func TestIdleMachineHoldsNoWorkload(t *testing.T) {
	prof := workload.Amazon()
	prof.Events = 200
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	m, err := NewMachine(espConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range fig9Configs() {
		if err := m.fit(cfg); err != nil {
			t.Fatal(err)
		}
		w, err := NewWorkload(prof, 0)
		if err != nil {
			t.Fatal(err)
		}
		size := w.Bytes()
		m.Run(w)
		held := heap()
		runtime.KeepAlive(w)
		if freed := held - heap(); freed < size*9/10 {
			t.Errorf("%s: dropping a %d-byte workload after its replay freed %d bytes, want at least 90%%", cfg.Name, size, freed)
		}
	}
	runtime.KeepAlive(m)
}
