package sim

import (
	"context"
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
// the cache evicts under pressure, the accounted footprint stays at or
// below budget once builds settle, and every run still succeeds.
func TestRunnerByteBudget(t *testing.T) {
	r := NewRunner()
	profs := smallSuite()
	one, err := r.Workload(profs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	budget := one.Bytes() + one.Bytes()/2 // room for ~1.5 workloads
	r.SetWorkloadBudget(budget)

	for round := 0; round < 2; round++ {
		for _, p := range profs {
			if _, err := r.RunCell(context.Background(), p.Name, p, espConfig()); err != nil {
				t.Fatalf("run %s: %v", p.Name, err)
			}
			if got := r.CacheBytes(); got > budget {
				t.Fatalf("cache footprint %d exceeds budget %d", got, budget)
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

// TestRunnerCacheAdmit: with admission off, misses build uncached
// (counted as bypasses, no reuse, footprint flat) while already-cached
// entries keep serving; turning admission back on restores caching.
func TestRunnerCacheAdmit(t *testing.T) {
	r := NewRunner()
	profs := smallSuite()
	if _, err := r.Workload(profs[0], 0); err != nil {
		t.Fatal(err)
	}
	cached := r.CacheBytes()
	if cached <= 0 {
		t.Fatalf("cached build accounted %d bytes", cached)
	}

	r.SetCacheAdmit(false)
	for i := 0; i < 2; i++ {
		if _, err := r.Workload(profs[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.CacheBytes(); got != cached {
		t.Fatalf("bypass builds grew the cache: %d -> %d", cached, got)
	}
	perf := r.Perf()
	if perf.WorkloadBypasses != 2 {
		t.Fatalf("counted %d bypasses, want 2", perf.WorkloadBypasses)
	}
	// The cached entry still serves while admission is off.
	if _, err := r.Workload(profs[0], 0); err != nil {
		t.Fatal(err)
	}
	if got := r.Perf().WorkloadReuses; got != 1 {
		t.Fatalf("cached entry reused %d times under brownout, want 1", got)
	}

	r.SetCacheAdmit(true)
	if _, err := r.Workload(profs[1], 0); err != nil {
		t.Fatal(err)
	}
	if got := r.CacheBytes(); got <= cached {
		t.Fatalf("cache did not grow after admission restored: %d", got)
	}
}

// TestTrimWorkloadCache: trimming evicts LRU-first down to the target,
// and a workload handed out before the trim stays usable (immutability
// makes eviction safe mid-replay).
func TestTrimWorkloadCache(t *testing.T) {
	r := NewRunner()
	profs := smallSuite()
	for _, p := range profs {
		if _, err := r.Workload(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	w, err := r.Workload(profs[2], 0) // most recently used
	if err != nil {
		t.Fatal(err)
	}
	full := r.CacheBytes()
	target := w.Bytes() // room for exactly the MRU entry
	r.TrimWorkloadCache(target)
	if got := r.CacheBytes(); got > target || got == full {
		t.Fatalf("trim left %d of %d bytes, target %d", got, full, target)
	}
	if got := r.Perf().WorkloadEvicts; got == 0 {
		t.Fatal("trim evicted nothing")
	}
	// The surviving entry should be the most recently used one.
	if _, err := r.Workload(profs[2], 0); err != nil {
		t.Fatal(err)
	}
	if got := r.Perf().WorkloadReuses; got < 2 {
		t.Fatalf("MRU entry did not survive the trim (reuses %d)", got)
	}
	// Evicted-but-held workloads still replay.
	if _, err := r.RunWorkload(context.Background(), "held", w, espConfig()); err != nil {
		t.Fatalf("replay of held workload after trim: %v", err)
	}

	r.TrimWorkloadCache(0)
	if got := r.CacheBytes(); got != 0 {
		t.Fatalf("full trim left %d bytes", got)
	}
}
