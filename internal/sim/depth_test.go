package sim

import (
	"context"
	"testing"

	"espsim/internal/eventq"
	"espsim/internal/workload"
)

// specOnly counts the speculative streams a workload holds past its
// executed prefix.
func specOnly(w *Workload) int { return len(w.spec) - w.nExec }

// TestBoundedWorkloadKeepsViewDepth: a Runner builds a bounded cell's
// workload only as deep as its MaxPending reads. bing at max_events 4
// needs at most 2 speculative-only streams at the hardware queue's depth
// 2, fewer than with every view kept 8 deep, keeps only the events its
// streams cover, and holds fewer bytes. MaxPending 0 and 2 read the same
// depth, as do 8 and 12, and share a workload. An unbounded replay runs
// every event, and a timed session's views name only executed events,
// so one unbounded workload, and one bounded timed workload, serves
// every MaxPending.
func TestBoundedWorkloadKeepsViewDepth(t *testing.T) {
	prof, err := workload.ByName("bing")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	get := func(maxEvents, maxPending int) *Workload {
		t.Helper()
		w, err := r.WorkloadSched(prof, maxEvents, eventq.SchedFIFO, maxPending)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	shallow, deep := get(4, 0), get(4, 8)
	if n := specOnly(shallow); n > 2 || n >= specOnly(deep) {
		t.Errorf("speculative-only streams: %d at depth 2, %d at depth 8; want at most 2 and fewer than at depth 8", n, specOnly(deep))
	}
	if len(shallow.events) != len(shallow.spec) {
		t.Errorf("depth 2 keeps %d events for a %d-event horizon", len(shallow.events), len(shallow.spec))
	}
	if shallow.Bytes() >= deep.Bytes() {
		t.Errorf("depth 2 holds %d bytes, depth 8 %d; want fewer", shallow.Bytes(), deep.Bytes())
	}
	if get(4, 2) != shallow || get(4, 12) != deep {
		t.Error("cells that read the same depth did not share a workload")
	}
	unbounded := get(0, 0)
	timed := workload.MobileWeb()
	tw, err := r.WorkloadSched(timed, 4, eventq.SchedEDF, 0)
	if err != nil {
		t.Fatal(err)
	}
	for maxPending := 1; maxPending <= 9; maxPending++ {
		if get(0, maxPending) != unbounded {
			t.Fatalf("unbounded workload rebuilt for MaxPending %d", maxPending)
		}
		if w, err := r.WorkloadSched(timed, 4, eventq.SchedEDF, maxPending); err != nil || w != tw {
			t.Fatalf("bounded timed workload rebuilt for MaxPending %d (err %v)", maxPending, err)
		}
	}
	if b := r.Perf().WorkloadBuilds; b != 4 {
		t.Errorf("%d workload builds, want 4 (depth 2, depth 8, unbounded, timed)", b)
	}
}

// TestShallowWorkloadRefusesDeeperReplay: RunWorkload refuses, with an
// error and not a panic, a workload that keeps shallower queue views
// than the config's MaxPending reads, and still replays it at or under
// its depth. A Source view of it under any MaxPending hands out every
// view, and the streams they name, without panicking.
func TestShallowWorkloadRefusesDeeperReplay(t *testing.T) {
	prof, err := workload.ByName("bing")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	w, err := r.WorkloadSched(prof, 4, eventq.SchedFIFO, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := espConfig()
	cfg.MaxEvents = 4
	for maxPending := 0; maxPending <= 10; maxPending++ {
		cfg.MaxPending = maxPending
		_, err := r.RunWorkload(context.Background(), "depth", w, cfg)
		if wantErr := viewDepth(maxPending) > 2; (err != nil) != wantErr {
			t.Errorf("MaxPending %d on a depth-2 workload: err = %v, want error %v", maxPending, err, wantErr)
		}
		src := w.Source(maxPending)
		for i := 0; i < src.Len(); i++ {
			src.Insts(i, false)
			for _, ev := range src.Pending(i) {
				src.Insts(ev.ID, true)
			}
		}
	}
}
