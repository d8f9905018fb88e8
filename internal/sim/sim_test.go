package sim

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"espsim/internal/core"
	"espsim/internal/cpu"
	"espsim/internal/eventq"
	"espsim/internal/trace"
	"espsim/internal/workload"
)

func testProfile(t *testing.T) workload.Profile {
	t.Helper()
	prof := workload.Amazon()
	prof.Events = 60
	return prof
}

func espConfig() Config {
	return Config{Name: "esp-nl", NLI: true, NLD: true, Assist: AssistESP}
}

// espDesigns are the ESP design points whose engines own more than the
// default's slots: BPReplicate a predictor replica per slot, Ideal
// 4 MiB cachelets, IdleCore 32 KB cachelets in both modes, and depth 8
// nine slots.
func espDesigns() []Config {
	design := func(name string, opt core.Options) Config {
		c := espConfig()
		c.Name, c.ESP = name, opt
		return c
	}
	rep, ideal, deep := core.DefaultOptions(), core.DefaultOptions(), core.DefaultOptions()
	rep.BPMode = core.BPReplicate
	ideal.Ideal = true
	deep.JumpDepth = 8
	d8 := design("esp-depth8", deep)
	d8.MaxPending = 8
	return []Config{design("esp-replicate", rep), design("esp-ideal", ideal), design("esp-idlecore", core.IdleCoreOptions()), d8}
}

// TestWorkloadMatchesSessionSource checks that a materialized workload's
// Source view is observationally identical to the on-demand
// eventq.SessionSource it replaces, including speculative streams beyond
// the executed prefix and MaxPending trimming.
func TestWorkloadMatchesSessionSource(t *testing.T) {
	prof := testProfile(t)
	sess, err := workload.NewSession(prof)
	if err != nil {
		t.Fatal(err)
	}
	const maxEvents = 48
	w, err := NewWorkload(prof, maxEvents)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxPending := range []int{0, 5} {
		ss := eventq.SessionSource{S: sess, MaxPending: maxPending}
		view := w.Source(maxPending)
		if got := view.Len(); got != maxEvents {
			t.Fatalf("Len() = %d, want %d", got, maxEvents)
		}
		for i := 0; i < view.Len(); i++ {
			if got, want := view.Event(i), ss.Event(i); got != want {
				t.Fatalf("Event(%d) = %+v, want %+v", i, got, want)
			}
			if got, want := view.Insts(i, false), ss.Insts(i, false); !reflect.DeepEqual(got, want) {
				t.Fatalf("Insts(%d, false) differs", i)
			}
			if got, want := view.Insts(i, true), ss.Insts(i, true); !reflect.DeepEqual(got, want) {
				t.Fatalf("Insts(%d, true) differs", i)
			}
			got, want := view.Pending(i), ss.Pending(i)
			if len(got) != len(want) {
				t.Fatalf("Pending(%d) len = %d, want %d (maxPending %d)", i, len(got), len(want), maxPending)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("Pending(%d)[%d] = %+v, want %+v", i, j, got[j], want[j])
				}
			}
			// Every pending event must have a speculative stream.
			for _, ev := range got {
				if s, wantS := view.Insts(ev.ID, true), ss.Insts(ev.ID, true); !reflect.DeepEqual(s, wantS) {
					t.Fatalf("spec Insts(%d) for pending event differs", ev.ID)
				}
			}
		}
	}
}

// TestMachineReuseBitIdentical checks the Reset contract: a machine that
// already ran a workload replays it with results identical to a freshly
// assembled machine's.
func TestMachineReuseBitIdentical(t *testing.T) {
	prof := testProfile(t)
	w, err := NewWorkload(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Name: "base"},
		{Name: "nls", NLI: true, NLD: true, StridePF: true},
		{Name: "ra", NLI: true, NLD: true, Assist: AssistRunahead},
		espConfig(),
	} {
		fresh, err := NewMachine(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		want := fresh.Run(w)

		reused, err := NewMachine(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		reused.Run(w) // dirty the machine
		if got := reused.Run(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: reused machine diverged from fresh machine\ngot  %+v\nwant %+v", cfg.Name, got, want)
		}
	}
}

// replayRecorder is an assist that only watches: it records each event
// a replay announces, the queue view EventStart hands over, and the
// instructions the core retires between EventStart and EventEnd.
type replayRecorder struct {
	core         *cpu.Core
	starts, ends []trace.Event
	views        [][]trace.Event
	retired      []int64
	startInsts   int64
}

func (r *replayRecorder) EventStart(ev trace.Event, pending []trace.Event) {
	r.starts = append(r.starts, ev)
	r.views = append(r.views, pending)
	r.startInsts = r.core.Stats.Insts
}

func (r *replayRecorder) EventEnd(ev trace.Event) {
	r.ends = append(r.ends, ev)
	r.retired = append(r.retired, r.core.Stats.Insts-r.startInsts)
}

func (r *replayRecorder) OnInst(int) int                     { return math.MaxInt }
func (r *replayRecorder) CorrectBranch(int, trace.Inst) bool { return false }
func (r *replayRecorder) OnStall(cpu.StallKind, int, trace.Cursor, int) bool {
	return false
}

// TestReplayLoop pins the looper: a replay announces each executed event
// in order to EventStart and EventEnd, hands EventStart exactly the
// queue view w.Source(MaxPending) reports (nil-ness included), retires
// each event's stream plus the looper's queue-management instructions,
// and stops after MaxEvents events. A session workload's views are
// trimmed to MaxPending; the generic source's nil, empty and
// out-of-order views must arrive as the source gave them.
func TestReplayLoop(t *testing.T) {
	sess, err := NewWorkload(testProfile(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	generic := MaterializeSource("generic", newGenericSource(t), 0)
	for _, w := range []*Workload{sess, generic} {
		for _, maxPending := range []int{0, 5} {
			for _, maxEvents := range []int{0, 7} {
				m, err := NewMachine(Config{Name: "base", MaxEvents: maxEvents, MaxPending: maxPending})
				if err != nil {
					t.Fatal(err)
				}
				rec := &replayRecorder{core: m.c}
				m.c.Assist = rec
				m.Replay(w)

				src := w.Source(maxPending)
				n := src.Len()
				if maxEvents > 0 {
					n = maxEvents // both workloads are longer
				}
				name := fmt.Sprintf("%s max_pending %d max_events %d", w.App, maxPending, maxEvents)
				if len(rec.starts) != n || len(rec.ends) != n {
					t.Fatalf("%s: %d starts and %d ends, want %d", name, len(rec.starts), len(rec.ends), n)
				}
				for i := 0; i < n; i++ {
					ev := src.Event(i)
					if rec.starts[i] != ev || rec.ends[i] != ev {
						t.Fatalf("%s: event %d announced as %+v / %+v, want %+v", name, i, rec.starts[i], rec.ends[i], ev)
					}
					if want := src.Pending(i); !reflect.DeepEqual(rec.views[i], want) {
						t.Fatalf("%s: event %d saw queue view %+v (nil %v), want %+v (nil %v)",
							name, i, rec.views[i], rec.views[i] == nil, want, want == nil)
					}
					if want := int64(len(src.Insts(i, false)) + eventq.LooperOverhead); rec.retired[i] != want {
						t.Fatalf("%s: event %d retired %d instructions, want %d", name, i, rec.retired[i], want)
					}
				}
			}
		}
	}
}

// TestRunnerSharesWorkloadsAndMachines checks the reuse counters: two
// configs over one profile materialize the workload once, and one
// caller's cells all run on one pooled machine, fit to each config in
// turn.
func TestRunnerSharesWorkloadsAndMachines(t *testing.T) {
	prof := testProfile(t)
	r := NewRunner()
	cfgs := []Config{{Name: "base"}, espConfig()}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for round := 0; round < 2; round++ {
		for _, cfg := range cfgs {
			if _, err := r.RunCell(ctx, "test", prof, cfg); err != nil {
				t.Fatalf("round %d, %s: %v", round, cfg.Name, err)
			}
		}
	}
	p := r.Perf()
	if p.Cells != 4 {
		t.Fatalf("Cells = %d, want 4", p.Cells)
	}
	if p.WorkloadBuilds != 1 || p.WorkloadReuses != 3 {
		t.Fatalf("workloads = %d built/%d reused, want 1/3", p.WorkloadBuilds, p.WorkloadReuses)
	}
	if p.MachineBuilds != 1 || p.MachineReuses != 3 {
		t.Fatalf("machines = %d built/%d reused, want 1/3", p.MachineBuilds, p.MachineReuses)
	}
}

// TestRunnerIdenticalAcrossPaths checks that a pooled Runner cell equals
// a one-shot machine run.
func TestRunnerIdenticalAcrossPaths(t *testing.T) {
	prof := testProfile(t)
	cfg := espConfig()
	w, err := NewWorkload(prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Run(w)

	r := NewRunner()
	for i := 0; i < 2; i++ {
		got, err := r.RunCell(context.Background(), "cell", prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("runner cell %d diverged from direct machine run", i)
		}
	}
}

// TestRunnerSlotReplaysEachShape: one caller's cells share one pooled
// machine whatever their configs — hardware, Name, Sched, MaxEvents and
// MaxPending alike — and every result, its Config label included, equals
// a fresh machine's, also when the same slot alternates between configs
// and session lengths.
func TestRunnerSlotReplaysEachShape(t *testing.T) {
	timed := workload.MobileWeb()
	timed.Events = 24
	deep := espConfig()
	deep.Name, deep.ESP = "esp-deep", core.DefaultOptions()
	deep.ESP.JumpDepth = 8
	wide := deep
	wide.Name, wide.MaxPending = "esp-deep-wide", 8
	groups := []struct {
		prof workload.Profile
		cfgs []Config
	}{
		{timed, []Config{{Name: "base"}, {Name: "base@edf", Sched: eventq.SchedEDF}}},
		{testProfile(t), []Config{deep, wide, {Name: "ra-nl", NLI: true, NLD: true, Assist: AssistRunahead}, espConfig()}},
	}
	r := NewRunner()
	got := map[string]Result{}
	for _, group := range groups {
		prof := group.prof
		for round := 0; round < 2; round++ {
			for _, cfg := range group.cfgs {
				for _, maxEvents := range []int{4, 0} {
					cfg.MaxEvents = maxEvents
					res, err := r.RunCell(context.Background(), cfg.Name, prof, cfg)
					if err != nil {
						t.Fatal(err)
					}
					w, err := NewWorkloadSched(prof, cfg.MaxEvents, cfg.Sched)
					if err != nil {
						t.Fatal(err)
					}
					m, err := NewMachine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if want := m.Run(w); !reflect.DeepEqual(res, want) {
						t.Fatalf("%s at max_events %d: pooled result differs from a fresh machine's\ngot  %+v\nwant %+v",
							cfg.Name, maxEvents, res, want)
					}
					if maxEvents == 0 {
						got[cfg.Name] = res
					}
				}
			}
		}
	}
	if builds := r.Perf().MachineBuilds; builds != 1 {
		t.Fatalf("one caller's cells built %d machines, want 1", builds)
	}
	if got["esp-deep"].Cycles == got["esp-deep-wide"].Cycles {
		t.Fatal("MaxPending 8 replays like 2: the test cannot see a per-run queue view")
	}
}

// TestMaterializeGenericSource checks the copy path: a multi-queue
// source replays identically whether driven directly or materialized.
func TestMaterializeGenericSource(t *testing.T) {
	profs := []workload.Profile{workload.Amazon(), workload.Bing()}
	var sessions []*workload.Session
	for _, p := range profs {
		p.Events = 40
		s, err := workload.NewSession(p)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	src, err := eventq.NewMultiQueueSource(sessions, 7, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := espConfig()

	direct, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := MaterializeSource("mq", src, 0)
	got := direct.Run(w)

	view := w.Source(0)
	for i := 0; i < view.Len(); i++ {
		if !reflect.DeepEqual(view.Insts(i, false), src.Insts(i, false)) {
			t.Fatalf("normal stream %d differs from source", i)
		}
		if !reflect.DeepEqual(view.Pending(i), src.Pending(i)) {
			t.Fatalf("pending %d differs from source", i)
		}
	}
	if got.Insts == 0 || got.Cycles == 0 {
		t.Fatalf("implausible result: %+v", got)
	}
}

// TestRunnerPanicDropsMachine checks panic containment: the error names
// the cell and the poisoned machine is not pooled.
func TestRunnerPanicDropsMachine(t *testing.T) {
	r := NewRunner()
	m, err := NewMachine(Config{Name: "base"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.simulate(context.Background(), "boom-cell", m, nil) // nil workload panics in replay
	if err == nil || !strings.Contains(err.Error(), "boom-cell") || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v, want panic error naming the cell", err)
	}
	r.mu.Lock()
	pooled := len(r.idle)
	r.mu.Unlock()
	if pooled != 0 {
		t.Fatalf("panicked machine was returned to the pool")
	}
}
