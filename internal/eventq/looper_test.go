package eventq_test

import (
	"reflect"
	"testing"

	"espsim/internal/eventq"
	"espsim/internal/sim"
	"espsim/internal/workload"
)

// The looper thread is sim.Machine.replay. These tests replay an
// eventq.SessionSource through it and check the looper contract this
// package states: events run in order, each retires its stream plus
// LooperOverhead instructions, MaxEvents bounds the replay, and the queue
// views follow the session's. TestReplayLoop (internal/sim) checks the
// announcements and views an assist receives per event.

func looperSession(t *testing.T) *workload.Session {
	t.Helper()
	p := workload.Pixlr()
	p.Events = 24
	s, err := workload.NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// looperInsts is the instruction count a replay of s's first n events
// retires.
func looperInsts(s *workload.Session, n int) int64 {
	var want int64
	for _, ev := range s.Events[:n] {
		want += int64(ev.Len) + eventq.LooperOverhead
	}
	return want
}

func baseMachine(t *testing.T, maxEvents, maxPending int) *sim.Machine {
	t.Helper()
	m, err := sim.NewMachine(sim.Config{Name: "base", MaxEvents: maxEvents, MaxPending: maxPending})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLooperRunsAllEvents(t *testing.T) {
	s := looperSession(t)
	src := eventq.SessionSource{S: s}
	w := sim.MaterializeSource("pixlr", src, 0)
	if w.Events() != 24 {
		t.Fatalf("replay executes %d events, want 24", w.Events())
	}
	view := w.Source(0)
	for i := 0; i < src.Len(); i++ {
		if view.Event(i) != src.Event(i) {
			t.Fatal("events out of order")
		}
	}
	res := baseMachine(t, 0, 0).Run(w)
	if res.Cycles <= 0 {
		t.Fatal("no cycles simulated")
	}
	if want := looperInsts(s, len(s.Events)); res.Insts != want {
		t.Fatalf("Insts = %d, want %d (events + looper overhead)", res.Insts, want)
	}
}

func TestLooperMaxEvents(t *testing.T) {
	s := looperSession(t)
	want := looperInsts(s, 5)
	// The machine's bound cuts a longer workload's replay...
	full := sim.MaterializeSource("pixlr", eventq.SessionSource{S: s}, 0)
	if got := baseMachine(t, 5, 0).Run(full).Insts; got != want {
		t.Fatalf("MaxEvents 5 machine retired %d instructions, want %d (5 events)", got, want)
	}
	// ...and a workload built under the bound replays only its prefix.
	short := sim.MaterializeSource("pixlr", eventq.SessionSource{S: s}, 5)
	if got := baseMachine(t, 0, 0).Run(short).Insts; got != want {
		t.Fatalf("5-event workload retired %d instructions, want %d", got, want)
	}
}

// TestLooperPendingMatchesSession checks that a materialized session
// keeps the session's queue views: a replay under MaxPending n sees
// exactly what SessionSource{MaxPending: n} reports, so a view wider
// than the default two entries still widens.
func TestLooperPendingMatchesSession(t *testing.T) {
	s := looperSession(t)
	w := sim.MaterializeSource("pixlr", eventq.SessionSource{S: s}, 0)
	for _, maxPending := range []int{0, 5} {
		view := w.Source(maxPending)
		ss := eventq.SessionSource{S: s, MaxPending: maxPending}
		for i := 0; i < ss.Len(); i++ {
			if got, want := view.Pending(i), ss.Pending(i); !reflect.DeepEqual(got, want) {
				t.Fatalf("max_pending %d, event %d: pending %+v, want %+v", maxPending, i, got, want)
			}
		}
	}
}
