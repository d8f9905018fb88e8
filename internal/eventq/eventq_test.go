package eventq

import (
	"testing"

	"espsim/internal/trace"
	"espsim/internal/workload"
)

func newSession(t *testing.T) *workload.Session {
	t.Helper()
	p := workload.Pixlr()
	p.Events = 24
	s, err := workload.NewSession(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionSourceBasics(t *testing.T) {
	s := newSession(t)
	src := SessionSource{S: s}
	if src.Len() != 24 {
		t.Fatalf("Len = %d", src.Len())
	}
	ev := src.Event(3)
	if ev.ID != 3 {
		t.Fatalf("Event(3).ID = %d", ev.ID)
	}
	insts := src.Insts(3, false)
	if len(insts) != ev.Len {
		t.Fatalf("Insts length %d, want %d", len(insts), ev.Len)
	}
	if got := src.Pending(0); len(got) > 2 {
		t.Fatalf("Pending returned %d", len(got))
	}
}

func TestSessionSourceMaxPending(t *testing.T) {
	s := newSession(t)
	deep := SessionSource{S: s, MaxPending: 8}
	shallow := SessionSource{S: s}
	for i := 0; i < src0Len(s); i++ {
		if len(deep.Pending(i)) < len(shallow.Pending(i)) {
			t.Fatal("deeper view returned fewer events")
		}
	}
}

func src0Len(s *workload.Session) int { return len(s.Events) }

func TestTraceSource(t *testing.T) {
	events := []trace.EventTrace{
		{Event: trace.Event{ID: 0, Len: 2}, Insts: []trace.Inst{{PC: 4}, {PC: 8}}},
		{Event: trace.Event{ID: 1, Len: 1}, Insts: []trace.Inst{{PC: 16}}},
		{Event: trace.Event{ID: 2, Len: 1}, Insts: []trace.Inst{{PC: 32}}},
	}
	src := &TraceSource{Events: events}
	if src.Len() != 3 {
		t.Fatalf("Len = %d", src.Len())
	}
	if got := src.Pending(0); len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("Pending(0) = %+v", got)
	}
	if got := src.Pending(2); len(got) != 0 {
		t.Fatalf("Pending(last) = %+v", got)
	}
	if len(src.Insts(0, true)) != 2 {
		t.Fatal("Insts broken")
	}
}
