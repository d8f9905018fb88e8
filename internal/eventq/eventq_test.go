package eventq

import (
	"testing"

	"espsim/internal/branch"
	"espsim/internal/cpu"
	"espsim/internal/mem"
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

type hookAssist struct {
	starts, ends []int
	pendings     [][]trace.Event
}

func (h *hookAssist) EventStart(ev trace.Event, pending []trace.Event) {
	h.starts = append(h.starts, ev.ID)
	h.pendings = append(h.pendings, pending)
}
func (h *hookAssist) EventEnd(ev trace.Event)            { h.ends = append(h.ends, ev.ID) }
func (h *hookAssist) OnInst(idx int) int                 { return idx + 1 }
func (h *hookAssist) CorrectBranch(int, trace.Inst) bool { return false }
func (h *hookAssist) OnStall(cpu.StallKind, int, trace.Cursor, int) bool {
	return false
}

func TestLooperRunsAllEvents(t *testing.T) {
	s := newSession(t)
	src := SessionSource{S: s}
	core := cpu.New(cpu.DefaultConfig(), mem.DefaultHierarchy(), branch.New())
	ha := &hookAssist{}
	core.Assist = ha
	l := Looper{Src: src, Core: core}
	cycles := l.Run()
	if cycles <= 0 {
		t.Fatal("no cycles simulated")
	}
	if len(ha.starts) != 24 || len(ha.ends) != 24 {
		t.Fatalf("hooks: %d starts %d ends", len(ha.starts), len(ha.ends))
	}
	for i := range ha.starts {
		if ha.starts[i] != i || ha.ends[i] != i {
			t.Fatal("events out of order")
		}
	}
	var want int64
	for _, ev := range s.Events {
		want += int64(ev.Len) + LooperOverhead
	}
	if core.Stats.Insts != want {
		t.Fatalf("Insts = %d, want %d (events + looper overhead)", core.Stats.Insts, want)
	}
}

func TestLooperMaxEvents(t *testing.T) {
	s := newSession(t)
	core := cpu.New(cpu.DefaultConfig(), mem.DefaultHierarchy(), branch.New())
	ha := &hookAssist{}
	core.Assist = ha
	l := Looper{Src: SessionSource{S: s}, Core: core, MaxEvents: 5}
	l.Run()
	if len(ha.starts) != 5 {
		t.Fatalf("MaxEvents ignored: %d events ran", len(ha.starts))
	}
}

func TestLooperPendingMatchesSession(t *testing.T) {
	s := newSession(t)
	core := cpu.New(cpu.DefaultConfig(), mem.DefaultHierarchy(), branch.New())
	ha := &hookAssist{}
	core.Assist = ha
	(&Looper{Src: SessionSource{S: s}, Core: core}).Run()
	for i, p := range ha.pendings {
		want := s.Pending(i)
		if len(p) != len(want) {
			t.Fatalf("event %d: pending %d, want %d", i, len(p), len(want))
		}
	}
}

func TestLooperDeterministic(t *testing.T) {
	run := func() int64 {
		s := newSession(t)
		core := cpu.New(cpu.DefaultConfig(), mem.DefaultHierarchy(), branch.New())
		return (&Looper{Src: SessionSource{S: s}, Core: core}).Run()
	}
	if run() != run() {
		t.Fatal("looper run not deterministic")
	}
}
