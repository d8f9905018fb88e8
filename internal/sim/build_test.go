package sim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"espsim/internal/core"
	"espsim/internal/eventq"
	"espsim/internal/trace"
	"espsim/internal/workload"
)

// recordTrace records the first n events of prof's session as a trace
// source: each event with its normal stream, which a recorded trace
// also hands back as the speculative one.
func recordTrace(t testing.TB, prof workload.Profile, n int) *eventq.TraceSource {
	t.Helper()
	sess, err := workload.NewSession(prof)
	if err != nil {
		t.Fatal(err)
	}
	evs := make([]trace.EventTrace, n)
	for i, ev := range sess.Events[:n] {
		evs[i] = trace.EventTrace{Event: ev, Insts: trace.Record(sess.Gen.Stream(ev, false), ev.Len)}
	}
	return &eventq.TraceSource{Events: evs}
}

// sameSource fails unless a and b hand out the same events, queue
// views (nil-ness included) and streams.
func sameSource(t *testing.T, name string, a, b eventq.Source) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d events vs %d", name, a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Event(i) != b.Event(i) {
			t.Fatalf("%s: Event(%d) = %+v vs %+v", name, i, a.Event(i), b.Event(i))
		}
		if !reflect.DeepEqual(a.Pending(i), b.Pending(i)) {
			t.Fatalf("%s: Pending(%d) = %v vs %v", name, i, a.Pending(i), b.Pending(i))
		}
		for _, spec := range []bool{false, true} {
			if !reflect.DeepEqual(a.Insts(i, spec), b.Insts(i, spec)) {
				t.Fatalf("%s: Insts(%d, %v) differ", name, i, spec)
			}
		}
	}
}

// TestFIFOConstructorsMatchSched: NewWorkload and MaterializeSource are
// their Sched constructors under FIFO, so a timed input is laid out in
// dispatch order whichever entry point builds it. The mobileweb session,
// a SessionSource over it and a trace recorded from it each replay to
// the same Result under base and ESP+NL, schedule stats included, and
// hand out the same queue views; the SessionSource builds as the
// session itself.
func TestFIFOConstructorsMatchSched(t *testing.T) {
	prof := workload.MobileWeb()
	const maxEvents = 40
	sess, err := workload.NewSession(prof)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewWorkload(prof, maxEvents)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewWorkloadSched(prof, maxEvents, eventq.SchedFIFO)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		name string
		a, b *Workload
	}
	pairs := []pair{{"session", plain, sched}}
	for _, in := range []struct {
		name string
		src  eventq.Source
	}{
		{"session source", eventq.SessionSource{S: sess}},
		{"trace", recordTrace(t, prof, maxEvents)},
	} {
		b, err := MaterializeSourceSched(prof.Name, in.src, maxEvents, eventq.SchedFIFO)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pair{in.name, MaterializeSource(prof.Name, in.src, maxEvents), b})
	}
	pairs = append(pairs, pair{"session vs session source", sched, pairs[1].b})

	for _, cfg := range []Config{{Name: "base"}, espConfig()} {
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			ra, rb := m.Run(p.a), m.Run(p.b)
			if ra.Sched == nil {
				t.Errorf("%s %s: a timed input replays without schedule stats", p.name, cfg.Name)
			}
			if !reflect.DeepEqual(ra, rb) {
				t.Errorf("%s %s: results differ: %d vs %d cycles", p.name, cfg.Name, ra.Cycles, rb.Cycles)
			}
		}
	}
	for _, p := range pairs {
		sameSource(t, p.name, p.a.Source(0), p.b.Source(0))
	}
}

// TestUntimedPolicyMatchesFIFO: an untimed input orders identically
// under every policy, so an untimed session and an untimed trace each
// build under edf exactly as under FIFO, keep their own queue views,
// and only gain the schedule's stats.
func TestUntimedPolicyMatchesFIFO(t *testing.T) {
	prof := workload.Amazon()
	const maxEvents = 12
	tr := recordTrace(t, prof, maxEvents)
	build := map[string]func(eventq.SchedPolicy) (*Workload, error){
		"session": func(p eventq.SchedPolicy) (*Workload, error) { return NewWorkloadSched(prof, maxEvents, p) },
		"trace":   func(p eventq.SchedPolicy) (*Workload, error) { return MaterializeSourceSched("trace", tr, 0, p) },
	}
	fifoM, err := NewMachine(espConfig())
	if err != nil {
		t.Fatal(err)
	}
	edfCfg := espConfig()
	edfCfg.Name, edfCfg.Sched = "esp-nl@edf", eventq.SchedEDF
	edfM, err := NewMachine(edfCfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range build {
		fifo, err := b(eventq.SchedFIFO)
		if err != nil {
			t.Fatal(err)
		}
		edf, err := b(eventq.SchedEDF)
		if err != nil {
			t.Fatal(err)
		}
		if st := fifo.Sched(); st != nil {
			t.Errorf("%s: untimed FIFO build carries schedule stats %+v", name, st)
		}
		if st := edf.Sched(); st == nil || st.Policy != "edf" || st.Events != maxEvents {
			t.Errorf("%s: edf build's schedule stats %+v, want policy edf over %d events", name, st, maxEvents)
		}
		want, got := fifoM.Run(fifo), edfM.Run(edf)
		want.Config, got.Config = "", ""
		want.Sched, got.Sched = nil, nil
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: edf build replays to %d cycles, FIFO build to %d", name, got.Cycles, want.Cycles)
		}
		sameSource(t, name, fifo.Source(0), edf.Source(0))
	}
}

// TestSourceViewOutsideSource: an event's ID is its position in its
// source, so a queue view naming any other ID — past the end, or
// negative as a uvarint past 2^63 decodes — is a build error naming the
// event and the ID, not an index out of range when ESP pre-executes it.
func TestSourceViewOutsideSource(t *testing.T) {
	tr := recordTrace(t, workload.Amazon(), 12)
	for _, id := range []int{1000, 12, -1, math.MinInt} {
		tr.Events[2].Event.ID = id
		// TraceSource shows the next two events: event 0's view is the
		// first to name event 2.
		want := fmt.Sprintf("event 0's queue view names event %d", id)
		for _, policy := range []eventq.SchedPolicy{eventq.SchedFIFO, eventq.SchedEDF} {
			w, err := MaterializeSourceSched("trace", tr, 0, policy)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("ID %d under %v: workload %v, error %v; want an error containing %q", id, policy, w != nil, err, want)
			}
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
					t.Fatalf("ID %d: MaterializeSource recovered %v, want a panic containing %q", id, r, want)
				}
			}()
			MaterializeSource("trace", tr, 0)
		}()
	}
}

// FuzzSourceWorkload drives the source → workload → replay path with
// hostile sources: fuzz bytes shape a small generic source over a real
// session's streams, choosing the policy, the executed prefix, and for
// each event its ID (negative and out of range included), its arrival,
// class, priority and deadline, and its queue view (nil, or up to
// three events of the source). The build may refuse a source with an
// error; neither it nor a replay on Runahead+NL or ESP+NL may panic.
func FuzzSourceWorkload(f *testing.F) {
	prof := workload.Amazon()
	prof.Events = 8
	sess, err := workload.NewSession(prof)
	if err != nil {
		f.Fatal(err)
	}
	// Short streams keep each exec fast; a cold machine still stalls on
	// them, which is when both assists pre-execute.
	const streamLen = 256
	var norm, spec [][]trace.Inst
	for _, ev := range sess.Events {
		n := trace.Record(sess.Gen.Stream(ev, false), streamLen)
		s := n
		if ev.Diverge >= 0 {
			s = trace.Record(sess.Gen.Stream(ev, true), streamLen)
		}
		norm, spec = append(norm, n), append(spec, s)
	}
	var machines []*Machine
	for _, cfg := range []Config{
		{Name: "Runahead+NL", NLI: true, NLD: true, Assist: AssistRunahead, MaxPending: 3},
		{Name: "ESP+NL", NLI: true, NLD: true, Assist: AssistESP, ESP: core.DefaultOptions(), MaxPending: 3},
	} {
		m, err := NewMachine(cfg)
		if err != nil {
			f.Fatal(err)
		}
		machines = append(machines, m)
	}

	// An input is a policy byte, a max-events byte, then four bytes per
	// event: its ID's offset from its position, arrival and class,
	// deadline and priority, and its view (the low two bits its length,
	// 3 meaning nil; the rest how far past the event it starts).
	valid := []byte{
		0, 0,
		0, 0, 0, 2, // event 0 sees events 1 and 2
		0, 0, 0, 2,
		0, 0, 0, 1,
		0, 0, 0, 3,
	}
	f.Add(valid)
	outside := append([]byte(nil), valid...)
	outside[2+2*4] = 100 // event 2's ID is 102
	f.Add(outside)
	negative := append([]byte(nil), valid...)
	negative[2+1*4] = 0xFE // event 1's ID is -1
	f.Add(negative)
	f.Add([]byte{2, 3, 0, 0x41, 0x25, 2, 1, 0x09, 0x13, 1, 2, 0x02, 0, 0, 3, 0, 0, 0}) // timed, edf
	f.Add([]byte{byte(eventq.NumSchedPolicies), 0, 0, 0, 0, 0})                        // invalid policy
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		policy := eventq.SchedPolicy(data[0] % (eventq.NumSchedPolicies + 1))
		maxEvents := int(data[1] % 8)
		data = data[2:]
		n := min(len(data)/4, len(norm))
		src := &genericSource{}
		for i := 0; i < n; i++ {
			b := data[4*i:]
			src.evs = append(src.evs, trace.Event{
				ID:       i + int(int8(b[0])),
				Handler:  sess.Events[i].Handler,
				Len:      len(norm[i]),
				Diverge:  sess.Events[i].Diverge,
				Arrival:  int64(b[1]>>3) * 400,
				Class:    trace.EventClass(b[1] % (trace.NumEventClasses + 1)),
				Deadline: int64(b[2]>>2) * 1000,
				Prio:     b[2] & 3,
			})
			src.norm, src.spec = append(src.norm, norm[i]), append(src.spec, spec[i])
		}
		for i := 0; i < n; i++ {
			b := data[4*i+3]
			var view []trace.Event
			if l := int(b & 3); l < 3 {
				view = []trace.Event{}
				for j := 0; j < l; j++ {
					view = append(view, src.evs[(i+1+j+int(b>>2))%n])
				}
			}
			src.pend = append(src.pend, view)
		}
		w, err := MaterializeSourceSched("fuzz", src, maxEvents, policy)
		if err != nil {
			return
		}
		if want := execCount(n, maxEvents); w.Events() != want {
			t.Fatalf("workload executes %d events, want %d", w.Events(), want)
		}
		for _, m := range machines {
			m.Run(w)
		}
	})
}
