package eventq

import (
	"encoding/binary"
	"math"
	"reflect"
	"sync"
	"testing"

	"espsim/internal/trace"
	"espsim/internal/workload"
)

// timedEvents materializes the mobile-web session's event metadata: the
// canonical timed stream the scheduler properties are checked against.
func timedEvents(t *testing.T) []trace.Event {
	t.Helper()
	s, err := workload.NewSession(workload.MobileWeb())
	if err != nil {
		t.Fatal(err)
	}
	return s.Events
}

// allPolicies enumerates every defined policy.
func allPolicies() []SchedPolicy {
	ps := make([]SchedPolicy, 0, NumSchedPolicies)
	for p := SchedPolicy(0); p.Valid(); p++ {
		ps = append(ps, p)
	}
	return ps
}

// checkPermutation fails unless order is a permutation of [0, n).
func checkPermutation(t *testing.T, order []int32, n int) {
	t.Helper()
	if len(order) != n {
		t.Fatalf("schedule has %d slots, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for k, i := range order {
		if i < 0 || int(i) >= n {
			t.Fatalf("slot %d dispatches out-of-range event %d", k, i)
		}
		if seen[i] {
			t.Fatalf("event %d dispatched twice", i)
		}
		seen[i] = true
	}
}

// TestScheduleIsPermutation: whatever the policy, a schedule dispatches
// every event exactly once — scheduling reorders work, never drops or
// duplicates it.
func TestScheduleIsPermutation(t *testing.T) {
	evs := timedEvents(t)
	for _, p := range allPolicies() {
		sch, err := BuildSchedule(evs, p)
		if err != nil {
			t.Fatal(err)
		}
		checkPermutation(t, sch.Order, len(evs))
		if sch.Stats.Events != len(evs) {
			t.Errorf("%v: stats cover %d events, want %d", p, sch.Stats.Events, len(evs))
		}
	}
}

// TestScheduleTimesConsistent: dispatch times never go backwards, no
// event dispatches before it arrives, and completion is dispatch plus
// service.
func TestScheduleTimesConsistent(t *testing.T) {
	evs := timedEvents(t)
	for _, p := range allPolicies() {
		sch, err := BuildSchedule(evs, p)
		if err != nil {
			t.Fatal(err)
		}
		for k, i := range sch.Order {
			ev := evs[i]
			if k > 0 && sch.Dispatch[k] < sch.Dispatch[k-1] {
				t.Fatalf("%v: dispatch time went backwards at slot %d", p, k)
			}
			if sch.Dispatch[k] < ev.Arrival {
				t.Fatalf("%v: slot %d dispatched at %d before arrival %d", p, k, sch.Dispatch[k], ev.Arrival)
			}
			if want := satAdd(sch.Dispatch[k], serviceLen(ev)); sch.Complete[k] != want {
				t.Fatalf("%v: slot %d complete %d, want dispatch+service %d", p, k, sch.Complete[k], want)
			}
		}
	}
}

// TestStrictPriorityNoInversions: under SchedPriority the dispatched
// event is always a most-urgent ready event, so the inversion counter —
// and a post-hoc scan of the schedule — must both read zero.
func TestStrictPriorityNoInversions(t *testing.T) {
	evs := timedEvents(t)
	sch, err := BuildSchedule(evs, SchedPriority)
	if err != nil {
		t.Fatal(err)
	}
	if sch.Stats.PriorityInversions != 0 {
		t.Fatalf("strict priority reported %d inversions", sch.Stats.PriorityInversions)
	}
	// Post-hoc: at each dispatch, no later-dispatched event that was
	// already ready may be strictly more urgent.
	for k, i := range sch.Order {
		for _, j := range sch.Order[k+1:] {
			if evs[j].Arrival <= sch.Dispatch[k] && evs[j].Prio < evs[i].Prio {
				t.Fatalf("slot %d ran prio %d while ready event %d had prio %d",
					k, evs[i].Prio, j, evs[j].Prio)
			}
		}
	}
}

// TestEDFPicksEarliestDeadline: at each dispatch, no ready event still
// waiting has a strictly earlier effective deadline than the one chosen.
func TestEDFPicksEarliestDeadline(t *testing.T) {
	evs := timedEvents(t)
	sch, err := BuildSchedule(evs, SchedEDF)
	if err != nil {
		t.Fatal(err)
	}
	for k, i := range sch.Order {
		for _, j := range sch.Order[k+1:] {
			if evs[j].Arrival <= sch.Dispatch[k] && effDeadline(evs[j]) < effDeadline(evs[i]) {
				t.Fatalf("slot %d ran deadline %d while ready event %d had deadline %d",
					k, effDeadline(evs[i]), j, effDeadline(evs[j]))
			}
		}
	}
}

// TestUntimedDegeneratesToFIFO: with no arrivals, priorities, or
// deadlines, every policy ties on every comparison, the queue-position
// tie-break decides, and the schedule is the identity permutation. This
// is the property that lets untimed workloads build bit-identically
// whatever the configured policy.
func TestUntimedDegeneratesToFIFO(t *testing.T) {
	evs := make([]trace.Event, 17)
	for i := range evs {
		evs[i] = trace.Event{ID: i, Len: 100 + i}
	}
	for _, p := range allPolicies() {
		sch, err := BuildSchedule(evs, p)
		if err != nil {
			t.Fatal(err)
		}
		for k, i := range sch.Order {
			if int(i) != k {
				t.Fatalf("%v: untimed slot %d dispatches event %d, want identity order", p, k, i)
			}
		}
	}
}

// TestScheduleDeterministic: concurrent builds of the same schedule are
// bit-identical — the property that lets espd share one workload plane
// across goroutines. Run under -race this also proves BuildSchedule
// touches no shared state.
func TestScheduleDeterministic(t *testing.T) {
	evs := timedEvents(t)
	for _, p := range allPolicies() {
		const builders = 4
		out := make([]*Schedule, builders)
		var wg sync.WaitGroup
		for g := 0; g < builders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				sch, err := BuildSchedule(evs, p)
				if err == nil {
					out[g] = sch
				}
			}(g)
		}
		wg.Wait()
		for g := 1; g < builders; g++ {
			if out[g] == nil || out[0] == nil {
				t.Fatalf("%v: build %d failed", p, g)
			}
			if !reflect.DeepEqual(out[0], out[g]) {
				t.Fatalf("%v: concurrent builds diverged", p)
			}
		}
	}
}

// TestSchedByNameRoundTrip: every policy's String resolves back to
// itself, and the documented aliases resolve.
func TestSchedByNameRoundTrip(t *testing.T) {
	for _, p := range allPolicies() {
		got, err := SchedByName(p.String())
		if err != nil || got != p {
			t.Fatalf("SchedByName(%q) = %v, %v", p.String(), got, err)
		}
	}
	for alias, want := range map[string]SchedPolicy{
		"": SchedFIFO, "priority": SchedPriority, "pes": SchedSlack,
	} {
		if got, err := SchedByName(alias); err != nil || got != want {
			t.Fatalf("SchedByName(%q) = %v, %v", alias, got, err)
		}
	}
	if _, err := SchedByName("bogus"); err == nil {
		t.Fatal("SchedByName accepted a bogus name")
	}
	if p := SchedPolicy(NumSchedPolicies); p.Valid() {
		t.Fatal("out-of-range policy reports Valid")
	}
}

// FuzzSchedulerConfig decodes an arbitrary byte string into a policy
// and an event list with hostile metadata — deadlines at the integer
// extremes, past-due deadlines, negative lengths, arbitrary priorities —
// and demands BuildSchedule neither panics nor produces a malformed
// schedule: the order is a permutation, times are monotone, and the
// stats stay finite.
func FuzzSchedulerConfig(f *testing.F) {
	mk := func(policy byte, evs ...[4]int64) []byte {
		buf := []byte{policy}
		for _, e := range evs {
			var b [32]byte
			for i, v := range e {
				binary.LittleEndian.PutUint64(b[i*8:], uint64(v))
			}
			buf = append(buf, b[:]...)
		}
		return buf
	}
	f.Add(mk(0))
	f.Add(mk(1, [4]int64{0, 0, 0, 0}))
	f.Add(mk(2, [4]int64{100, 5000, 1 << 8, 400}, [4]int64{50, 0, 2 << 8, 900}))
	f.Add(mk(3, [4]int64{0, math.MinInt64, 0, math.MaxInt64}))
	f.Add(mk(2, [4]int64{math.MaxInt64, math.MaxInt64, 255 << 8, math.MaxInt64}))
	f.Add(mk(2, [4]int64{-1000, -5, 3 << 8, -77})) // past-due, negative length
	f.Add(mk(3, [4]int64{math.MinInt64, 1, 0, 1})) // slack underflow
	f.Add(mk(9, [4]int64{0, 0, 0, 0}))             // invalid policy
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		policy := SchedPolicy(data[0] % (NumSchedPolicies + 1)) // one past the end: exercise the error path
		data = data[1:]
		const rec = 32
		n := len(data) / rec
		if n > 256 {
			n = 256
		}
		evs := make([]trace.Event, n)
		for i := range evs {
			b := data[i*rec:]
			evs[i] = trace.Event{
				ID:       i,
				Arrival:  int64(binary.LittleEndian.Uint64(b)),
				Deadline: int64(binary.LittleEndian.Uint64(b[8:])),
				Prio:     uint8(binary.LittleEndian.Uint64(b[16:]) >> 8),
				Class:    trace.EventClass(binary.LittleEndian.Uint64(b[16:]) % trace.NumEventClasses),
				Len:      int(int64(binary.LittleEndian.Uint64(b[24:]))),
			}
		}
		sch, err := BuildSchedule(evs, policy)
		if !policy.Valid() {
			if err == nil {
				t.Fatal("invalid policy accepted")
			}
			return
		}
		if err != nil {
			t.Fatalf("valid policy rejected: %v", err)
		}
		checkPermutation(t, sch.Order, n)
		for k := range sch.Order {
			if k > 0 && sch.Dispatch[k] < sch.Dispatch[k-1] {
				t.Fatalf("dispatch time went backwards at slot %d", k)
			}
			if sch.Complete[k] < sch.Dispatch[k] {
				t.Fatalf("slot %d completes at %d before dispatch %d", k, sch.Complete[k], sch.Dispatch[k])
			}
		}
		st := sch.Stats
		if st.DeadlineMisses > st.Deadlined || st.Deadlined > st.Events {
			t.Fatalf("impossible deadline accounting: %+v", st)
		}
		if math.IsNaN(st.MissRate) || st.MissRate < 0 || st.MissRate > 1 {
			t.Fatalf("miss rate out of range: %v", st.MissRate)
		}
		for _, cl := range st.Classes {
			if math.IsNaN(cl.P50) || math.IsNaN(cl.P95) || math.IsNaN(cl.P99) {
				t.Fatalf("NaN percentile in class %q", cl.Class)
			}
		}
	})
}
