package eventq

import (
	"fmt"
	"math"
	"sort"

	"espsim/internal/stats"
	"espsim/internal/trace"
)

// This file makes the order in which the looper drains the event queue a
// simulated dimension with a closed set of policies. The paper's
// evaluation drains FIFO; PES (see PAPERS.md) shows mobile-web
// responsiveness is won by reordering the queue around deadlines, and
// "Asynchronous Programming in a Prioritized Form" supplies the priority
// semantics. A Schedule is materialized once at workload build time from
// event metadata alone — it is part of the immutable workload plane, so
// warm replay stays allocation-zero and bit-identical regardless of
// policy.

// SchedPolicy selects how ready events are ordered for dispatch.
type SchedPolicy uint8

const (
	// SchedFIFO dispatches events in arrival order (the paper's model).
	SchedFIFO SchedPolicy = iota
	// SchedPriority dispatches the lowest-Prio ready event first
	// (strict priority; lower value = more urgent).
	SchedPriority
	// SchedEDF dispatches the ready event with the earliest deadline
	// first; events without deadlines run after all deadlined work.
	SchedEDF
	// SchedSlack is the PES-style deadline-aware policy: it dispatches
	// the ready event with the least slack (deadline minus service
	// time) first, so long events near their deadlines preempt short
	// events with room to spare.
	SchedSlack

	// NumSchedPolicies is the number of defined policies.
	NumSchedPolicies = 4
)

// String returns the policy's canonical name.
func (p SchedPolicy) String() string {
	switch p {
	case SchedFIFO:
		return "fifo"
	case SchedPriority:
		return "prio"
	case SchedEDF:
		return "edf"
	case SchedSlack:
		return "slack"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Valid reports whether p names a defined policy.
func (p SchedPolicy) Valid() bool { return p < NumSchedPolicies }

// SchedNames lists the canonical policy names in policy order.
func SchedNames() []string { return []string{"fifo", "prio", "edf", "slack"} }

// SchedByName resolves a policy name. The empty string is FIFO, so
// callers that never mention scheduling get the paper's drain order.
func SchedByName(name string) (SchedPolicy, error) {
	switch name {
	case "", "fifo":
		return SchedFIFO, nil
	case "prio", "priority":
		return SchedPriority, nil
	case "edf":
		return SchedEDF, nil
	case "slack", "pes":
		return SchedSlack, nil
	default:
		return 0, fmt.Errorf("eventq: unknown scheduler policy %q (have %v)", name, SchedNames())
	}
}

// effDeadline maps "no deadline" (zero) to +inf so deadline-aware
// policies run undeadlined events after all deadlined work.
func effDeadline(e trace.Event) int64 {
	if e.Deadline == 0 {
		return math.MaxInt64
	}
	return e.Deadline
}

// satAdd returns a+b, saturating at the int64 range instead of
// wrapping. Hostile traces carry deadlines near the integer extremes;
// schedule arithmetic must stay ordered, not overflow.
func satAdd(a, b int64) int64 {
	s := a + b
	if b > 0 && s < a {
		return math.MaxInt64
	}
	if b < 0 && s > a {
		return math.MinInt64
	}
	return s
}

// satSub returns a-b with the same saturation rule.
func satSub(a, b int64) int64 {
	if b == math.MinInt64 {
		// -b overflows; a - MinInt64 == a + MaxInt64 + 1.
		return satAdd(satAdd(a, math.MaxInt64), 1)
	}
	return satAdd(a, -b)
}

// effSlack is the slack policy's static key. Slack at any common
// decision time t is deadline - t - service; the shared t cancels, so
// deadline - service orders candidates identically at every decision
// point. An event with no deadline has infinite slack — subtracting a
// finite service time from infinity is still infinity, which keeps
// untimed events tied (FIFO degeneration) rather than ordered by length.
func effSlack(e trace.Event) int64 {
	if e.Deadline == 0 {
		return math.MaxInt64
	}
	return satSub(e.Deadline, serviceLen(e))
}

// serviceLen clamps an event's instruction count to a non-negative
// service time (hostile traces can carry negative lengths).
func serviceLen(e trace.Event) int64 {
	if e.Len < 0 {
		return 0
	}
	return int64(e.Len)
}

// less reports whether ready event a dispatches before ready event b
// under p. It is a pure function of the two events (a strict weak
// ordering); the dispatch loop breaks remaining ties by queue position.
func (p SchedPolicy) less(a, b trace.Event) bool {
	switch p {
	case SchedEDF:
		if da, db := effDeadline(a), effDeadline(b); da != db {
			return da < db
		}
	case SchedSlack:
		if sa, sb := effSlack(a), effSlack(b); sa != sb {
			return sa < sb
		}
	}
	if p != SchedFIFO && a.Prio != b.Prio {
		return a.Prio < b.Prio
	}
	return a.Arrival < b.Arrival
}

// ClassLatency is the responsiveness summary for one event class under
// one schedule: latency percentiles (completion minus arrival, in
// instruction units) and deadline outcomes.
type ClassLatency struct {
	Class     string  `json:"class"`
	Events    int     `json:"events"`
	P50       float64 `json:"p50"`
	P95       float64 `json:"p95"`
	P99       float64 `json:"p99"`
	Deadlined int     `json:"deadlined,omitempty"`
	Misses    int     `json:"misses,omitempty"`
	MissRate  float64 `json:"miss_rate,omitempty"`
}

// SchedStats summarizes a schedule's responsiveness: deadline outcomes,
// priority inversions, and per-class latency percentiles. All figures
// are pure functions of event metadata, computed once at build time.
type SchedStats struct {
	Policy             string         `json:"policy"`
	Events             int            `json:"events"`
	Deadlined          int            `json:"deadlined"`
	DeadlineMisses     int            `json:"deadline_misses"`
	MissRate           float64        `json:"miss_rate"`
	PriorityInversions int            `json:"priority_inversions"`
	Classes            []ClassLatency `json:"classes,omitempty"`
}

// Schedule is a materialized dispatch order for one event list: the
// permutation the looper replays, the virtual dispatch and completion
// time of each slot, and the responsiveness stats those times imply. It
// is immutable after construction and shared by every machine replaying
// the workload.
//
//esp:plane eventq
type Schedule struct {
	// Order[k] is the index (into the scheduled event list) of the
	// event dispatched k-th. It is a permutation of [0, len).
	Order []int32
	// Dispatch[k] and Complete[k] are the virtual times at which the
	// k-th dispatched event starts and finishes.
	Dispatch []int64
	Complete []int64
	// Stats summarizes deadline and latency outcomes of this order.
	Stats SchedStats
}

// BuildSchedule simulates a single non-preemptive virtual-time dispatch
// loop over evs under the named policy and returns the materialized
// schedule. Virtual time advances in instruction units: an event is
// ready once its Arrival has passed, the policy picks among ready
// events, and dispatching an event occupies the looper for its service
// length. Untimed events (all arrivals zero) are all ready at once, so
// every policy degenerates to a deterministic tie-break on queue
// position — FIFO order. A policy outside the defined set is an error.
//
//esp:ctor
func BuildSchedule(evs []trace.Event, policy SchedPolicy) (*Schedule, error) {
	if !policy.Valid() {
		return nil, fmt.Errorf("eventq: invalid scheduler policy %d", uint8(policy))
	}
	n := len(evs)
	order := make([]int32, 0, n)
	dispatch := make([]int64, 0, n)
	complete := make([]int64, 0, n)

	// Admit events into the ready heap in arrival order.
	byArr := make([]int32, n)
	for i := range byArr {
		byArr[i] = int32(i)
	}
	sort.SliceStable(byArr, func(a, b int) bool {
		return evs[byArr[a]].Arrival < evs[byArr[b]].Arrival
	})

	h := readyHeap{evs: evs, policy: policy}
	var prioReady [256]int32
	inversions := 0
	var t int64
	if n > 0 {
		t = evs[byArr[0]].Arrival
	}
	next := 0
	for len(order) < n {
		for next < n && evs[byArr[next]].Arrival <= t {
			h.push(byArr[next])
			prioReady[evs[byArr[next]].Prio]++
			next++
		}
		if h.empty() {
			t = evs[byArr[next]].Arrival
			continue
		}
		i := h.pop()
		p := evs[i].Prio
		prioReady[p]--
		for q := uint8(0); q < p; q++ {
			// A more urgent event was ready and had to wait: one
			// priority inversion, counted once per dispatch.
			if prioReady[q] > 0 {
				inversions++
				break
			}
		}
		c := satAdd(t, serviceLen(evs[i]))
		order = append(order, i)
		dispatch = append(dispatch, t)
		complete = append(complete, c)
		t = c
	}

	return &Schedule{
		Order:    order,
		Dispatch: dispatch,
		Complete: complete,
		Stats:    scheduleStats(evs, policy.String(), order, complete, inversions),
	}, nil
}

// scheduleStats computes the responsiveness summary for a dispatch
// order: per-class latency percentiles, deadline misses, and the
// inversion count observed during dispatch.
func scheduleStats(evs []trace.Event, policy string, order []int32, complete []int64, inversions int) SchedStats {
	st := SchedStats{
		Policy:             policy,
		Events:             len(order),
		PriorityInversions: inversions,
	}
	var lats [trace.NumEventClasses][]float64
	var deadlined, misses [trace.NumEventClasses]int
	for k, i := range order {
		ev := evs[i]
		cl := ev.Class
		if int(cl) >= trace.NumEventClasses {
			cl = trace.ClassNone
		}
		lats[cl] = append(lats[cl], float64(satSub(complete[k], ev.Arrival)))
		if ev.Deadline != 0 {
			st.Deadlined++
			deadlined[cl]++
			if complete[k] > ev.Deadline {
				st.DeadlineMisses++
				misses[cl]++
			}
		}
	}
	if st.Deadlined > 0 {
		st.MissRate = float64(st.DeadlineMisses) / float64(st.Deadlined)
	}
	for c := 0; c < trace.NumEventClasses; c++ {
		if len(lats[c]) == 0 {
			continue
		}
		cl := ClassLatency{
			Class:     trace.EventClass(c).String(),
			Events:    len(lats[c]),
			P50:       stats.Percentile(lats[c], 0.50),
			P95:       stats.Percentile(lats[c], 0.95),
			P99:       stats.Percentile(lats[c], 0.99),
			Deadlined: deadlined[c],
			Misses:    misses[c],
		}
		if deadlined[c] > 0 {
			cl.MissRate = float64(misses[c]) / float64(deadlined[c])
		}
		st.Classes = append(st.Classes, cl)
	}
	return st
}

// readyHeap is a binary min-heap of ready event indices, ordered by the
// policy's less with queue position as the final tie-break (so every
// pop is deterministic even when the policy is indifferent).
type readyHeap struct {
	evs    []trace.Event
	policy SchedPolicy
	idx    []int32
}

func (h *readyHeap) empty() bool { return len(h.idx) == 0 }

func (h *readyHeap) less(a, b int32) bool {
	if h.policy.less(h.evs[a], h.evs[b]) {
		return true
	}
	if h.policy.less(h.evs[b], h.evs[a]) {
		return false
	}
	return a < b
}

func (h *readyHeap) push(i int32) {
	h.idx = append(h.idx, i)
	k := len(h.idx) - 1
	for k > 0 {
		parent := (k - 1) / 2
		if !h.less(h.idx[k], h.idx[parent]) {
			break
		}
		h.idx[k], h.idx[parent] = h.idx[parent], h.idx[k]
		k = parent
	}
}

func (h *readyHeap) pop() int32 {
	top := h.idx[0]
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	k := 0
	for {
		l, r := 2*k+1, 2*k+2
		small := k
		if l < len(h.idx) && h.less(h.idx[l], h.idx[small]) {
			small = l
		}
		if r < len(h.idx) && h.less(h.idx[r], h.idx[small]) {
			small = r
		}
		if small == k {
			break
		}
		h.idx[k], h.idx[small] = h.idx[small], h.idx[k]
		k = small
	}
	return top
}
