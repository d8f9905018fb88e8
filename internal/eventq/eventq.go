// Package eventq models the software side of the asynchronous runtime:
// the event sources a session is read from (synthetic sessions, recorded
// traces, several queues merged onto one looper, §4.5), and the dispatch
// schedules that order a timed session's events. The looper thread that
// dequeues events and executes them one at a time (paper §2.2, Figure 2)
// is sim.Machine.replay.
package eventq

import (
	"espsim/internal/trace"
	"espsim/internal/workload"
)

// LooperOverhead is the number of queue-management instructions the
// looper thread executes between events. The paper measures about 70 and
// ESP uses that window to start prefetching before an event begins (§3.6).
const LooperOverhead = 70

// Source supplies the ordered events of a session, their instruction
// streams, and the queue-occupancy view the hardware event queue sees.
type Source interface {
	// Len returns the number of events in the session.
	Len() int
	// Event returns event i's metadata.
	Event(i int) trace.Event
	// Insts materializes event i's dynamic instruction stream. When
	// speculative is true the stream is the pre-execution variant (which
	// diverges at Event(i).Diverge if the event depends on a skipped
	// predecessor).
	Insts(i int, speculative bool) []trace.Inst
	// Pending returns the future events visible in the queue when event
	// i starts executing (at most two, matching the 2-entry hardware
	// event queue). An event's ID is its position in the source, so
	// every ID here lies in [0, Len()); a workload build rejects any
	// other.
	Pending(i int) []trace.Event
}

// SessionSource adapts a synthetic workload session to Source.
// MaxPending widens the queue view beyond the default two entries for the
// Figure 13 deep jump-ahead study.
type SessionSource struct {
	S          *workload.Session
	MaxPending int
}

// Len implements Source.
func (ss SessionSource) Len() int { return len(ss.S.Events) }

// Event implements Source.
func (ss SessionSource) Event(i int) trace.Event { return ss.S.Events[i] }

// Insts implements Source.
func (ss SessionSource) Insts(i int, speculative bool) []trace.Inst {
	ev := ss.S.Events[i]
	return trace.Record(ss.S.Gen.Stream(ev, speculative), ev.Len)
}

// Pending implements Source.
func (ss SessionSource) Pending(i int) []trace.Event {
	n := ss.MaxPending
	if n <= 0 {
		n = 2
	}
	return ss.S.PendingN(i, n)
}

// TraceSource adapts recorded traces (e.g. loaded from an ESPT file) to
// Source. Speculative streams equal normal streams, and queue occupancy
// is always full — recorded traces carry no arrival information.
type TraceSource struct {
	Events []trace.EventTrace
}

// Len implements Source.
func (ts *TraceSource) Len() int { return len(ts.Events) }

// Event implements Source.
func (ts *TraceSource) Event(i int) trace.Event { return ts.Events[i].Event }

// Insts implements Source.
func (ts *TraceSource) Insts(i int, _ bool) []trace.Inst { return ts.Events[i].Insts }

// Pending implements Source.
func (ts *TraceSource) Pending(i int) []trace.Event {
	pend := make([]trace.Event, 0, 2)
	for j := i + 1; j <= i+2 && j < len(ts.Events); j++ {
		pend = append(pend, ts.Events[j].Event)
	}
	return pend
}
