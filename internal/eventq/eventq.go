// Package eventq models the software side of the asynchronous runtime:
// the looper thread that dequeues events from the event queue and executes
// them one at a time (paper §2.2, Figure 2), and the enqueue/dequeue
// intrinsics that expose the queue to the hardware (§4.1).
package eventq

import (
	"espsim/internal/cpu"
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
	// event queue).
	Pending(i int) []trace.Event
}

// TapeSource is a Source that also hands out its streams as tapes, the
// encoding the replay loops walk. Materialized workloads (sim.Workload
// views) implement it; the Looper encodes any other source's streams as
// it goes.
type TapeSource interface {
	Source
	Tape(i int, speculative bool) trace.Tape
}

// FlatSource is implemented by sources whose queue views can be produced
// without building a slice per call: PendingInto appends event i's view
// to buf and returns the extended slice, so a caller that owns buf reads
// queue views allocation-free and without aliasing source internals.
// Looper prefers this path via type assertion; span-backed sources
// (sim.Workload views) and the scratch-backed legacy sources implement it.
type FlatSource interface {
	Source
	PendingInto(i int, buf []trace.Event) []trace.Event
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

// PendingInto implements FlatSource.
func (ss SessionSource) PendingInto(i int, buf []trace.Event) []trace.Event {
	return append(buf, ss.Pending(i)...)
}

// TraceSource adapts recorded traces (e.g. loaded from an ESPT file) to
// Source. Speculative streams equal normal streams, and queue occupancy
// is always full — recorded traces carry no arrival information.
//
// Methods are on the pointer: Pending reuses a receiver-resident scratch
// array sized for the 2-entry hardware queue, so a replay loop calling it
// per event never touches the heap. The returned view is valid until the
// next Pending call; concurrent replays must use separate TraceSources
// (or the caller-buffered PendingInto).
type TraceSource struct {
	Events []trace.EventTrace

	pend [2]trace.Event
}

// Len implements Source.
func (ts *TraceSource) Len() int { return len(ts.Events) }

// Event implements Source.
func (ts *TraceSource) Event(i int) trace.Event { return ts.Events[i].Event }

// Insts implements Source.
func (ts *TraceSource) Insts(i int, _ bool) []trace.Inst { return ts.Events[i].Insts }

// Pending implements Source.
func (ts *TraceSource) Pending(i int) []trace.Event {
	n := 0
	for j := i + 1; j <= i+2 && j < len(ts.Events); j++ {
		ts.pend[n] = ts.Events[j].Event
		n++
	}
	return ts.pend[:n:n]
}

// PendingInto implements FlatSource.
func (ts *TraceSource) PendingInto(i int, buf []trace.Event) []trace.Event {
	for j := i + 1; j <= i+2 && j < len(ts.Events); j++ {
		buf = append(buf, ts.Events[j].Event)
	}
	return buf
}

// Looper drives a session through a core: the simulated equivalent of the
// browser's looper thread polling the event queue. A Looper may be reused
// across runs; its queue-view scratch then keeps its storage.
type Looper struct {
	Src  Source
	Core *cpu.Core

	// MaxEvents truncates the session when positive (for tests).
	MaxEvents int

	// pend is the queue-view scratch handed to FlatSource.PendingInto.
	pend []trace.Event
}

// Reset unbinds the looper from its source and core so a pooled owner
// never pins them, keeping the queue-view scratch storage for reuse.
func (l *Looper) Reset() {
	l.Src, l.Core = nil, nil
	l.MaxEvents = 0
	l.pend = l.pend[:0]
}

// Run executes the whole session and returns total cycles consumed.
func (l *Looper) Run() int64 {
	n := l.Src.Len()
	if l.MaxEvents > 0 && l.MaxEvents < n {
		n = l.MaxEvents
	}
	start := l.Core.Stats.Cycles
	assist := l.Core.Assist
	// Span-friendly sources fill the looper's own scratch: the per-event
	// queue view costs no allocation and never aliases source state.
	flat, _ := l.Src.(FlatSource)
	tapes, _ := l.Src.(TapeSource)
	for i := 0; i < n; i++ {
		ev := l.Src.Event(i)
		var tape trace.Tape
		if tapes != nil {
			tape = tapes.Tape(i, false)
		} else {
			tape = trace.EncodeTape(l.Src.Insts(i, false))
		}
		if assist != nil {
			var pending []trace.Event
			if flat != nil {
				l.pend = flat.PendingInto(i, l.pend[:0])
				pending = l.pend
			} else {
				pending = l.Src.Pending(i)
			}
			assist.EventStart(ev, pending)
		}
		l.Core.BeginEvent(ev.Handler)
		// Queue management runs between dequeue and handler entry; ESP
		// overlaps its pre-event prefetches with it (§3.6).
		l.Core.RunFiller(LooperOverhead)
		l.Core.RunEvent(tape)
		if assist != nil {
			assist.EventEnd(ev)
		}
		// The handler returned to the looper's dispatch loop: the call
		// stack (and with it the RAS) is realigned to the loop's depth.
		l.Core.BP.ClearRAS()
	}
	return l.Core.Stats.Cycles - start
}
