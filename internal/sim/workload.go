package sim

import (
	"fmt"

	"espsim/internal/eventq"
	"espsim/internal/trace"
	"espsim/internal/workload"
)

// specLookahead is the deepest queue view a schedule derives: the
// hardware event queue exposes at most 8 future events (workload
// sessions cap VisibleDepth there, matching the paper's deepest
// jump-ahead study), so schedWindows caps each slot's window at it.
const specLookahead = 8

// span locates one event's queue view in the flattened pending table:
// pendTab[off:off+n].
type span struct{ off, n int32 }

// Workload is one application session materialized once: every event's
// metadata, pending-queue view, and normal + speculative instruction
// streams — one tape holding every stream plus a view of it per event,
// and one flattened pending table. A Workload is immutable after
// construction — replays only read it — so one Workload can be shared by
// any number of Machines across goroutines.
//
//esp:plane workload
type Workload struct {
	// App names the application (profile name or caller-chosen label).
	App string

	events []trace.Event
	// nExec is the number of events a replay executes (the session
	// truncated by MaxEvents). Speculative streams extend further, to
	// every event the pending lists can reference.
	nExec int

	// normal[i] is event i's committed instruction stream (i < nExec),
	// spec[i] its pre-execution variant (i < len(spec), the speculative
	// horizon): views into tape. When an event does not diverge, both are
	// the same view.
	normal []trace.Tape
	spec   []trace.Tape

	// pend[i] spans event i's queue view in pendTab. A session's views,
	// and a timed input's dispatch-order views, are windows into the
	// workload's own event list (pendTab is that list) as deep as the
	// queue can see, and trim is true: a replay cuts each to the
	// machine's MaxPending (0 means the 2-entry hardware queue). A
	// generic source kept in source order has its views flattened into
	// pendTab as the source gave them, nil and empty ones included, and
	// trim is false: every replay sees them unchanged.
	pendTab []trace.Event
	pend    []span
	trim    bool

	// tape holds every materialized stream back to back, in arrays sized
	// exactly (trace.Tape documents the encoding).
	tape trace.Tape

	// sched is the dispatch schedule this workload was materialized
	// under, nil when every executed event is untimed and the policy is
	// FIFO. The events/streams above are already laid out in schedule
	// order, so replay needs no scheduler in the loop — the policy is
	// baked into the immutable plane at build time.
	sched *eventq.Schedule
}

// Sched returns a copy of the responsiveness stats of the schedule the
// workload was built under, or nil when the workload was built without
// one. The copy keeps the immutable plane unaliased — callers may hang
// it off a Result and mutate freely.
func (w *Workload) Sched() *eventq.SchedStats {
	if w.sched == nil {
		return nil
	}
	cp := w.sched.Stats
	cp.Classes = append([]eventq.ClassLatency(nil), cp.Classes...)
	return &cp
}

// NewWorkload is NewWorkloadSched under FIFO.
func NewWorkload(prof workload.Profile, maxEvents int) (*Workload, error) {
	return NewWorkloadSched(prof, maxEvents, eventq.SchedFIFO)
}

// MaterializeSource is MaterializeSourceSched under FIFO. It panics
// when the source is malformed: a queue view names an event outside it.
func MaterializeSource(app string, src eventq.Source, maxEvents int) *Workload {
	w, err := MaterializeSourceSched(app, src, maxEvents, eventq.SchedFIFO)
	if err != nil {
		panic(err)
	}
	return w
}

// NewWorkloadSched materializes prof's session, truncated to maxEvents
// when positive, under a dispatch policy (see build).
func NewWorkloadSched(prof workload.Profile, maxEvents int, policy eventq.SchedPolicy) (*Workload, error) {
	sess, err := workload.NewSession(prof)
	if err != nil {
		return nil, fmt.Errorf("esp: building session: %w", err)
	}
	return build(prof.Name, sessionInput{sess}, maxEvents, policy)
}

// MaterializeSourceSched snapshots an arbitrary eventq.Source (recorded
// traces, multi-queue merges) into a Workload under a dispatch policy
// (see build). Unless the source is timed, a replay sees its queue
// views as it gave them, never trimmed. An eventq.SessionSource with
// the default view (MaxPending 0) is built as its session, like
// NewWorkloadSched, so a replay trims its views to MaxPending.
func MaterializeSourceSched(app string, src eventq.Source, maxEvents int, policy eventq.SchedPolicy) (*Workload, error) {
	if ss, ok := src.(eventq.SessionSource); ok && ss.MaxPending <= 0 {
		return build(app, sessionInput{ss.S}, maxEvents, policy)
	}
	return build(app, sourceInput{src}, maxEvents, policy)
}

// build materializes in, truncated to maxEvents when positive, under a
// dispatch policy. When any executed event is timed or the policy is
// not FIFO it bakes the schedule (eventq.BuildSchedule) into the
// workload. A timed input is laid out in dispatch order, each event's
// ID remapped to its slot — the eventq.MultiQueueSource idiom, which
// keeps per-event data placement unique — with queue views derived
// from the schedule's clock and trimmed at replay. Otherwise the
// schedule is the identity and the input keeps its own order and
// views. A queue view that names an event outside the input is an
// error: ESP would read that event's speculative stream.
//
//esp:ctor
func build(app string, in input, maxEvents int, policy eventq.SchedPolicy) (*Workload, error) {
	n := in.len()
	nExec := execCount(n, maxEvents)
	w := &Workload{App: app, events: in.events(nExec), nExec: nExec}
	exec := w.events[:nExec]
	timed := anyTimed(exec)
	if timed || policy != eventq.SchedFIFO {
		sched, err := eventq.BuildSchedule(exec, policy)
		if err != nil {
			return nil, fmt.Errorf("esp: building schedule: %w", err)
		}
		w.sched = sched
	}
	if timed {
		w.events = schedEvents(exec, w.sched)
		w.pendTab, w.pend, w.trim = w.events, schedWindows(w.events, w.sched.Dispatch), true
	} else {
		in.views(w)
	}
	nSpec, err := specHorizon(n, w.pendTab, w.pend)
	if err != nil {
		return nil, err
	}

	tb := in.tapeBuild(w.events, nExec, nSpec)
	for k, ev := range w.events[:nExec] {
		i := k
		if timed {
			i = int(w.sched.Order[k])
		}
		in.pair(tb, k, i, ev)
	}
	for i := nExec; i < nSpec; i++ {
		in.spec(tb, i)
	}
	tb.finish(w)
	return w, nil
}

// input is what build materializes: a synthetic session or a generic
// eventq.Source.
type input interface {
	// len returns the number of events.
	len() int
	// events returns the event list; its first nExec entries are the
	// executed events.
	events(nExec int) []trace.Event
	// views sets w's queue views over w.events in input order.
	views(w *Workload)
	// tapeBuild starts the tape of nExec stream pairs and speculative
	// streams up to nSpec, for the event list evs.
	tapeBuild(evs []trace.Event, nExec, nSpec int) *tapeBuild
	// pair adds input event i's normal and speculative streams, laid
	// out as ev in slot k.
	pair(tb *tapeBuild, k, i int, ev trace.Event)
	// spec adds input event i's speculative stream, past the executed
	// prefix.
	spec(tb *tapeBuild, i int)
}

// sessionInput is a synthetic session. The tape build's reused walker
// generates its streams, each equal to what its generator's Stream
// returns for the event as laid out; its queue views are VisibleDepth
// windows into its own event list, trimmed at replay.
type sessionInput struct{ *workload.Session }

func (in sessionInput) len() int                 { return len(in.Events) }
func (in sessionInput) events(int) []trace.Event { return in.Events }

//esp:ctor
func (in sessionInput) views(w *Workload) {
	n := len(in.Events)
	w.pendTab, w.trim = in.Events, true
	w.pend = make([]span, w.nExec)
	for i := range w.pend {
		w.pend[i] = span{off: int32(i + 1), n: int32(min(in.VisibleDepth[i], n-1-i))}
	}
}

// tapeBuild reserves the op array for every stream the build adds (a
// normal stream for each of the first nExec events, and a separate
// speculative one for each diverging event among them and each later
// event up to nSpec) and the walker's scratch for the longest, so each
// is allocated once.
func (sessionInput) tapeBuild(evs []trace.Event, nExec, nSpec int) *tapeBuild {
	total, longest := 0, 0
	for i, ev := range evs[:nSpec] {
		total += ev.Len
		if i < nExec && ev.Diverge >= 0 {
			total += ev.Len
		}
		longest = max(longest, ev.Len)
	}
	tb := newTapeBuild(nExec, nSpec)
	tb.b.Grow(total)
	tb.scratch = make([]trace.Inst, 0, longest)
	return tb
}

func (in sessionInput) pair(tb *tapeBuild, k, _ int, ev trace.Event) {
	tb.normal[k] = tb.generate(in.Gen, ev, false)
	if ev.Diverge < 0 {
		// Pre-execution matches normal execution: share the view.
		tb.spec[k] = tb.normal[k]
	} else {
		tb.spec[k] = tb.generate(in.Gen, ev, true)
	}
}

func (in sessionInput) spec(tb *tapeBuild, i int) {
	tb.spec[i] = tb.generate(in.Gen, in.Events[i], true)
}

// sourceInput is a generic source. Its streams are encoded as handed
// out, stored once when both variants are the same slice (recorded
// traces hand back one), and its queue views are copied as given and
// never trimmed.
type sourceInput struct{ eventq.Source }

func (in sourceInput) len() int { return in.Len() }

func (in sourceInput) events(nExec int) []trace.Event {
	evs := make([]trace.Event, nExec)
	for i := range evs {
		evs[i] = in.Event(i)
	}
	return evs
}

//esp:ctor
func (in sourceInput) views(w *Workload) {
	w.pend = make([]span, w.nExec)
	for i := range w.pend {
		p := in.Pending(i)
		if p == nil {
			// Preserve the source's nil view exactly (off -1 marks it).
			w.pend[i] = span{off: -1}
			continue
		}
		w.pend[i] = span{off: int32(len(w.pendTab)), n: int32(len(p))}
		w.pendTab = append(w.pendTab, p...)
	}
}

func (sourceInput) tapeBuild(_ []trace.Event, nExec, nSpec int) *tapeBuild {
	return newTapeBuild(nExec, nSpec)
}

func (in sourceInput) pair(tb *tapeBuild, k, i int, _ trace.Event) {
	norm, spec := in.Insts(i, false), in.Insts(i, true)
	tb.normal[k] = tb.b.Add(norm)
	if sameSlice(norm, spec) {
		tb.spec[k] = tb.normal[k]
	} else {
		tb.spec[k] = tb.b.Add(spec)
	}
}

func (in sourceInput) spec(tb *tapeBuild, i int) { tb.spec[i] = tb.b.Add(in.Insts(i, true)) }

// anyTimed reports whether any event carries scheduling metadata.
func anyTimed(evs []trace.Event) bool {
	for _, ev := range evs {
		if ev.Timed() {
			return true
		}
	}
	return false
}

// execCount truncates a session of n events by maxEvents.
func execCount(n, maxEvents int) int {
	if maxEvents > 0 && maxEvents < n {
		return maxEvents
	}
	return n
}

// specHorizon returns how many events need speculative streams: at
// least the executed prefix (len(pend) events), and every event a queue
// view names. A view naming an ID outside [0, n) is an error.
func specHorizon(n int, pendTab []trace.Event, pend []span) (int, error) {
	h := len(pend)
	for i, sp := range pend {
		if sp.n <= 0 {
			continue
		}
		for _, ev := range pendTab[sp.off : sp.off+sp.n] {
			if ev.ID < 0 || ev.ID >= n {
				return 0, fmt.Errorf("esp: event %d's queue view names event %d, outside the %d events of the input", i, ev.ID, n)
			}
			h = max(h, ev.ID+1)
		}
	}
	return h, nil
}

// tapeBuild encodes a workload's streams into one tape. It keeps each
// event's stream index from the builder until finish resolves them into
// views.
type tapeBuild struct {
	b            trace.TapeBuilder
	normal, spec []int

	// wk and scratch are warm across every generated stream of a build;
	// the generator reseeds per event, so emission order cannot change a
	// stream.
	wk      workload.Walker
	scratch []trace.Inst
}

func newTapeBuild(nExec, nSpec int) *tapeBuild {
	return &tapeBuild{normal: make([]int, nExec), spec: make([]int, nSpec)}
}

// generate walks one event's stream and adds it to the tape.
func (tb *tapeBuild) generate(g *workload.Generator, ev trace.Event, speculative bool) int {
	tb.wk.Init(g, ev, speculative)
	tb.scratch = tb.wk.Append(tb.scratch[:0])
	return tb.b.Add(tb.scratch)
}

// finish stores the finished tape and every event's views in w.
//
//esp:ctor
func (tb *tapeBuild) finish(w *Workload) {
	tape, views := tb.b.Finish()
	w.tape = tape
	w.normal = make([]trace.Tape, len(tb.normal))
	for i, k := range tb.normal {
		w.normal[i] = views[k]
	}
	w.spec = make([]trace.Tape, len(tb.spec))
	for i, k := range tb.spec {
		w.spec[i] = views[k]
	}
}

// sameSlice reports whether a and b are the same stream: the same
// backing array and length, or both empty and alike in nil-ness.
func sameSlice(a, b []trace.Inst) bool {
	return len(a) == len(b) && (a == nil) == (b == nil) && (len(a) == 0 || &a[0] == &b[0])
}

// schedEvents lays evs out in dispatch order, remapping each event's ID
// to its slot position so per-event data placement stays unique and ESP
// slot matching (which keys on ev.ID) addresses the scheduled stream.
func schedEvents(evs []trace.Event, sched *eventq.Schedule) []trace.Event {
	out := make([]trace.Event, len(sched.Order))
	for k, oi := range sched.Order {
		ev := evs[oi]
		ev.ID = k
		out[k] = ev
	}
	return out
}

// schedWindows derives the hardware event queue's visibility from the
// schedule's virtual clock: when slot k dispatches, the consecutive run
// of later slots whose events have already arrived is resident in the
// queue (capped at the paper's deepest study, 8 entries). Under light
// load the queue is often empty at dispatch — exactly the reduced ESP
// opportunity a real mobile session offers.
func schedWindows(evs []trace.Event, dispatch []int64) []span {
	pend := make([]span, len(evs))
	for k := range evs {
		d := 0
		for d < specLookahead && k+1+d < len(evs) && evs[k+1+d].Arrival <= dispatch[k] {
			d++
		}
		pend[k] = span{off: int32(k + 1), n: int32(d)}
	}
	return pend
}

// Events returns the number of events a replay of this workload executes.
func (w *Workload) Events() int { return w.nExec }

// Insts returns the total committed instruction count of a replay.
func (w *Workload) Insts() int64 {
	var total int64
	for _, t := range w.normal {
		total += int64(t.Len())
	}
	return total
}

// SpecTape implements core.StreamSource: pre-execution walks the
// speculative stream variant (the paper's forked-off renderer
// processes, §5), which exists for every event a queue view can name.
func (w *Workload) SpecTape(ev trace.Event) trace.Tape { return w.spec[ev.ID] }

// pending returns event i's queue view: a capacity-pinned window into
// the flattened pending table, never a copy. Session views are trimmed
// to maxPending (0 means 2); generic-source views come back as the
// source gave them.
func (w *Workload) pending(i, maxPending int) []trace.Event {
	sp := w.pend[i]
	if sp.off < 0 {
		return nil
	}
	n := int(sp.n)
	if w.trim {
		max := maxPending
		if max <= 0 {
			max = 2
		}
		if n > max {
			n = max
		}
	}
	end := int(sp.off) + n
	return w.pendTab[sp.off:end:end]
}

// Source returns a read-only eventq.Source view of the workload, with
// queue views as a replay under maxPending sees them. Views are
// stateless: any number may be used concurrently.
func (w *Workload) Source(maxPending int) eventq.Source {
	return &wsource{w: w, maxPending: maxPending}
}

type wsource struct {
	w          *Workload
	maxPending int
}

// Len implements eventq.Source.
func (s *wsource) Len() int { return s.w.nExec }

// Event implements eventq.Source.
func (s *wsource) Event(i int) trace.Event { return s.w.events[i] }

// Insts implements eventq.Source, decoding the stream from the tape.
// Speculative streams exist beyond the executed prefix, covering every
// event the pending lists can name.
func (s *wsource) Insts(i int, speculative bool) []trace.Inst {
	if speculative {
		return s.w.spec[i].Insts()
	}
	return s.w.normal[i].Insts()
}

// Pending implements eventq.Source.
func (s *wsource) Pending(i int) []trace.Event { return s.w.pending(i, s.maxPending) }
