package sim

import (
	"fmt"

	"espsim/internal/eventq"
	"espsim/internal/trace"
	"espsim/internal/workload"
)

// specLookahead bounds how far past the executed prefix speculative
// streams must exist: the hardware event queue exposes at most 8 future
// events (workload sessions cap VisibleDepth there, matching the paper's
// deepest jump-ahead study). The actual horizon is computed exactly from
// the pending lists; this constant only sizes the session fast path.
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
	// and a schedule's, are windows into the workload's own event list
	// (pendTab is that list) as deep as the queue can see, and trim is
	// true: a replay cuts each to the machine's MaxPending (0 means the
	// 2-entry hardware queue). An unscheduled generic source's views are
	// flattened into pendTab as the source gave them, nil and empty ones
	// included, and trim is false: every replay sees them unchanged.
	pendTab []trace.Event
	pend    []span
	trim    bool

	// tape holds every materialized stream back to back, in arrays sized
	// exactly (trace.Tape documents the encoding).
	tape trace.Tape

	// sched is the dispatch schedule this workload was materialized
	// under, nil for classic FIFO builds of untimed sessions. The
	// events/streams above are already laid out in schedule order, so
	// replay needs no scheduler in the loop — the policy is baked into
	// the immutable plane at build time.
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

// NewWorkload materializes prof's session, truncated to maxEvents when
// positive. Its queue views are the session's, trimmed at replay to the
// machine's MaxPending.
//
//esp:ctor
func NewWorkload(prof workload.Profile, maxEvents int) (*Workload, error) {
	sess, err := workload.NewSession(prof)
	if err != nil {
		return nil, fmt.Errorf("esp: building session: %w", err)
	}
	w := &Workload{App: prof.Name, trim: true}
	w.fromSession(sess, maxEvents)
	return w, nil
}

// MaterializeSource snapshots an arbitrary eventq.Source into a
// Workload. Its queue views are kept as the source gave them: a replay
// never trims them. The exception is an eventq.SessionSource with the
// default view (MaxPending 0), which is built like NewWorkload, so its
// views are the session's and a replay trims them to the machine's
// MaxPending. Other sources (recorded traces, multi-queue merges) are
// encoded stream by stream.
//
//esp:ctor
func MaterializeSource(app string, src eventq.Source, maxEvents int) *Workload {
	w := &Workload{App: app}
	if ss, ok := src.(eventq.SessionSource); ok && ss.MaxPending <= 0 {
		w.trim = true
		w.fromSession(ss.S, maxEvents)
		return w
	}
	w.fromSource(src, maxEvents)
	return w
}

// NewWorkloadSched materializes prof's session under a dispatch policy:
// the session is truncated to maxEvents, the schedule over those events
// is built once (eventq.BuildSchedule), and events and streams are laid
// out in dispatch order with each event remapped to its slot position —
// the eventq.MultiQueueSource idiom, which keeps per-event data
// placement unique while the original seed keeps every stream
// deterministic. An untimed session orders identically under every
// policy (all arrivals are zero), so its build is bit-identical to
// NewWorkload and only gains the schedule's stats.
//
//esp:ctor
func NewWorkloadSched(prof workload.Profile, maxEvents int, policy eventq.SchedPolicy) (*Workload, error) {
	if !prof.Timed && policy == eventq.SchedFIFO {
		return NewWorkload(prof, maxEvents)
	}
	sess, err := workload.NewSession(prof)
	if err != nil {
		return nil, fmt.Errorf("esp: building session: %w", err)
	}
	nExec := execCount(len(sess.Events), maxEvents)
	sched, err := eventq.BuildSchedule(sess.Events[:nExec], policy)
	if err != nil {
		return nil, fmt.Errorf("esp: building schedule: %w", err)
	}
	w := &Workload{App: prof.Name, trim: true, sched: sched}
	if !anyTimed(sess.Events[:nExec]) {
		// Identity order: the classic layout (including beyond-prefix
		// speculative streams) is exactly right; keep it bit-identical.
		w.fromSession(sess, maxEvents)
		return w, nil
	}
	w.fromSessionSched(sess, nExec, sched)
	return w, nil
}

// MaterializeSourceSched is MaterializeSource under a dispatch policy,
// for recorded traces and other generic sources. Untimed sources under
// FIFO take the classic path unscheduled.
//
//esp:ctor
func MaterializeSourceSched(app string, src eventq.Source, maxEvents int, policy eventq.SchedPolicy) (*Workload, error) {
	n := src.Len()
	nExec := execCount(n, maxEvents)
	evs := make([]trace.Event, nExec)
	timed := false
	for i := range evs {
		evs[i] = src.Event(i)
		if evs[i].Timed() {
			timed = true
		}
	}
	if !timed && policy == eventq.SchedFIFO {
		return MaterializeSource(app, src, maxEvents), nil
	}
	sched, err := eventq.BuildSchedule(evs, policy)
	if err != nil {
		return nil, fmt.Errorf("esp: building schedule: %w", err)
	}
	w := &Workload{App: app, sched: sched}
	if !timed {
		w.fromSource(src, maxEvents)
		return w, nil
	}
	w.fromSourceSched(src, evs, sched)
	return w, nil
}

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

// specHorizon returns how many events need speculative streams: the
// executed prefix plus every future event a pending list references,
// clamped to the session length.
func specHorizon(n, nExec int, pendTab []trace.Event, pend []span) int {
	h := nExec
	for _, sp := range pend {
		if sp.n <= 0 {
			continue
		}
		for _, ev := range pendTab[sp.off : sp.off+sp.n] {
			if ev.ID >= h {
				h = ev.ID + 1
			}
		}
	}
	if h > n {
		h = n
	}
	return h
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

// sessionTapeBuild sizes the build of a session's streams: a normal
// stream for each of the first nExec events, and a separate speculative
// one for each diverging event among them and each later event up to
// nSpec. The op array is reserved for all of them and the walker's
// scratch for the longest, so each is allocated once.
func sessionTapeBuild(evs []trace.Event, nExec, nSpec int) *tapeBuild {
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

// fromSession materializes a synthetic session. Streams are generated in
// event order, each equal to what eventq.SessionSource.Insts returns, by
// one reused walker, and encoded onto the tape.
//
//esp:ctor
func (w *Workload) fromSession(sess *workload.Session, maxEvents int) {
	n := len(sess.Events)
	w.events = sess.Events
	w.nExec = execCount(n, maxEvents)

	// Pending views are windows into the session's own event list: the
	// flattened pending table is that list itself, no copies.
	w.pendTab = sess.Events
	w.pend = make([]span, w.nExec)
	for i := 0; i < w.nExec; i++ {
		d := sess.VisibleDepth[i]
		if rest := n - 1 - i; d > rest {
			d = rest
		}
		w.pend[i] = span{off: int32(i + 1), n: int32(d)}
	}
	nSpec := specHorizon(n, w.nExec, w.pendTab, w.pend)

	tb := sessionTapeBuild(sess.Events, w.nExec, nSpec)
	for i := 0; i < w.nExec; i++ {
		ev := sess.Events[i]
		tb.normal[i] = tb.generate(sess.Gen, ev, false)
		if ev.Diverge < 0 {
			// Pre-execution matches normal execution: share the view.
			tb.spec[i] = tb.normal[i]
		} else {
			tb.spec[i] = tb.generate(sess.Gen, ev, true)
		}
	}
	for i := w.nExec; i < nSpec; i++ {
		tb.spec[i] = tb.generate(sess.Gen, sess.Events[i], true)
	}
	tb.finish(w)
}

// fromSource materializes a generic source by encoding its streams. When
// a source hands back the same backing array for both variants (recorded
// traces do), the view is shared the same way.
//
//esp:ctor
func (w *Workload) fromSource(src eventq.Source, maxEvents int) {
	n := src.Len()
	w.nExec = execCount(n, maxEvents)

	w.pend = make([]span, w.nExec)
	for i := 0; i < w.nExec; i++ {
		p := src.Pending(i)
		if p == nil {
			// Preserve the source's nil view exactly (off -1 marks it).
			w.pend[i] = span{off: -1}
			continue
		}
		start := len(w.pendTab)
		w.pendTab = append(w.pendTab, p...)
		w.pend[i] = span{off: int32(start), n: int32(len(w.pendTab) - start)}
	}
	nSpec := specHorizon(n, w.nExec, w.pendTab, w.pend)

	w.events = make([]trace.Event, w.nExec)
	tb := newTapeBuild(w.nExec, nSpec)
	for i := 0; i < w.nExec; i++ {
		w.events[i] = src.Event(i)
		tb.addPair(i, src.Insts(i, false), src.Insts(i, true))
	}
	for i := w.nExec; i < nSpec; i++ {
		tb.spec[i] = tb.b.Add(src.Insts(i, true))
	}
	tb.finish(w)
}

// addPair adds event i's normal and speculative streams, once when the
// source hands back the same slice for both.
func (tb *tapeBuild) addPair(i int, norm, spec []trace.Inst) {
	tb.normal[i] = tb.b.Add(norm)
	if sameSlice(norm, spec) {
		tb.spec[i] = tb.normal[i]
	} else {
		tb.spec[i] = tb.b.Add(spec)
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

// fromSessionSched materializes a timed session in dispatch order: the
// scheduled event list (remapped IDs) is its own pending table, queue
// views follow the schedule's virtual clock, and streams are generated
// per scheduled slot. Every pending reference names a scheduled slot,
// so the speculative horizon is the executed prefix itself.
//
//esp:ctor
func (w *Workload) fromSessionSched(sess *workload.Session, nExec int, sched *eventq.Schedule) {
	w.nExec = nExec
	evs := schedEvents(sess.Events[:nExec], sched)
	w.events = evs
	w.pendTab = evs
	w.pend = schedWindows(evs, sched.Dispatch)

	tb := sessionTapeBuild(evs, nExec, nExec)
	for k, ev := range evs {
		tb.normal[k] = tb.generate(sess.Gen, ev, false)
		if ev.Diverge < 0 {
			tb.spec[k] = tb.normal[k]
		} else {
			tb.spec[k] = tb.generate(sess.Gen, ev, true)
		}
	}
	tb.finish(w)
}

// fromSourceSched materializes a timed generic source in dispatch
// order, copying each slot's streams from the source's original event
// index. Queue views are schedule-derived (the source's own pending
// lists describe its unscheduled order) and trimmed by MaxPending at
// view time like session builds.
//
//esp:ctor
func (w *Workload) fromSourceSched(src eventq.Source, evs []trace.Event, sched *eventq.Schedule) {
	nExec := len(evs)
	w.nExec = nExec
	w.trim = true
	sevs := schedEvents(evs, sched)
	w.events = sevs
	w.pendTab = sevs
	w.pend = schedWindows(sevs, sched.Dispatch)

	tb := newTapeBuild(nExec, nExec)
	for k, oi := range sched.Order {
		tb.addPair(k, src.Insts(int(oi), false), src.Insts(int(oi), true))
	}
	tb.finish(w)
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
