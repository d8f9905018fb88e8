package sim

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"espsim/internal/eventq"
	"espsim/internal/trace"
	"espsim/internal/workload"
)

// ErrTimeout marks a cell stopped because its context's deadline
// passed; errors.Is(err, ErrTimeout) classifies it (the espd service
// maps it to 504).
var ErrTimeout = errors.New("timeout")

// ErrPanic marks a cell whose replay panicked; the machine was dropped,
// never pooled. errors.Is(err, ErrPanic) classifies it (the espd
// resilience layer treats it as retryable).
var ErrPanic = errors.New("simulation panicked")

// ErrBuild marks a workload materialization failure. Failed builds are
// not cached (see RunCell), so a retry after a transient failure
// rebuilds instead of replaying the stale error.
var ErrBuild = errors.New("workload build failed")

// ErrMemory marks a cell refused because its workload does not fit the
// runner's memory budget (SetWorkloadBudget), even with every idle
// cached workload evicted; the workload is dropped.
// errors.Is(err, ErrMemory) classifies it (the espd service maps it to
// 503).
var ErrMemory = errors.New("workload memory budget exceeded")

// FaultPoint identifies one injectable operation for a FaultHook:
// Op is "build" (workload materialization; Config is empty) or "run"
// (one cell replay). Done is the cell's context's Done channel for a
// run (nil for a build, which nothing stops), so a stalling hook can
// end its stall when the cell is stopped.
type FaultPoint struct {
	Op     string
	Label  string
	App    string
	Config string
	Done   <-chan struct{}
}

// FaultHook is the runner's chaos-injection seam: when installed with
// SetFaultHook it is called before every workload build and every cell
// replay. Returning an error fails the operation; panicking exercises
// the runner's panic containment; stalling exercises timeouts. A nil
// hook (the production default) costs one nil check per operation.
type FaultHook func(FaultPoint) error

// Perf aggregates what the two-plane split saved across a Runner's
// lifetime: how often workloads and machines were reused instead of
// rebuilt, and how wall-clock time divided between building and
// simulating.
type Perf struct {
	// Cells counts completed simulations.
	Cells int64
	// WorkloadBuilds counts sessions materialized; WorkloadReuses counts
	// cells that replayed an already-materialized workload (cache hits);
	// WorkloadEvicts counts materializations dropped by the LRU cap or
	// byte budget.
	WorkloadBuilds int64
	WorkloadReuses int64
	WorkloadEvicts int64
	// MachineBuilds counts machines assembled, at most the number of
	// cells that ever ran at once; MachineReuses counts cells that ran
	// on a pooled machine, fit to their config.
	MachineBuilds int64
	MachineReuses int64
	// BuildWall is time spent materializing workloads and assembling
	// machines; SimWall is time spent replaying.
	BuildWall time.Duration
	SimWall   time.Duration

	// SchedCells counts cells that ran under a materialized schedule
	// and SchedEvents the events those schedules dispatched; the
	// deadline and inversion counters aggregate their outcomes.
	SchedCells         int64
	SchedEvents        int64
	Deadlined          int64
	DeadlineMisses     int64
	PriorityInversions int64
	// SchedClasses aggregates per-class responsiveness across scheduled
	// cells (percentile sums are event-weighted; divide by Events for
	// the weighted mean).
	SchedClasses [trace.NumEventClasses]ClassPerf
}

// ClassPerf accumulates one event class's responsiveness across cells.
type ClassPerf struct {
	Events    int64
	Deadlined int64
	Misses    int64
	P50Sum    float64
	P95Sum    float64
	P99Sum    float64
}

// addSched folds one scheduled cell's stats into the aggregates.
func (p *Perf) addSched(ss *eventq.SchedStats) {
	p.SchedCells++
	p.SchedEvents += int64(ss.Events)
	p.Deadlined += int64(ss.Deadlined)
	p.DeadlineMisses += int64(ss.DeadlineMisses)
	p.PriorityInversions += int64(ss.PriorityInversions)
	for _, cl := range ss.Classes {
		cp := &p.SchedClasses[classIdx(cl.Class)]
		n := float64(cl.Events)
		cp.Events += int64(cl.Events)
		cp.Deadlined += int64(cl.Deadlined)
		cp.Misses += int64(cl.Misses)
		cp.P50Sum += cl.P50 * n
		cp.P95Sum += cl.P95 * n
		cp.P99Sum += cl.P99 * n
	}
}

// classIdx resolves a class name back to its EventClass index.
func classIdx(name string) int {
	for c := 0; c < trace.NumEventClasses; c++ {
		if trace.EventClass(c).String() == name {
			return c
		}
	}
	return 0
}

// SchedString renders the responsiveness aggregates as a one-line
// summary, or "" when no scheduled cell has run.
func (p Perf) SchedString() string {
	if p.SchedCells == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d scheduled cells: %d events, %d/%d deadline misses",
		p.SchedCells, p.SchedEvents, p.DeadlineMisses, p.Deadlined)
	if p.Deadlined > 0 {
		fmt.Fprintf(&b, " (%.1f%%)", float64(p.DeadlineMisses)/float64(p.Deadlined)*100)
	}
	fmt.Fprintf(&b, ", %d priority inversions", p.PriorityInversions)
	for c := 1; c < trace.NumEventClasses; c++ {
		cp := p.SchedClasses[c]
		if cp.Events == 0 {
			continue
		}
		fmt.Fprintf(&b, "; %s p95 %.0f (%d ev, %d miss)",
			trace.EventClass(c), cp.P95Sum/float64(cp.Events), cp.Events, cp.Misses)
	}
	return b.String()
}

// String renders the counters as a one-line summary.
func (p Perf) String() string {
	return fmt.Sprintf("%d cells: workloads %d built/%d reused/%d evicted, machines %d built/%d reused, %v building, %v simulating",
		p.Cells, p.WorkloadBuilds, p.WorkloadReuses, p.WorkloadEvicts, p.MachineBuilds, p.MachineReuses,
		p.BuildWall.Round(time.Millisecond), p.SimWall.Round(time.Millisecond))
}

// workloadKey identifies one materialization: the full profile value
// (Profile is a comparable struct of scalars) plus the executed-prefix
// bound, the dispatch policy the schedule was baked under and the depth
// of queue view kept (see cellKey). Two cells with equal keys share one
// Workload.
type workloadKey struct {
	prof      workload.Profile
	maxEvents int
	sched     eventq.SchedPolicy
	depth     int
}

// cellKey is the key of the workload a cell of prof replays as cfg. It
// keeps queue views as deep as such a replay reads (viewDepth) when
// cfg.MaxEvents bounds an untimed session, and whole (specLookahead)
// otherwise. An unbounded replay runs every event, and a timed
// session's views name only executed events (the queue holds what has
// arrived by dispatch), so a shallower workload would hold no less;
// there one serves every MaxPending.
func cellKey(prof workload.Profile, cfg Config) workloadKey {
	depth := specLookahead
	if cfg.MaxEvents > 0 && !prof.Timed {
		depth = viewDepth(cfg.MaxPending)
	}
	return workloadKey{prof: prof, maxEvents: cfg.MaxEvents, sched: cfg.Sched, depth: depth}
}

// workloadCell is one workload's place in a Runner: the single-flight
// build of a cache key, or a caller-built workload held by RunWorkload.
type workloadCell struct {
	once sync.Once
	key  workloadKey
	w    *Workload
	err  error
	// elem is the cell's position in the Runner's LRU list (front = most
	// recently used); nil while building, once evicted, and for a
	// caller-built workload.
	elem *list.Element
	// holds counts the cells replaying w; no eviction takes a held cell.
	// bytes is w's accounted footprint, counted live from the end of its
	// build until the cell is neither cached nor held.
	holds int
	bytes int64
}

// Runner joins the planes for sweeps: it materializes each workload once
// (single-flight, shared by every configuration and goroutine) and pools
// machines as worker slots: a cell pops any idle machine, fits it to its
// config and returns it when done, and a machine is built only when
// every pooled one is busy, so at most one exists per cell in flight.
// All methods are safe for concurrent use; results are bit-identical to
// building a fresh machine per cell because every replay resets to cold
// state first.
//
// A bounded cell's workload is built only as deep as its MaxPending
// reads (see cellKey), so the cache keys a workload by profile,
// MaxEvents, dispatch policy and that depth. The cache is unbounded by
// default; a long-lived Runner (the espd service) should SetWorkloadCap
// or SetWorkloadBudget so distinct keys evict least-recently-used
// arenas instead of accumulating. A cell holds its workload from lookup
// to the end of its replay, and eviction takes only workloads no cell
// holds.
type Runner struct {
	mu          sync.Mutex
	workloads   map[workloadKey]*workloadCell
	lru         list.List // of *workloadCell, front = most recent
	workloadCap int
	// live maps every live workload to its cell: the cached ones and
	// the caller-built ones a cell holds. liveBytes is their accounted
	// total, which admission keeps within a positive budget, and
	// peakBytes its high-water mark.
	live      map[*Workload]*workloadCell
	budget    int64
	liveBytes int64
	peakBytes int64
	// idle holds the machines no cell is using.
	idle  []*Machine
	perf  Perf
	fault FaultHook
}

// NewRunner returns an empty Runner with an unbounded workload cache.
func NewRunner() *Runner {
	return &Runner{workloads: make(map[workloadKey]*workloadCell), live: make(map[*Workload]*workloadCell)}
}

// SetWorkloadCap bounds the workload cache to n materializations,
// evicting least-recently-used idle entries past it (n < 1: unbounded).
// The cap applies to future insertions and trims the cache immediately.
func (r *Runner) SetWorkloadCap(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.workloadCap = n
	r.evictLocked(0)
}

// SetWorkloadBudget bounds live workloads to n accounted bytes
// (Workload.Bytes each; n <= 0: unbounded). A workload is live from the
// end of its build while it is cached or a cell holds it. A build, or a
// caller-built workload RunWorkload is handed, that would pass the
// budget first evicts least-recently-used idle workloads, but only when
// that makes it fit; otherwise its cell fails with ErrMemory. It
// composes with SetWorkloadCap, and trims idle workloads immediately.
func (r *Runner) SetWorkloadBudget(n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.budget = n
	r.evictLocked(0)
}

// LiveBytes reports the accounted bytes of live workloads and the most
// that were ever live at once.
func (r *Runner) LiveBytes() (live, peak int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.liveBytes, r.peakBytes
}

// SetFaultHook installs h to be consulted before every workload build
// and cell replay (nil removes it). Production servers never set one;
// chaos tests install a deterministic fault.Plan hook so injected
// panics, errors, and stalls are reproducible byte-for-byte.
func (r *Runner) SetFaultHook(h FaultHook) {
	r.mu.Lock()
	r.fault = h
	r.mu.Unlock()
}

// Perf returns a snapshot of the reuse and timing counters.
func (r *Runner) Perf() Perf {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.perf
}

// evictLocked evicts least-recently-used idle cached workloads while the
// cache holds more than the cap, or while need more bytes would take
// live workloads past the budget. Callers hold r.mu.
func (r *Runner) evictLocked(need int64) {
	for e := r.lru.Back(); e != nil; {
		overCap := r.workloadCap >= 1 && r.lru.Len() > r.workloadCap
		overBudget := r.budget > 0 && r.liveBytes+need > r.budget
		if !overCap && !overBudget {
			return
		}
		prev := e.Prev()
		if cell := e.Value.(*workloadCell); cell.holds == 0 {
			r.lru.Remove(e)
			cell.elem = nil
			delete(r.workloads, cell.key)
			r.dropLocked(cell)
			r.perf.WorkloadEvicts++
		}
		e = prev
	}
}

// fitLocked makes room under the budget for a workload of need bytes
// named app, evicting idle cached workloads only when evicting them all
// would make it fit, so a refused workload leaves the cache as it was.
// It returns ErrMemory when the held workloads leave too little room.
// Callers hold r.mu.
func (r *Runner) fitLocked(app string, need int64) error {
	if r.budget <= 0 || r.liveBytes+need <= r.budget {
		return nil
	}
	held := r.liveBytes
	for e := r.lru.Front(); e != nil; e = e.Next() {
		if cell := e.Value.(*workloadCell); cell.holds == 0 {
			held -= cell.bytes
		}
	}
	if held+need > r.budget {
		return fmt.Errorf("esp: workload %s: %d bytes do not fit a %d-byte budget with %d held: %w",
			app, need, r.budget, held, ErrMemory)
	}
	r.evictLocked(need)
	return nil
}

// countLocked makes cell's built workload live. Callers hold r.mu.
func (r *Runner) countLocked(cell *workloadCell) {
	cell.bytes = cell.w.Bytes()
	r.live[cell.w] = cell
	r.liveBytes += cell.bytes
	r.peakBytes = max(r.peakBytes, r.liveBytes)
}

// dropLocked stops counting cell's workload as live. Callers hold r.mu.
func (r *Runner) dropLocked(cell *workloadCell) {
	delete(r.live, cell.w)
	r.liveBytes -= cell.bytes
}

// hold returns the cell of key's cached workload, building it on first
// use, with one hold on it for release to drop. Concurrent callers for
// the same key block on one materialization.
func (r *Runner) hold(key workloadKey) (*workloadCell, error) {
	r.mu.Lock()
	cell, ok := r.workloads[key]
	if !ok {
		cell = &workloadCell{key: key}
		r.workloads[key] = cell
	} else if cell.elem != nil {
		r.lru.MoveToFront(cell.elem)
	}
	cell.holds++
	hook := r.fault
	r.mu.Unlock()

	built := false
	cell.once.Do(func() {
		built = true
		r.build(cell, hook)
	})
	if cell.err != nil {
		return nil, cell.err
	}
	if !built {
		r.mu.Lock()
		r.perf.WorkloadReuses++
		r.mu.Unlock()
	}
	return cell, nil
}

// holdWorkload holds w for one replay: its cached cell when w is live,
// or a new cell that counts w until release, if the budget has room.
func (r *Runner) holdWorkload(w *Workload) (*workloadCell, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cell, ok := r.live[w]
	if !ok {
		if err := r.fitLocked(w.App, w.Bytes()); err != nil {
			return nil, err
		}
		cell = &workloadCell{w: w}
		r.countLocked(cell)
	}
	cell.holds++
	return cell, nil
}

// release drops one hold on cell. An uncached workload stops counting
// with its last hold; a cached one may now be evicted.
func (r *Runner) release(cell *workloadCell) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cell.holds--
	switch {
	case cell.holds > 0:
	case cell.elem == nil:
		r.dropLocked(cell)
	default:
		r.evictLocked(0)
	}
}

// build materializes cell's workload, with fault-hook and perf
// accounting, and caches it if it fits the budget. A failed or refused
// build leaves its error in the cell and the cell out of the cache.
func (r *Runner) build(cell *workloadCell, hook FaultHook) {
	start := time.Now()
	prof := cell.key.prof
	var w *Workload
	var err error
	if hook != nil {
		if herr := hook(FaultPoint{Op: "build", Label: prof.Name, App: prof.Name}); herr != nil {
			err = fmt.Errorf("esp: workload %s: %w: %w", prof.Name, ErrBuild, herr)
		}
	}
	if err == nil {
		w, err = sessionWorkload(prof, cell.key.maxEvents, cell.key.sched, cell.key.depth)
		if err != nil {
			err = fmt.Errorf("esp: workload %s: %w: %w", prof.Name, ErrBuild, err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.perf.BuildWall += time.Since(start)
	r.perf.WorkloadBuilds++
	if err == nil {
		err = r.fitLocked(prof.Name, w.Bytes())
	}
	if err != nil {
		cell.err = err
		delete(r.workloads, cell.key)
		return
	}
	cell.w = w
	r.countLocked(cell)
	cell.elem = r.lru.PushFront(cell)
	r.evictLocked(0)
}

// acquireMachine pops an idle machine and fits it to cfg, or assembles
// one when every pooled machine is busy.
func (r *Runner) acquireMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if n := len(r.idle); n > 0 {
		m := r.idle[n-1]
		r.idle = r.idle[:n-1]
		r.perf.MachineReuses++
		r.mu.Unlock()
		if err := m.fit(cfg); err != nil {
			r.releaseMachine(m)
			return nil, err
		}
		return m, nil
	}
	r.mu.Unlock()

	start := time.Now()
	m, err := NewMachine(cfg)
	r.mu.Lock()
	r.perf.BuildWall += time.Since(start)
	if err == nil {
		r.perf.MachineBuilds++
	}
	r.mu.Unlock()
	return m, err
}

// releaseMachine returns a healthy machine to the pool.
func (r *Runner) releaseMachine(m *Machine) {
	r.mu.Lock()
	r.idle = append(r.idle, m)
	r.mu.Unlock()
}

// RunCell simulates one (profile, configuration) cell on the calling
// goroutine: the workload is materialized once per key (see cellKey)
// and shared, held from lookup to the end of the replay, and a pooled
// machine is fit to cfg and replays it. A failed build is not cached:
// the cells waiting on it fail with its error (wrapped in ErrBuild, or
// ErrMemory for a build that does not fit the budget), and a later cell
// builds again. label names the cell in panic and stop errors. ctx
// bounds the replay, not the build: once it is done no further event
// runs, and the cell fails with ErrTimeout if its deadline passed or
// with ctx's error otherwise. A stopped cell's machine goes straight
// back to the pool (every replay resets first); a panicking machine is
// dropped, never pooled.
func (r *Runner) RunCell(ctx context.Context, label string, prof workload.Profile, cfg Config) (Result, error) {
	cell, err := r.hold(cellKey(prof, cfg))
	if err != nil {
		return Result{}, err
	}
	defer r.release(cell)
	return r.run(ctx, label, cell.w, cfg)
}

// RunWorkload is RunCell for an already-materialized workload (e.g. one
// built from a generic source), held for its replay: one the runner
// does not cache counts against the budget until the replay ends, and
// fails with ErrMemory if it does not fit. A workload that keeps
// shallower queue views than cfg's MaxPending reads is an error.
func (r *Runner) RunWorkload(ctx context.Context, label string, w *Workload, cfg Config) (Result, error) {
	cell, err := r.holdWorkload(w)
	if err != nil {
		return Result{}, err
	}
	defer r.release(cell)
	return r.run(ctx, label, w, cfg)
}

// run replays the held workload w as cfg on a pooled machine.
func (r *Runner) run(ctx context.Context, label string, w *Workload, cfg Config) (Result, error) {
	if d := viewDepth(cfg.MaxPending); w.depth > 0 && d > w.depth {
		return Result{}, fmt.Errorf("esp: workload %s keeps queue views %d deep, but MaxPending %d reads %d", w.App, w.depth, cfg.MaxPending, d)
	}
	m, err := r.acquireMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	return r.simulate(ctx, label, m, w)
}

// simulate replays w on m, as the config m is fit to, with panic
// containment and timing accounting. The fault hook (if any) runs first: an injected error
// fails the cell with the untouched machine pooled again; an injected
// panic takes the same containment path as a real simulation panic.
func (r *Runner) simulate(ctx context.Context, label string, m *Machine, w *Workload) (res Result, err error) {
	r.mu.Lock()
	hook := r.fault
	r.mu.Unlock()
	done := ctx.Done()
	start := time.Now()
	defer func() {
		elapsed := time.Since(start)
		if p := recover(); p != nil {
			// The machine may hold corrupt state: drop it.
			err = fmt.Errorf("esp: run %s: %w: %v", label, ErrPanic, p)
		} else {
			r.releaseMachine(m)
		}
		r.mu.Lock()
		r.perf.SimWall += elapsed
		if err == nil {
			r.perf.Cells++
			if res.Sched != nil {
				r.perf.addSched(res.Sched)
			}
		}
		r.mu.Unlock()
	}()
	if hook != nil {
		if herr := hook(FaultPoint{Op: "run", Label: label, App: w.App, Config: m.cfg.Name, Done: done}); herr != nil {
			return Result{}, fmt.Errorf("esp: run %s: %w", label, herr)
		}
	}
	if m.replay(w, done) {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return Result{}, fmt.Errorf("esp: run %s: stopped at its deadline: %w", label, ErrTimeout)
		}
		return Result{}, fmt.Errorf("esp: run %s: stopped: %w", label, ctx.Err())
	}
	return m.result(w), nil
}
