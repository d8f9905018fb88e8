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
// not cached (see Workload), so a retry after a transient failure
// rebuilds instead of replaying the stale error.
var ErrBuild = errors.New("workload build failed")

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
	// byte budget; WorkloadBypasses counts builds that skipped the cache
	// because admission was off (memory brownout).
	WorkloadBuilds   int64
	WorkloadReuses   int64
	WorkloadEvicts   int64
	WorkloadBypasses int64
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
// bound and the dispatch policy the schedule was baked under. Two cells
// with equal keys share one Workload.
type workloadKey struct {
	prof      workload.Profile
	maxEvents int
	sched     eventq.SchedPolicy
}

type workloadCell struct {
	once sync.Once
	w    *Workload
	err  error
	// elem is the cell's position in the Runner's LRU list (front =
	// most recently used); nil once evicted.
	elem *list.Element
	// bytes is the workload's accounted footprint, folded into the
	// Runner's cacheBytes once the build completes (zero while
	// building or once evicted).
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
// The workload cache is unbounded by default; a long-lived Runner (the
// espd service) should SetWorkloadCap so distinct (profile, MaxEvents)
// keys evict least-recently-used arenas instead of accumulating.
// Eviction only drops the cache entry — workloads are immutable, so a
// goroutine still replaying an evicted workload is unaffected.
type Runner struct {
	mu          sync.Mutex
	workloads   map[workloadKey]*workloadCell
	lru         list.List // of workloadKey, front = most recent
	workloadCap int
	// workloadBudget bounds the cache in accounted bytes (<= 0:
	// unbounded); cacheBytes is the current accounted total across
	// completed cached builds.
	workloadBudget int64
	cacheBytes     int64
	// noAdmit stops new builds from entering the cache (brownout's
	// no-cache lever); already-cached workloads still serve.
	noAdmit bool
	// idle holds the machines no cell is using.
	idle  []*Machine
	perf  Perf
	fault FaultHook
}

// NewRunner returns an empty Runner with an unbounded workload cache.
func NewRunner() *Runner {
	return &Runner{workloads: make(map[workloadKey]*workloadCell)}
}

// SetWorkloadCap bounds the workload cache to n materializations,
// evicting least-recently-used entries past it (n < 1: unbounded). The
// cap applies to future insertions and trims the cache immediately.
func (r *Runner) SetWorkloadCap(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.workloadCap = n
	r.evictLocked()
}

// SetWorkloadBudget bounds the workload cache to n accounted bytes
// (Workload.Bytes per entry), evicting least-recently-used entries
// past it (n <= 0: unbounded). It composes with SetWorkloadCap —
// whichever bound is tighter evicts first.
func (r *Runner) SetWorkloadBudget(n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.workloadBudget = n
	r.evictLocked()
}

// SetCacheAdmit toggles cache admission for new workload builds. While
// off (memory brownout) a cache miss builds an uncached, unshared
// workload — correct but without reuse — and cached entries keep
// serving; the cache never grows.
func (r *Runner) SetCacheAdmit(on bool) {
	r.mu.Lock()
	r.noAdmit = !on
	r.mu.Unlock()
}

// CacheBytes reports the accounted footprint of the workload cache.
func (r *Runner) CacheBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cacheBytes
}

// TrimWorkloadCache evicts least-recently-used workloads until the
// accounted footprint is at or below target bytes — the brownout
// actor's recovery lever (evicting everything is target 0). Workloads
// mid-replay are unaffected: eviction only drops the cache's
// reference, and workloads are immutable.
func (r *Runner) TrimWorkloadCache(target int64) {
	if target < 0 {
		target = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.cacheBytes > target && r.lru.Len() > 0 {
		r.evictOldestLocked()
	}
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

// evictLocked drops least-recently-used workload cells until the cache
// respects both the entry cap and the byte budget. Callers hold r.mu.
func (r *Runner) evictLocked() {
	for r.lru.Len() > 0 {
		overCap := r.workloadCap >= 1 && r.lru.Len() > r.workloadCap
		overBudget := r.workloadBudget > 0 && r.cacheBytes > r.workloadBudget
		if !overCap && !overBudget {
			return
		}
		r.evictOldestLocked()
	}
}

// evictOldestLocked drops the least-recently-used cache entry and
// returns its bytes to the accounted total. Callers hold r.mu and have
// checked the LRU is non-empty.
func (r *Runner) evictOldestLocked() {
	oldest := r.lru.Back()
	key := oldest.Value.(workloadKey)
	r.lru.Remove(oldest)
	if cell, ok := r.workloads[key]; ok {
		cell.elem = nil
		r.cacheBytes -= cell.bytes
		cell.bytes = 0
		delete(r.workloads, key)
		r.perf.WorkloadEvicts++
	}
}

// Workload returns the materialized workload for prof truncated to
// maxEvents, building it on first use and sharing it afterwards.
// Concurrent callers for the same key block on one materialization.
//
// Failed builds are never cached: every waiter on the failing
// materialization observes the same error (wrapped in ErrBuild), but
// the cache entry is dropped immediately, so a later call — a retry
// after a transient failure — materializes from scratch.
func (r *Runner) Workload(prof workload.Profile, maxEvents int) (*Workload, error) {
	return r.WorkloadSched(prof, maxEvents, eventq.SchedFIFO)
}

// WorkloadSched is Workload under an explicit dispatch policy; the
// policy is part of the cache key, so the same profile scheduled two
// ways materializes two arenas.
func (r *Runner) WorkloadSched(prof workload.Profile, maxEvents int, policy eventq.SchedPolicy) (*Workload, error) {
	key := workloadKey{prof: prof, maxEvents: maxEvents, sched: policy}
	r.mu.Lock()
	cell, ok := r.workloads[key]
	if !ok && r.noAdmit {
		// Brownout: build without caching. Correct but unshared — two
		// concurrent misses for the same key build twice rather than
		// grow the cache.
		hook := r.fault
		r.perf.WorkloadBypasses++
		r.mu.Unlock()
		return r.buildWorkload(prof, maxEvents, policy, hook)
	}
	if !ok {
		cell = &workloadCell{}
		r.workloads[key] = cell
		cell.elem = r.lru.PushFront(key)
		r.evictLocked()
	} else if cell.elem != nil {
		r.lru.MoveToFront(cell.elem)
	}
	hook := r.fault
	r.mu.Unlock()

	built := false
	cell.once.Do(func() {
		built = true
		cell.w, cell.err = r.buildWorkload(prof, maxEvents, policy, hook)
	})
	if built && cell.err == nil {
		// Fold the finished build into the byte budget — unless a
		// concurrent eviction already dropped the entry.
		b := cell.w.Bytes()
		r.mu.Lock()
		if r.workloads[key] == cell {
			cell.bytes = b
			r.cacheBytes += b
			r.evictLocked()
		}
		r.mu.Unlock()
	}
	if !built && cell.err == nil {
		r.mu.Lock()
		r.perf.WorkloadReuses++
		r.mu.Unlock()
	}
	if cell.err != nil {
		// Drop the failed materialization so it is not sticky. Guard on
		// identity: a concurrent retry may already have replaced the entry.
		r.mu.Lock()
		if r.workloads[key] == cell {
			delete(r.workloads, key)
			if cell.elem != nil {
				r.lru.Remove(cell.elem)
				cell.elem = nil
			}
		}
		r.mu.Unlock()
	}
	return cell.w, cell.err
}

// buildWorkload materializes one workload with fault-hook and perf
// accounting, shared by the cached and cache-bypass paths.
func (r *Runner) buildWorkload(prof workload.Profile, maxEvents int, policy eventq.SchedPolicy, hook FaultHook) (*Workload, error) {
	start := time.Now()
	var w *Workload
	var err error
	if hook != nil {
		if herr := hook(FaultPoint{Op: "build", Label: prof.Name, App: prof.Name}); herr != nil {
			err = fmt.Errorf("esp: workload %s: %w: %w", prof.Name, ErrBuild, herr)
		}
	}
	if err == nil {
		w, err = NewWorkloadSched(prof, maxEvents, policy)
		if err != nil {
			err = fmt.Errorf("esp: workload %s: %w: %w", prof.Name, ErrBuild, err)
		}
	}
	r.mu.Lock()
	r.perf.BuildWall += time.Since(start)
	r.perf.WorkloadBuilds++
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return w, nil
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
// goroutine: the workload is materialized once per (profile, MaxEvents)
// and shared, and a pooled machine is fit to cfg and replays it. label
// names the cell in panic and stop errors. ctx bounds the replay, not
// the build: once it is done no further event
// runs, and the cell fails with ErrTimeout if its deadline passed or
// with ctx's error otherwise. A stopped cell's machine goes straight
// back to the pool (every replay resets first); a panicking machine is
// dropped, never pooled.
func (r *Runner) RunCell(ctx context.Context, label string, prof workload.Profile, cfg Config) (Result, error) {
	w, err := r.WorkloadSched(prof, cfg.MaxEvents, cfg.Sched)
	if err != nil {
		return Result{}, err
	}
	return r.RunWorkload(ctx, label, w, cfg)
}

// RunWorkload is RunCell for an already-materialized workload (e.g. one
// built from a generic source).
func (r *Runner) RunWorkload(ctx context.Context, label string, w *Workload, cfg Config) (Result, error) {
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
