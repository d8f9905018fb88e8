package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	esp "espsim"
	"espsim/internal/checkpoint"
	"espsim/internal/fault"
	"espsim/internal/serve/metrics"
	"espsim/internal/sim"
	"espsim/internal/tenantq"
	"espsim/internal/trace"
)

// MaxRequestBytes bounds a request body, at espd and at espcoord.
const MaxRequestBytes = 8 << 20

// Options configures a Server: what differs between deployments. The
// zero value gets defaults from withDefaults.
type Options struct {
	// Name identifies this daemon in logs and /metrics (espd -name); a
	// coordinator uses it to label fleet members (default "espd").
	Name string
	// Workers bounds how many simulation cells (or sweep batches) run
	// concurrently (default: NumCPU).
	Workers int
	// Logger receives structured request logs (default: slog.Default).
	Logger *slog.Logger
	// CheckpointDir enables crash-safe sweep journaling: sweeps carrying
	// a sweep_id append completed cells to <dir>/<sweep_id>.espj and
	// resume from it. Empty disables journaling.
	CheckpointDir string
	// FaultHook installs a chaos injector on the runner (see
	// sim.FaultHook). Testing only; nil in production.
	FaultHook sim.FaultHook
	// Tenants configures named tenants; any other tenant gets weight 1
	// and no cell budget.
	Tenants map[string]tenantq.TenantConfig
	// MemBudget bounds live workloads in accounted bytes: the cached
	// ones and those a running cell holds, inline traces included. A
	// workload that does not fit even with every idle cached one evicted
	// is dropped, and its cell refused with 503 (kind brownout). 0: no
	// byte bound; the cache still keeps at most 32 workloads.
	MemBudget int64
}

// The serving constants: one value wherever espd runs.
const (
	// queueDepth bounds how many admitted requests may wait for a worker
	// beyond the ones running; a request arriving past
	// Workers+queueDepth is refused with 429.
	queueDepth = 64
	// workloadCap bounds the runner's LRU workload cache in materialized
	// arenas, the only bound on it when MemBudget is 0.
	workloadCap = 32
	// defaultTimeout bounds one cell's simulation when the request does
	// not set timeout_ms.
	defaultTimeout = 2 * time.Minute
	// breakerThreshold consecutive failures quarantine one (app, config)
	// cell, for breakerCooldown before a half-open probe is admitted.
	breakerThreshold = 5
	breakerCooldown  = 30 * time.Second
)

func (o Options) withDefaults() Options {
	if o.Name == "" {
		o.Name = "espd"
	}
	if o.Workers < 1 {
		o.Workers = runtime.NumCPU()
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// Server is the espd simulation service. One Server owns one sim.Runner
// — so every request shares the LRU workload cache and the pooled
// machines, at most one per worker slot — plus the admission machinery
// (worker slots, queue tickets) and the metrics runCell records.
//
// Create with New, mount anywhere via http.Handler, stop with Drain.
type Server struct {
	opt    Options
	log    *slog.Logger
	runner *sim.Runner
	met    *metrics.Metrics

	// tickets bounds admitted requests at Workers+queueDepth; the last
	// rung of admit's ladder refuses a request that cannot take one
	// without blocking (429). tq is the execution bound — Workers slots
	// handed out by weighted fair queueing across tenants, with
	// per-tenant cell budgets.
	tickets chan struct{}
	tq      *tenantq.Queue

	// est predicts cell wall times for deadline-aware admission.
	est *estimator

	// exec wraps every sweep cell in the recovery stack: breaker
	// admission, bounded retries with jittered backoff.
	exec *fault.Executor

	// activeSweeps guards the checkpoint journals: at most one in-flight
	// sweep per sweep_id, so two concurrent resubmissions cannot
	// interleave appends into one file. openJournals tracks the live
	// handles so Close can fsync-release any a handler has not yet.
	sweepMu      sync.Mutex
	activeSweeps map[string]struct{}
	openJournals map[string]*sweepJournal

	draining atomic.Bool
	inflight sync.WaitGroup

	mux *http.ServeMux
}

// New assembles a Server.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		opt:          opt,
		log:          opt.Logger,
		runner:       sim.NewRunner(),
		met:          metrics.New(),
		tickets:      make(chan struct{}, opt.Workers+queueDepth),
		est:          newEstimator(),
		activeSweeps: make(map[string]struct{}),
		openJournals: make(map[string]*sweepJournal),
		mux:          http.NewServeMux(),
	}
	s.tq = tenantq.New(tenantq.Options{Slots: opt.Workers, Tenants: opt.Tenants})
	breakers := fault.NewBreakerSet(breakerThreshold, breakerCooldown)
	s.exec = fault.NewExecutor(fault.RetryPolicy{}, breakers, fault.Retryable, 1)
	s.runner.SetWorkloadCap(workloadCap)
	s.runner.SetWorkloadBudget(opt.MemBudget)
	if opt.FaultHook != nil {
		s.runner.SetFaultHook(opt.FaultHook)
	}
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/sweep", s.handleSweep)
	s.mux.HandleFunc("/journalz", s.handleJournalz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s
}

// Close fsyncs and releases every sweep journal still open — the last
// step of a clean shutdown, after Drain has returned (or given up).
// Handlers normally close their own journals on the way out; Close
// covers the drain-deadline case where a handler was abandoned mid
// sweep, so the journal on disk ends bit-complete with no torn tail
// for the resuming daemon (or a peer adopting the shard) to truncate.
// Journal closes are idempotent, making the handler/Close race safe.
func (s *Server) Close() error {
	s.sweepMu.Lock()
	open := make(map[string]*sweepJournal, len(s.openJournals))
	for id, jr := range s.openJournals {
		open[id] = jr
	}
	s.sweepMu.Unlock()
	var first error
	for id, jr := range open {
		if err := jr.close(); err != nil {
			s.met.JournalErrors.Add(1)
			s.log.Error("closing sweep journal", "sweep_id", id, "err", err.Error())
			if first == nil {
				first = err
			}
		}
	}
	return first
}

// Runner exposes the engine, so an embedding process can pre-warm the
// cache or read Perf directly.
func (s *Server) Runner() *sim.Runner { return s.runner }

// ServeHTTP implements http.Handler with panic isolation: a panic that
// escapes a handler (the runner already contains simulation panics) is
// answered with 500 instead of killing the daemon's connection.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			s.log.Error("handler panic", "path", r.URL.Path, "panic", fmt.Sprint(p))
			writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error"))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// BeginDrain flips the server not-ready without waiting: new work gets
// 503, /readyz fails so load balancers stop routing, in-flight requests
// keep running. Call it before http.Server.Shutdown so readiness turns
// false while connections are still being served, then Drain to wait.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
}

// Drain stops admitting work (every endpoint but /healthz and /metrics
// answers 503, /readyz reports not ready) and waits for in-flight
// requests, bounded by ctx. Call after http.Server.Shutdown has stopped
// accepting connections.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// begin opens a POST endpoint: method check, request counter, the
// drain gate (503 while draining), and a bounded body. ok false means
// the response is written; otherwise exit must run when the handler
// returns.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, requests *atomic.Int64) (body []byte, exit func(), ok bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return nil, nil, false
	}
	requests.Add(1)
	s.inflight.Add(1)
	if s.draining.Load() {
		s.inflight.Done()
		s.met.Draining.Add(1)
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server is draining"))
		return nil, nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		s.inflight.Done()
		s.fail(w, invalid(fmt.Errorf("reading request body: %w", err)))
		return nil, nil, false
	}
	return body, s.inflight.Done, true
}

// grid is what the admission ladder sees of a request: whose it is,
// which cells it asks for, how large each is, and by when. /run is a
// one-cell grid.
type grid struct {
	tenant    string
	apps      []string
	configs   []string
	sched     string
	maxEvents int
	scale     float64
	deadline  time.Time
}

// admit is the refusal ladder every request climbs, cheapest refusal
// first: deadline shed (every cell provably misses the deadline, so
// nothing is simulated), then a queue ticket. A refusal comes back
// accounted, its fault.ErrorKind choosing the status; otherwise release
// must be called exactly once.
func (s *Server) admit(g grid) (release func(), err error) {
	cells := len(g.apps) * len(g.configs)
	if s.allShed(g) {
		return nil, s.refuse(g.tenant, fmt.Errorf("%w: no cell can finish within the deadline", tenantq.ErrDeadlineShed), cells)
	}
	select {
	case s.tickets <- struct{}{}:
		return func() { <-s.tickets }, nil
	default:
		return nil, s.refuse(g.tenant, fmt.Errorf("%w (%d in flight)", errQueueFull, cap(s.tickets)), cells)
	}
}

// allShed reports whether every cell of g provably cannot finish by its
// deadline (never true without one).
func (s *Server) allShed(g grid) bool {
	if g.deadline.IsZero() {
		return false
	}
	now := time.Now()
	for _, name := range g.configs {
		cfg, err := cellConfig(name, g.sched, 0, 0)
		if err != nil {
			return false // unresolvable: the cell path reports it
		}
		for _, app := range g.apps {
			if !s.est.cannotFinish(cellKey(app, cfg.Name, g.maxEvents, g.scale), g.deadline, now) {
				return false
			}
		}
	}
	return true
}

// errQueueFull refuses a request that finds every queue ticket taken.
var errQueueFull = fault.Sentinel("serve: queue full", fault.KindQuota)

// refuse accounts a refusal of cells on tenant's behalf, in the global
// overload counters and the tenant's /metrics row, and returns it.
// tenantq counts its own quota refusals per tenant.
func (s *Server) refuse(tenant string, err error, cells int) error {
	switch {
	case errors.Is(err, sim.ErrMemory):
		s.met.BrownoutRejected.Add(int64(cells))
		s.tq.CountBrownout(tenant, int64(cells))
	case errors.Is(err, tenantq.ErrDeadlineShed):
		s.met.DeadlineShed.Add(int64(cells))
		s.tq.CountShed(tenant, int64(cells))
	case errors.Is(err, tenantq.ErrQuota):
		s.met.QuotaRejected.Add(int64(cells))
	case errors.Is(err, errQueueFull):
		s.met.Rejected.Add(1)
	}
	return err
}

// runCell runs one cell the way both endpoints do: it resolves the
// machine configuration and the workload (a preset through the
// runner's cache, or an inline trace), sheds the cell when queueing
// left too little of the deadline, and replays it on the calling
// goroutine under ctx bounded by timeout and by what remains of the
// deadline, so the cell stops when either passes or ctx ends (its
// client left). The time bounds a preset's workload lookup or build as
// well as its replay. A cell whose workload does not fit the memory
// budget is refused. It records the cell's metrics and feeds the wall
// time to the estimator. op ("run" or "sweep") prefixes the cell's
// label.
func (s *Server) runCell(ctx context.Context, tenant, op string, c RunRequest, timeout time.Duration, deadline time.Time) (esp.Result, error) {
	app, cfg, run, err := resolve(s.runner, c)
	if err != nil {
		return esp.Result{}, err
	}
	key := cellKey(app, cfg.Name, c.MaxEvents, c.Scale)
	start := time.Now()
	if !deadline.IsZero() {
		if s.est.cannotFinish(key, deadline, start) {
			return esp.Result{}, s.refuse(tenant, fmt.Errorf("%w: %s/%s cannot finish within what queueing left of the deadline",
				tenantq.ErrDeadlineShed, app, cfg.Name), 1)
		}
		timeout = min(timeout, deadline.Sub(start))
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	res, err := run(ctx, op+"/"+app+"/"+cfg.Name)
	cancel()
	if errors.Is(err, sim.ErrMemory) {
		return esp.Result{}, s.refuse(tenant, err, 1)
	}
	wall := time.Since(start)
	s.met.CellLatency.Observe(wall)
	timedOut := errors.Is(err, sim.ErrTimeout)
	if err == nil || timedOut {
		// A timed-out cell would have run at least this long: the lower
		// bound is evidence too.
		s.est.observe(key, wall)
	}
	if timedOut {
		s.met.Timeouts.Add(1)
	}
	if err != nil {
		s.met.CellErrors.Add(1)
	} else {
		s.met.CellsOK.Add(1)
	}
	return res, err
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	body, exit, ok := s.begin(w, r, &s.met.RunRequests)
	if !ok {
		return
	}
	defer exit()
	req, err := ParseRunRequest(body)
	var tenant string
	if err == nil {
		tenant, err = ResolveTenant(req.Tenant, r.Header.Get(TenantHeader))
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	deadline := deadlineOf(req.DeadlineMs, time.Now())
	release, err := s.admit(grid{tenant: tenant, apps: []string{req.workloadName()}, configs: []string{req.Config},
		sched: req.Sched, maxEvents: req.MaxEvents, scale: req.Scale, deadline: deadline})
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()
	releaseSlot, err := s.tq.Acquire(r.Context(), tenant, 1)
	if err != nil {
		s.fail(w, s.refuse(tenant, err, 1))
		return
	}
	defer releaseSlot()

	// One attempt, no breaker: a /run client retries for itself.
	start := time.Now()
	res, err := s.runCell(r.Context(), tenant, "run", req, timeoutOf(req.TimeoutMs), deadline)
	wall := time.Since(start)
	if err != nil {
		status := s.fail(w, err)
		s.log.Log(r.Context(), failLevel(status), "run", "app", req.workloadName(), "config", req.Config, "status", status, "wall_ms", wall.Milliseconds(), "err", err.Error())
		return
	}
	s.log.Info("run", "app", req.workloadName(), "config", req.Config, "status", http.StatusOK, "wall_ms", wall.Milliseconds())
	writeJSON(w, http.StatusOK, RunResponse{Result: res, WallMs: float64(wall.Microseconds()) / 1e3})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	body, exit, ok := s.begin(w, r, &s.met.SweepRequests)
	if !ok {
		return
	}
	defer exit()
	req, err := ParseSweepRequest(body)
	var tenant string
	if err == nil {
		tenant, err = ResolveTenant(req.Tenant, r.Header.Get(TenantHeader))
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	apps := req.Apps
	if len(apps) == 0 {
		apps = appNames()
	}
	if req.Shard != "" {
		s.met.ShardRequests.Add(1)
	}
	arrival := time.Now()
	deadline := deadlineOf(req.DeadlineMs, arrival)

	// The whole sweep is one admission unit. A grid that cannot finish
	// in time still answers every cell — shed, with zero simulation and
	// no journal claim; a coordinator propagating an exhausted budget
	// (negative deadline_ms) always lands here.
	release, err := s.admit(grid{tenant: tenant, apps: apps, configs: req.Configs, sched: req.Sched,
		maxEvents: req.MaxEvents, scale: req.Scale, deadline: deadline})
	if errors.Is(err, tenantq.ErrDeadlineShed) {
		cells := make([]SweepCell, 0, len(apps)*len(req.Configs))
		for _, app := range apps {
			for _, name := range req.Configs {
				cells = append(cells, SweepCell{App: app, Config: name, Error: err.Error(), ErrorKind: string(fault.KindShed)})
			}
		}
		s.log.Info("sweep shed", "tenant", tenant, "cells", len(cells), "deadline_ms", req.DeadlineMs)
		writeJSON(w, http.StatusGatewayTimeout, SweepResponse{Cells: cells, WallMs: float64(time.Since(arrival).Microseconds()) / 1e3})
		return
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	defer release()

	// Checkpoint/resume: a sweep_id on a journaling server replays
	// completed cells from disk and appends new ones as they finish. The
	// id is claimed for the duration of the sweep so concurrent
	// resubmissions cannot interleave appends into one file.
	var jr *sweepJournal
	if req.SweepID != "" && s.opt.CheckpointDir != "" {
		if !s.claimSweep(req.SweepID) {
			s.met.SweepConflict.Add(1)
			writeError(w, http.StatusConflict, fmt.Errorf("sweep %q is already running", req.SweepID))
			return
		}
		defer s.releaseSweep(req.SweepID)
		jr, err = openSweepJournal(s.opt.CheckpointDir, apps, req, s.log)
		if err != nil {
			if errors.Is(err, errSweepConflict) {
				s.met.SweepConflict.Add(1)
				writeError(w, http.StatusConflict, err)
				return
			}
			s.log.Error("sweep journal", "sweep_id", req.SweepID, "err", err.Error())
			writeError(w, http.StatusInternalServerError, fmt.Errorf("opening sweep journal: %w", err))
			return
		}
		s.trackJournal(req.SweepID, jr)
		defer s.untrackJournal(req.SweepID, jr)
	}

	// Each application is one batch that holds a worker slot while its
	// configurations run back to back, so they share the materialized
	// workload and reuse pooled machines with no interleaving cells
	// evicting them.
	start := time.Now()
	cells := make([]SweepCell, len(apps)*len(req.Configs))
	var wg sync.WaitGroup
	for ai, app := range apps {
		wg.Add(1)
		go func(ai int, app string) {
			defer wg.Done()
			batch := cells[ai*len(req.Configs) : (ai+1)*len(req.Configs)]
			outstanding := 0
			for ci, name := range req.Configs {
				batch[ci] = SweepCell{App: app, Config: name}
				if res := jr.resumed(app, name); res != nil {
					batch[ci].Result = res
					batch[ci].Resumed = true
					s.met.ResumedCells.Add(1)
				} else {
					outstanding++
				}
			}
			if outstanding == 0 {
				return // fully resumed: no worker slot needed
			}
			// The batch's fair-queue cost is its outstanding cell count,
			// so a tenant sweeping the full grid weighs accordingly
			// against a tenant running single cells.
			releaseSlot, err := s.tq.Acquire(r.Context(), tenant, outstanding)
			if err != nil {
				s.refuse(tenant, err, outstanding)
				for ci := range batch {
					if batch[ci].Result == nil {
						batch[ci].Error = fmt.Sprintf("batch not admitted: %v", err)
						batch[ci].ErrorKind = string(fault.Classify(err))
					}
				}
				return
			}
			defer releaseSlot()
			s.runBatch(r.Context(), tenant, req, batch, deadline, jr)
		}(ai, app)
	}
	wg.Wait()
	wall := time.Since(start)

	failed, skipped, resumed, shed := 0, 0, 0, 0
	for i := range cells {
		switch {
		case cells[i].ErrorKind == string(fault.KindShed):
			shed++
			failed++
		case cells[i].Error != "":
			failed++
		case cells[i].Skipped != "":
			skipped++
		case cells[i].Resumed:
			resumed++
		}
	}
	status := http.StatusOK
	if len(cells) > 0 && shed == len(cells) {
		// Nothing at all could run in time: the partial-results contract
		// still holds (every cell is present), but the status says so.
		status = http.StatusGatewayTimeout
	}
	s.log.Info("sweep", "apps", len(apps), "configs", len(req.Configs), "cells", len(cells), "failed", failed,
		"skipped", skipped, "resumed", resumed, "shed", shed, "tenant", tenant, "shard", req.Shard, "wall_ms", wall.Milliseconds())
	writeJSON(w, status, SweepResponse{Cells: cells, WallMs: float64(wall.Microseconds()) / 1e3})
}

// claimSweep registers a sweep_id as in flight; false means another
// request holds it.
func (s *Server) claimSweep(id string) bool {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	if _, busy := s.activeSweeps[id]; busy {
		return false
	}
	s.activeSweeps[id] = struct{}{}
	return true
}

func (s *Server) releaseSweep(id string) {
	s.sweepMu.Lock()
	delete(s.activeSweeps, id)
	s.sweepMu.Unlock()
}

// trackJournal registers a live journal handle for Close.
func (s *Server) trackJournal(id string, jr *sweepJournal) {
	s.sweepMu.Lock()
	s.openJournals[id] = jr
	s.sweepMu.Unlock()
}

// untrackJournal closes a sweep's journal (fsync included) and drops it
// from the registry; append errors already counted, so only the close
// failure is reported here.
func (s *Server) untrackJournal(id string, jr *sweepJournal) {
	s.sweepMu.Lock()
	delete(s.openJournals, id)
	s.sweepMu.Unlock()
	if err := jr.close(); err != nil {
		s.met.JournalErrors.Add(1)
		s.log.Error("closing sweep journal", "sweep_id", id, "err", err.Error())
	}
}

// runBatch executes one application's outstanding cells sequentially on
// the calling worker, each through runCell under the full recovery
// stack: breaker admission (a quarantined cell is skipped, not
// attempted), bounded retries with backoff for retryable failures,
// structured per-cell errors, and a journal append for every success.
// The workload is materialized (or LRU-hit) once for the whole batch:
// once its build is refused for memory, the batch's remaining cells
// fail with that refusal instead of building again. A cell that
// provably cannot finish by the request deadline is shed (never
// simulated) so the rest of the grid comes back as partial results.
func (s *Server) runBatch(ctx context.Context, tenant string, req SweepRequest, batch []SweepCell, deadline time.Time, jr *sweepJournal) {
	timeout := timeoutOf(req.TimeoutMs)
	var refused error
	for ci := range batch {
		cell := &batch[ci]
		if cell.Result != nil {
			continue // resumed from the journal
		}
		if refused != nil {
			s.refuse(tenant, refused, 1)
			cell.Error = refused.Error()
			cell.ErrorKind = string(fault.KindBrownout)
			continue
		}
		if ctx.Err() != nil {
			// The client is gone: stop burning worker time. Journaled
			// cells survive for the resubmission.
			cell.Error = fmt.Sprintf("batch canceled: %v", ctx.Err())
			cell.ErrorKind = string(fault.KindCanceled)
			continue
		}
		// The breaker key carries the resolved name runCell estimates
		// under, so "sched" splits it as an "@policy" suffix does.
		cfg, err := cellConfig(cell.Config, req.Sched, 0, 0)
		if err != nil {
			cell.Error = invalid(err).Error()
			cell.ErrorKind = string(fault.KindConfig)
			continue
		}
		c := RunRequest{App: cell.App, Config: cell.Config, Scale: req.Scale, MaxEvents: req.MaxEvents, MaxPending: req.MaxPending, Sched: req.Sched}
		key := cell.App + "/" + cfg.Name
		var res esp.Result
		out := s.exec.Run(ctx, key, func(attempt int) error {
			var err error
			res, err = s.runCell(ctx, tenant, "sweep", c, timeout, deadline)
			if err != nil {
				s.log.Warn("sweep cell", "cell", key, "attempt", attempt, "err", err.Error())
			}
			return err
		})
		cell.Attempts = out.Attempts
		if out.Skipped {
			cell.Skipped = "breaker_open"
			continue
		}
		if out.Err != nil {
			cell.Error = out.Err.Error()
			cell.ErrorKind = string(fault.Classify(out.Err))
			if errors.Is(out.Err, sim.ErrMemory) {
				refused = out.Err
			}
			continue
		}
		cell.Result = &res
		if err := jr.append(cell.App, cell.Config, res); err != nil {
			s.met.JournalErrors.Add(1)
			s.log.Error("sweep journal append", "cell", key, "err", err.Error())
		}
	}
}

// journalzResponse is the GET /journalz view of one sweep journal: the
// header meta plus the "app/config" cells already journaled, and
// whether the tail is torn. It is an operator's peek at which cells are
// durable; no fleet code calls it.
type journalzResponse struct {
	Meta  checkpoint.Meta `json:"meta"`
	Cells []string        `json:"cells"`
	Torn  bool            `json:"torn,omitempty"`
}

func (s *Server) handleJournalz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	id := r.URL.Query().Get("sweep_id")
	if id == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("\"sweep_id\" query parameter is required"))
		return
	}
	if err := validateID("sweep_id", id); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.opt.CheckpointDir == "" {
		writeError(w, http.StatusNotFound, fmt.Errorf("checkpointing is disabled on this daemon"))
		return
	}
	s.met.JournalPeeks.Add(1)
	meta, records, torn, err := checkpoint.Peek(filepath.Join(s.opt.CheckpointDir, id+".espj"))
	switch {
	case errors.Is(err, os.ErrNotExist):
		writeError(w, http.StatusNotFound, fmt.Errorf("no journal for sweep %q", id))
		return
	case errors.Is(err, checkpoint.ErrCorrupt):
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp := journalzResponse{Meta: meta, Cells: make([]string, 0, len(records)), Torn: torn}
	for _, raw := range records {
		var rec journalRecord
		if json.Unmarshal(raw, &rec) == nil {
			resp.Cells = append(resp.Cells, rec.App+"/"+rec.Config)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	snap := s.met.Snapshot()
	snap.Node = s.opt.Name
	perf := s.runner.Perf()
	live, peak := s.runner.LiveBytes()
	snap.Engine = metrics.Engine{
		Cells:          perf.Cells,
		WorkloadBuilds: perf.WorkloadBuilds,
		WorkloadReuses: perf.WorkloadReuses,
		WorkloadEvicts: perf.WorkloadEvicts,
		LiveBytes:      live,
		LivePeakBytes:  peak,
		MachineBuilds:  perf.MachineBuilds,
		MachineReuses:  perf.MachineReuses,
		BuildWallMs:    perf.BuildWall.Milliseconds(),
		SimWallMs:      perf.SimWall.Milliseconds(),
	}
	if perf.SchedCells > 0 {
		se := &metrics.SchedEngine{
			Cells:              perf.SchedCells,
			Events:             perf.SchedEvents,
			Deadlined:          perf.Deadlined,
			DeadlineMisses:     perf.DeadlineMisses,
			PriorityInversions: perf.PriorityInversions,
		}
		if perf.Deadlined > 0 {
			se.MissRate = float64(perf.DeadlineMisses) / float64(perf.Deadlined)
		}
		for c := 1; c < trace.NumEventClasses; c++ {
			cp := perf.SchedClasses[c]
			if cp.Events == 0 {
				continue
			}
			se.Classes = append(se.Classes, metrics.SchedEngineClass{
				Class:     trace.EventClass(c).String(),
				Events:    cp.Events,
				Deadlined: cp.Deadlined,
				Misses:    cp.Misses,
				P50:       cp.P50Sum / float64(cp.Events),
				P95:       cp.P95Sum / float64(cp.Events),
				P99:       cp.P99Sum / float64(cp.Events),
			})
		}
		snap.Engine.Sched = se
	}
	snap.Queue.Depth = int64(len(s.tickets))
	snap.Queue.Capacity = cap(s.tickets)
	snap.Queue.Workers = s.opt.Workers
	snap.Tenants = s.tq.Snapshot()
	breakers := s.exec.Breakers()
	snap.Resilience.Retries = s.exec.Retries()
	snap.Resilience.BreakerTrips = breakers.Trips()
	snap.Resilience.BreakerSkips = breakers.Skips()
	snap.Resilience.BreakerOpen = int64(breakers.OpenCount())
	writeJSON(w, http.StatusOK, snap)
}

type healthResponse struct {
	Status   string `json:"status"`
	UptimeMs int64  `json:"uptime_ms"`
}

// handleHealthz is liveness: the process is up and serving — 200 even
// while draining (a draining daemon is alive; killing it because a
// probe failed would abort the drain). Routability is /readyz's job.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	h := healthResponse{Status: "ok", UptimeMs: s.met.Snapshot().UptimeMs}
	if s.draining.Load() {
		h.Status = "draining"
	}
	writeJSON(w, http.StatusOK, h)
}

type readyResponse struct {
	Status      string `json:"status"`
	BreakerOpen int    `json:"breaker_open,omitempty"`
	PresetCells int    `json:"preset_cells,omitempty"`
}

// handleReadyz is readiness: 503 while draining, and 503 while the
// circuit breakers have quarantined more than half the preset
// (app, config) grid — a daemon whose engine is mostly quarantined
// should shed traffic to healthier replicas rather than answer sweeps
// full of breaker_open cells.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	resp := readyResponse{
		Status:      "ready",
		BreakerOpen: s.exec.Breakers().OpenCount(),
		PresetCells: len(appNames()) * len(esp.ConfigNames()),
	}
	code := http.StatusOK
	switch {
	case s.draining.Load():
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	case resp.BreakerOpen*2 > resp.PresetCells:
		resp.Status = "quarantined"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// statusClientGone is the nginx-convention 499 "client closed request":
// the client's context died while the request waited for a worker or
// while its cell ran.
const statusClientGone = 499

// HTTPStatus maps a fault.ErrorKind to the status espd and espcoord
// answer with, for refusals and failed cells alike. Every kind is
// listed, so adding one revisits this table.
func HTTPStatus(k fault.ErrorKind) int {
	switch k {
	case fault.KindNone:
		return http.StatusOK
	case fault.KindConfig:
		return http.StatusBadRequest
	case fault.KindQuota:
		return http.StatusTooManyRequests
	case fault.KindCanceled:
		return statusClientGone
	case fault.KindBrownout, fault.KindBreakerOpen:
		return http.StatusServiceUnavailable
	case fault.KindTimeout, fault.KindShed:
		return http.StatusGatewayTimeout
	case fault.KindNet:
		return http.StatusBadGateway
	case fault.KindPanic, fault.KindBuild, fault.KindInjected, fault.KindError:
		return http.StatusInternalServerError
	}
	return http.StatusInternalServerError
}

// failLevel is the log level of a request that failed with status:
// Error for a fault of the server or of a worker behind it (500, 502),
// Warn for what the client caused or the server refused by design (4xx,
// 499, 503 overload or draining, 504 the client's own timeout or
// deadline).
func failLevel(status int) slog.Level {
	if status == http.StatusInternalServerError || status == http.StatusBadGateway {
		return slog.LevelError
	}
	return slog.LevelWarn
}

// fail answers err with the status its kind maps to and returns that
// status; a 400 also counts as a bad request.
func (s *Server) fail(w http.ResponseWriter, err error) int {
	status := HTTPStatus(fault.Classify(err))
	if status == http.StatusBadRequest {
		s.met.BadRequests.Add(1)
	}
	writeError(w, status, err)
	return status
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the status line is gone; nothing left to signal
}
