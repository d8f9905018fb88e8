package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"espsim/internal/fault"
	"espsim/internal/serve"
	"espsim/internal/tenantq"
	"espsim/internal/workload"
)

// Options configures a Coordinator: what differs between deployments.
type Options struct {
	// Workers is the fleet, in a stable order (placement hashes names,
	// so order only affects log readability). Required, names unique.
	Workers []Worker
	// Tenants mirrors espd's fair-queue configuration at the
	// coordination layer (unnamed tenants get weight 1, no cell
	// budget): a sweep is admitted against its tenant's weight and
	// budget (cost: the whole grid's cell count) before any shard is
	// dispatched, so one greedy tenant queues behind its share of the
	// fleet instead of flooding it. At most tenantSlots sweeps per
	// worker are admitted at once.
	Tenants map[string]tenantq.TenantConfig
	// Logger receives scheduling decisions (default slog.Default).
	Logger *slog.Logger
}

// The coordination constants: one value wherever espcoord runs.
const (
	// maxShardAttempts bounds how many workers a shard may burn before
	// its cells are reported failed.
	maxShardAttempts = 3
	// nodeBreakerThreshold consecutive failures quarantine a worker for
	// nodeBreakerCooldown; consecutive re-trips double the quarantine up
	// to nodeBreakerMaxCooldown.
	nodeBreakerThreshold   = 2
	nodeBreakerCooldown    = 15 * time.Second
	nodeBreakerMaxCooldown = 2 * time.Minute
	// tenantSlots is how many sweeps per worker the fleet-wide tenant
	// queue admits at once.
	tenantSlots = 64
)

// maxCoordSweepID bounds a coordinated sweep_id so the shard-scoped
// "<id>.<app>" journal names stay within the worker's 64-char limit.
const maxCoordSweepID = 48

// Coordinator shards sweeps across a fleet of espd workers. One
// Coordinator serves many Run calls; node breakers and counters are
// fleet state, shared across sweeps. A worker's /sweep answers are all
// it knows of that worker.
type Coordinator struct {
	log      *slog.Logger
	names    []string // placement domain, stable order
	workers  map[string]Worker
	breakers *fault.BreakerSet
	tq       *tenantq.Queue
	met      counters
}

// New assembles a Coordinator.
func New(opt Options) (*Coordinator, error) {
	if len(opt.Workers) == 0 {
		return nil, errors.New("cluster: at least one worker is required")
	}
	if opt.Logger == nil {
		opt.Logger = slog.Default()
	}
	c := &Coordinator{
		log:      opt.Logger,
		workers:  make(map[string]Worker, len(opt.Workers)),
		breakers: fault.NewEscalatingBreakerSet(nodeBreakerThreshold, nodeBreakerCooldown, nodeBreakerMaxCooldown),
		tq:       tenantq.New(tenantq.Options{Slots: tenantSlots * len(opt.Workers), Tenants: opt.Tenants}),
	}
	for _, w := range opt.Workers {
		name := w.Name()
		if name == "" {
			return nil, errors.New("cluster: worker with an empty name")
		}
		if _, dup := c.workers[name]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker name %q", name)
		}
		c.workers[name] = w
		c.names = append(c.names, name)
	}
	return c, nil
}

// Metrics renders the coordinator's snapshot, one worker row per
// fleet member in stable order.
func (c *Coordinator) Metrics() Snapshot {
	s := c.met.snapshot()
	for _, name := range c.names {
		s.Workers = append(s.Workers, WorkerState{Name: name, Breaker: c.breakers.StateOf(name)})
	}
	s.Quarantine.Trips = c.breakers.Trips()
	s.Quarantine.Skips = c.breakers.Skips()
	s.Quarantine.Open = int64(c.breakers.OpenCount())
	return s
}

// Run shards req application-by-application across the fleet and
// merges the shard responses into one grid, cells in app-major
// request order — the same shape a single espd answers. Shard
// failures degrade to per-cell errors; Run itself only fails on an
// invalid request (serve.ErrInvalid), a tenant-gate refusal, or a
// canceled context — each classified for serve.HTTPStatus.
func (c *Coordinator) Run(ctx context.Context, req serve.SweepRequest) (serve.SweepResponse, error) {
	if len(req.Configs) == 0 {
		return serve.SweepResponse{}, fmt.Errorf("%w: cluster: configs required", serve.ErrInvalid)
	}
	if len(req.SweepID) > maxCoordSweepID {
		return serve.SweepResponse{}, fmt.Errorf("%w: cluster: sweep_id must be at most %d characters (shard journals append \".<app>\"), got %d",
			serve.ErrInvalid, maxCoordSweepID, len(req.SweepID))
	}
	apps := req.Apps
	if len(apps) == 0 {
		apps = suiteApps()
	}
	owners, err := c.place(apps, req)
	if err != nil {
		return serve.SweepResponse{}, err
	}

	// Fair-queue admission: the whole grid is one acquisition at its
	// cell-count cost, against the tenant's weight and cell budget. A
	// greedy tenant's sweeps queue here — behind its fair share — while
	// other tenants' sweeps overtake; a breached budget fails fast with
	// ErrQuota. Every shard request names the tenant, so the workers
	// account the same one.
	if req.Tenant == "" {
		req.Tenant = tenantq.DefaultTenant
	}
	releaseTenant, err := c.tq.Acquire(ctx, req.Tenant, len(apps)*len(req.Configs))
	if err != nil {
		return serve.SweepResponse{}, fmt.Errorf("cluster: tenant %s: %w", req.Tenant, err)
	}
	defer releaseTenant()

	// The deadline is anchored here: every shard dispatch re-derives
	// the worker-relative deadline_ms from what remains, so time spent
	// queued or rescheduled at the coordinator eats the same budget the
	// client is watching.
	arrival := time.Now()
	var deadline time.Time
	if req.DeadlineMs != 0 {
		deadline = arrival.Add(time.Duration(req.DeadlineMs) * time.Millisecond)
	}

	shards := make([]*shard, len(apps))
	for i, app := range apps {
		shards[i] = &shard{app: app, preferred: owners[app]}
		c.log.Info("cluster placement", "app", app, "worker", owners[app])
	}
	q := newShardQueue(shards)

	// Cancellation and breaker-cooldown re-checks run beside the worker
	// loops for the sweep's duration.
	runCtx, stop := context.WithCancel(ctx)
	defer stop()
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		ticker := time.NewTicker(25 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-runCtx.Done():
				q.close()
				return
			case <-ticker.C:
				q.poke()
			}
		}
	}()

	start := time.Now()
	merged := &mergeSet{cells: make(map[string][]serve.SweepCell, len(apps))}
	var wg sync.WaitGroup
	for _, name := range c.names {
		wg.Add(1)
		go func(w Worker) {
			defer wg.Done()
			c.runWorker(runCtx, w, q, req, deadline, merged)
		}(c.workers[name])
	}
	wg.Wait()
	stop()
	aux.Wait()
	if err := ctx.Err(); err != nil {
		return serve.SweepResponse{}, fmt.Errorf("cluster: sweep canceled: %w", err)
	}

	resp := serve.SweepResponse{WallMs: float64(time.Since(start).Microseconds()) / 1e3}
	for _, app := range apps {
		resp.Cells = append(resp.Cells, merged.get(app)...)
	}
	c.met.SweepsDone.Add(1)
	return resp, nil
}

// runWorker is one fleet member's scheduling loop: take a shard
// (affinity first, then rescheduled shards and stragglers' queued
// ones), run it, merge or reschedule. The node breaker gates admission
// — a quarantined worker waits instead of burning shard attempts — and
// only shard attempts feed it. A worker that refuses the shard's
// journal (409: written for another grid, or corrupt) runs it again at
// once without one; the refusal is no node failure and consumes no
// attempt. Once the sweep's context is done, the attempt that returns
// is discarded whatever it answered, and the loop ends: a canceled
// attempt says nothing about its node, so a half-open breaker gets its
// attempt back for the next sweep.
func (c *Coordinator) runWorker(ctx context.Context, w Worker, q *shardQueue, req serve.SweepRequest, deadline time.Time, merged *mergeSet) {
	name := w.Name()
	allowed := func() bool { return c.breakers.Allow(name) }
	healthy := func(owner string) bool { return c.breakers.StateOf(owner) == "closed" }
	for {
		sh := q.take(name, allowed, healthy)
		if sh == nil {
			return
		}
		if sh.preferred != name {
			c.met.Steals.Add(1)
			c.log.Info("cluster steal", "app", sh.app, "worker", name, "preferred", sh.preferred)
		}
		start := time.Now()
		resp, err := w.Sweep(ctx, shardRequest(req, sh, deadline))
		if journalRefused(err) && ctx.Err() == nil {
			// Journal-less, the worker recomputes every cell rather
			// than splice another grid's, and cannot answer 409 again.
			sh.noJournal = true
			c.met.DigestMismatches.Add(1)
			c.log.Warn("cluster shard journal refused, rerunning without it", "app", sh.app, "worker", name, "err", err.Error())
			resp, err = w.Sweep(ctx, shardRequest(req, sh, deadline))
		}
		if ctx.Err() != nil {
			c.breakers.Release(name)
			return
		}
		c.log.Info("cluster shard done", "app", sh.app, "worker", name,
			"wall_ms", float64(time.Since(start).Microseconds())/1e3)
		c.breakers.Record(name, err == nil)
		if err != nil {
			if fault.Classify(err) == fault.KindNet {
				c.met.NetFaults.Add(1)
			}
			c.log.Warn("cluster shard attempt failed", "app", sh.app, "worker", name, "err", err.Error())
			sh.attempts++
			if sh.attempts >= maxShardAttempts {
				c.met.ShardsFailed.Add(1)
				merged.fail(sh.app, req.Configs, err)
				q.done(sh)
				continue
			}
			c.met.Reschedules.Add(1)
			q.requeue(sh)
			continue
		}
		resumed := 0
		for _, cell := range resp.Cells {
			switch {
			case cell.Resumed:
				resumed++
			case cell.ErrorKind == string(fault.KindShed):
				c.met.CellsShed.Add(1)
			}
		}
		c.met.ResumedCells.Add(int64(resumed))
		if resumed > 0 && sh.attempts > 0 {
			// A failed attempt's journal, in the fleet's shared
			// directory, was adopted by this worker.
			c.met.JournalHandoffs.Add(1)
			c.log.Info("cluster handoff: journal adopted", "app", sh.app, "worker", name, "cells", resumed)
		}
		merged.put(sh.app, resp.Cells)
		c.met.ShardsDone.Add(1)
		q.done(sh)
	}
}

// shardRequest scopes the sweep request to one shard: a single app,
// the shard label, and a shard-scoped sweep_id so each worker
// journals its own slice of the grid (and a handed-off shard resumes
// the dead worker's journal by name). The worker-relative deadline_ms
// is re-derived from what remains of the coordinator's anchored
// deadline — negative once the budget is spent, which the worker
// answers with an immediate full-shed response.
func shardRequest(req serve.SweepRequest, sh *shard, deadline time.Time) serve.SweepRequest {
	sreq := req
	sreq.Apps = []string{sh.app}
	sreq.Shard = sh.app
	if req.SweepID != "" && !sh.noJournal {
		sreq.SweepID = req.SweepID + "." + sh.app
	} else {
		sreq.SweepID = ""
	}
	if !deadline.IsZero() {
		rem := time.Until(deadline).Milliseconds()
		if rem <= 0 {
			rem = -1
		}
		sreq.DeadlineMs = rem
	}
	return sreq
}

// Placements reports the owner of every suite application in a
// default full-suite sweep — the map GET /workers serves, sorted by app.
func (c *Coordinator) Placements() []Placement {
	// Suite apps are known and distinct, so place cannot fail here.
	owners, _ := c.place(suiteApps(), serve.SweepRequest{})
	out := make([]Placement, 0, len(owners))
	for app, w := range owners {
		out = append(out, Placement{App: app, Worker: w})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}

// place gives each of apps its affinity worker for req: assign over the
// apps' shard costs. An unknown app is an invalid
// request, and so is a repeated one: each app is one shard with one
// scoped journal "<sweep_id>.<app>", and two shards of one app could run
// on two workers at once, two writers on one file.
func (c *Coordinator) place(apps []string, req serve.SweepRequest) (map[string]string, error) {
	costs := make(map[string]int64, len(apps))
	for _, app := range apps {
		if _, dup := costs[app]; dup {
			return nil, fmt.Errorf("%w: cluster: \"apps\" names %q twice", serve.ErrInvalid, app)
		}
		cost, err := shardCost(app, req)
		if err != nil {
			return nil, fmt.Errorf("%w: cluster: %v", serve.ErrInvalid, err)
		}
		costs[app] = cost
	}
	return assign(costs, c.names), nil
}

// suiteApps lists the paper suite, the grid of a sweep that names no apps.
func suiteApps() []string {
	var apps []string
	for _, p := range workload.Suite() {
		apps = append(apps, p.Name)
	}
	return apps
}

// Placement is one app→worker affinity assignment.
type Placement struct {
	App    string `json:"app"`
	Worker string `json:"worker"`
}

// mergeSet collects shard responses keyed by app.
type mergeSet struct {
	mu    sync.Mutex
	cells map[string][]serve.SweepCell
}

func (m *mergeSet) put(app string, cells []serve.SweepCell) {
	m.mu.Lock()
	m.cells[app] = cells
	m.mu.Unlock()
}

// fail materializes a terminally failed shard as per-cell errors, the
// same degraded shape espd itself uses — a lost shard never loses the
// rest of the grid.
func (m *mergeSet) fail(app string, configs []string, err error) {
	cells := make([]serve.SweepCell, len(configs))
	for i, cfg := range configs {
		cells[i] = serve.SweepCell{
			App:       app,
			Config:    cfg,
			Error:     err.Error(),
			ErrorKind: string(fault.Classify(err)),
		}
	}
	m.put(app, cells)
}

func (m *mergeSet) get(app string) []serve.SweepCell {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cells[app]
}
