// Package tenantq is the overload-robustness layer of the serving
// stack: weighted deficit-round-robin (DRR) fair queueing across
// tenants, per-tenant quotas (in-flight cells, queue depth, cumulative
// cell budget) and token-bucket rate limits, and a brownout controller
// that degrades service gracefully under memory pressure instead of
// letting the daemon OOM.
//
// The unit of cost everywhere is the simulation cell: a /run request
// costs one cell, a sweep batch costs one cell per configuration.
// Fairness is therefore measured in completed cells, which is what a
// tenant actually pays for — a greedy tenant flooding wide sweeps
// cannot starve a tenant of small runs, because DRR grants each round
// in proportion to configured weight regardless of request shape.
package tenantq

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"espsim/internal/fault"
)

// DefaultTenant names the tenant legacy clients (no tenant field, no
// X-ESP-Tenant header) are accounted under.
const DefaultTenant = "default"

// ErrQuota marks an acquisition refused because the tenant exhausted a
// quota: queue depth, cumulative cell budget, token-bucket rate, or a
// single request wider than its in-flight allowance. espd maps it to
// 429 — the client may retry later; the work was never queued.
var ErrQuota = fault.Sentinel("tenantq: tenant quota exhausted", fault.KindQuota)

// ErrBrownout marks work refused because the daemon is degrading under
// memory pressure and its current brownout level does not admit the
// request shape. espd maps it to 503 — retry against a healthier
// replica, or smaller.
var ErrBrownout = fault.Sentinel("tenantq: brownout: degraded under memory pressure", fault.KindBrownout)

// ErrDeadlineShed marks work dropped because it provably could not
// finish before its deadline — shed without simulating, so the cycles
// go to requests that can still make it. espd maps it to 504.
var ErrDeadlineShed = fault.Sentinel("tenantq: deadline shed: cannot finish in time", fault.KindShed)

// TenantConfig is one tenant's share and limits. The zero value means
// weight 1 with every quota unlimited.
type TenantConfig struct {
	// Weight is the tenant's DRR share: under saturation a tenant
	// completes Weight/ΣWeight of all cells (<= 0: 1).
	Weight float64
	// MaxInFlight caps the tenant's concurrently admitted cells; a
	// request wider than the cap alone is rejected outright, narrower
	// ones queue until the tenant's own cells drain (0: unlimited).
	MaxInFlight int
	// MaxQueue caps how many acquisitions may wait at once; past it new
	// ones are rejected with ErrQuota instead of queueing (0: unlimited).
	MaxQueue int
	// CellBudget caps the tenant's cumulative admitted cells over the
	// queue's lifetime (0: unlimited).
	CellBudget int64
	// Rate refills a token bucket in cells/second consumed at admission;
	// an empty bucket rejects with ErrQuota (0: unlimited). Burst is the
	// bucket size (<= 0: max(Rate, 1)).
	Rate  float64
	Burst float64
}

func (c TenantConfig) weight() float64 {
	if c.Weight <= 0 {
		return 1
	}
	return c.Weight
}

// Options configures a Queue.
type Options struct {
	// Slots bounds concurrently granted acquisitions — the worker-slot
	// pool DRR arbitrates (required, >= 1).
	Slots int
	// Quantum is the DRR round size in cells per unit weight (<= 0: 8,
	// about one sweep batch). Smaller quanta interleave tenants more
	// finely; larger ones batch better.
	Quantum float64
	// Default applies to tenants not listed in Tenants.
	Default TenantConfig
	// Tenants overrides per-tenant configuration by name.
	Tenants map[string]TenantConfig
	// MaxTenants bounds distinct tenant names the queue will track, a
	// cardinality guard against tenant-id spray: past it, acquisitions
	// under new names are rejected with ErrQuota (<= 0: 256).
	MaxTenants int
}

func (o Options) withDefaults() Options {
	if o.Slots < 1 {
		o.Slots = 1
	}
	if o.Quantum <= 0 {
		o.Quantum = 8
	}
	if o.MaxTenants <= 0 {
		o.MaxTenants = 256
	}
	return o
}

// waiter is one blocked Acquire.
type waiter struct {
	tn      *tenant
	cost    int
	ready   chan struct{}
	granted bool
}

// tenant is one tenant's queue state. Everything is guarded by the
// Queue mutex.
type tenant struct {
	name string
	cfg  TenantConfig

	deficit  float64
	waiters  []*waiter
	inRing   bool
	inFlight int   // admitted, unreleased cells
	consumed int64 // cumulative admitted cells
	bucket   bucket

	// Counters for /metrics. admitted/completed move at grant/release,
	// quota at refusal, all in cells; shed and brownout are fed by the
	// serving layer via Count*.
	admitted  int64
	completed int64
	quota     int64
	shed      int64
	brownout  int64
}

// Queue is the DRR fair queue: Acquire blocks until the tenant is
// granted a slot in deficit-round-robin order, quotas permitting.
// Safe for concurrent use.
type Queue struct {
	mu      sync.Mutex
	opt     Options
	tenants map[string]*tenant
	// ring holds tenants with waiters in round-robin order; cur is the
	// tenant being served. A tenant's turn lasts until its deficit can
	// no longer cover its head waiter — slots running out pauses the
	// turn, it does not end it. A tenant whose backlog drains leaves
	// the ring and forfeits its deficit (standard DRR: no banking while
	// idle).
	ring []*tenant
	cur  int
	// fresh is true when ring[cur] has not yet been credited this turn;
	// it keeps resumed dispatches (after a release) from re-crediting
	// the mid-turn tenant.
	fresh    bool
	grants   int  // slots currently held
	degraded bool // brownout: effective slots halved

	now func() time.Time // injectable for bucket tests
}

// New assembles a Queue.
func New(opt Options) *Queue {
	return &Queue{
		opt:     opt.withDefaults(),
		tenants: make(map[string]*tenant),
		fresh:   true,
		now:     time.Now,
	}
}

// SetDegraded halves the effective slot pool while on (never below
// one) — the brownout controller's half-concurrency lever. Turning it
// off re-dispatches immediately.
func (q *Queue) SetDegraded(on bool) {
	q.mu.Lock()
	q.degraded = on
	q.dispatchLocked()
	q.mu.Unlock()
}

func (q *Queue) slotsLocked() int {
	if q.degraded {
		if s := q.opt.Slots / 2; s >= 1 {
			return s
		}
		return 1
	}
	return q.opt.Slots
}

// tenantLocked finds or creates a tenant's state; nil means the
// distinct-tenant cap is hit and name is new.
func (q *Queue) tenantLocked(name string) *tenant {
	if tn, ok := q.tenants[name]; ok {
		return tn
	}
	if len(q.tenants) >= q.opt.MaxTenants {
		return nil
	}
	cfg, ok := q.opt.Tenants[name]
	if !ok {
		cfg = q.opt.Default
	}
	tn := &tenant{name: name, cfg: cfg}
	if cfg.Rate > 0 {
		burst := cfg.Burst
		if burst <= 0 {
			burst = cfg.Rate
			if burst < 1 {
				burst = 1
			}
		}
		tn.bucket = newBucket(cfg.Rate, burst, q.now())
	}
	q.tenants[name] = tn
	return tn
}

// Acquire blocks until tenant is granted a slot for cost cells, in DRR
// order across tenants, or ctx dies. The returned release must be
// called exactly once when the admitted work finishes. Quota
// violations fail fast with ErrQuota, before queueing.
func (q *Queue) Acquire(ctx context.Context, name string, cost int) (release func(), err error) {
	if cost < 1 {
		cost = 1
	}
	q.mu.Lock()
	tn := q.tenantLocked(name)
	if tn == nil {
		q.mu.Unlock()
		return nil, fmt.Errorf("%w: %d distinct tenants already tracked", ErrQuota, q.opt.MaxTenants)
	}
	if rej := q.quotaLocked(tn, cost); rej != nil {
		tn.quota += int64(cost)
		q.mu.Unlock()
		return nil, rej
	}
	if tn.cfg.Rate > 0 && !tn.bucket.take(float64(cost), q.now()) {
		tn.quota += int64(cost)
		q.mu.Unlock()
		return nil, fmt.Errorf("%w: tenant %q over its rate of %g cells/s", ErrQuota, name, tn.cfg.Rate)
	}
	w := &waiter{tn: tn, cost: cost, ready: make(chan struct{})}
	tn.waiters = append(tn.waiters, w)
	if !tn.inRing {
		tn.inRing = true
		q.ring = append(q.ring, tn)
	}
	q.dispatchLocked()
	granted := w.granted
	q.mu.Unlock()

	if !granted {
		select {
		case <-w.ready:
		case <-ctx.Done():
			q.mu.Lock()
			if !w.granted {
				q.abandonLocked(w)
				q.mu.Unlock()
				return nil, ctx.Err()
			}
			// Granted in the race window: the slot is ours, give it back.
			q.releaseLocked(tn, cost)
			q.mu.Unlock()
			return nil, ctx.Err()
		}
	}
	return func() {
		q.mu.Lock()
		q.releaseLocked(tn, cost)
		q.mu.Unlock()
	}, nil
}

// quotaLocked checks the fail-fast quotas (everything but rate, which
// consumes tokens and so runs after these pass).
func (q *Queue) quotaLocked(tn *tenant, cost int) error {
	cfg := tn.cfg
	if cfg.MaxInFlight > 0 && cost > cfg.MaxInFlight {
		return fmt.Errorf("%w: tenant %q: %d cells exceed the in-flight allowance of %d", ErrQuota, tn.name, cost, cfg.MaxInFlight)
	}
	if cfg.MaxQueue > 0 && len(tn.waiters) >= cfg.MaxQueue {
		return fmt.Errorf("%w: tenant %q queue full (%d waiting)", ErrQuota, tn.name, len(tn.waiters))
	}
	if cfg.CellBudget > 0 && tn.consumed+int64(cost) > cfg.CellBudget {
		return fmt.Errorf("%w: tenant %q cell budget exhausted (%d of %d used)", ErrQuota, tn.name, tn.consumed, cfg.CellBudget)
	}
	return nil
}

// abandonLocked removes a never-granted waiter (canceled context).
func (q *Queue) abandonLocked(w *waiter) {
	tn := w.tn
	for i, cand := range tn.waiters {
		if cand == w {
			tn.waiters = append(tn.waiters[:i], tn.waiters[i+1:]...)
			break
		}
	}
	if len(tn.waiters) == 0 && tn.inRing {
		q.unlinkLocked(tn)
	}
}

// releaseLocked returns a grant's slot and cells, then re-dispatches.
func (q *Queue) releaseLocked(tn *tenant, cost int) {
	tn.inFlight -= cost
	tn.completed += int64(cost)
	q.grants--
	q.dispatchLocked()
}

// unlinkLocked drops tn from the ring, keeping cur pointing at the
// same next tenant. An idle tenant forfeits its deficit.
func (q *Queue) unlinkLocked(tn *tenant) {
	for i, cand := range q.ring {
		if cand == tn {
			q.ring = append(q.ring[:i], q.ring[i+1:]...)
			if i < q.cur {
				q.cur--
			} else if i == q.cur {
				// ring[cur] now names a different tenant: its turn is new.
				q.fresh = true
			}
			break
		}
	}
	tn.inRing = false
	tn.deficit = 0
	if q.cur >= len(q.ring) {
		q.cur = 0
	}
}

// dispatchLocked is the DRR scheduler: serve ring[cur] until its
// deficit cannot cover its head waiter, then advance and credit the
// next tenant quantum*weight. Running out of slots pauses the current
// turn (the next release resumes it, without re-crediting); a full lap
// of blocked tenants stops the scan.
func (q *Queue) dispatchLocked() {
	// idle counts consecutive turns with neither a grant nor deficit
	// growth. Deficit growth is progress — a tenant whose head waiter
	// costs several rounds of credit converges toward it lap by lap —
	// so the scan only stops once a full lap of turns is truly stuck
	// (everyone in-flight-capped or banked out).
	idle := 0
	for len(q.ring) > 0 {
		if q.grants >= q.slotsLocked() {
			return
		}
		if q.cur >= len(q.ring) {
			q.cur = 0
		}
		tn := q.ring[q.cur]
		credited := q.fresh
		progressed := false
		if q.fresh {
			before := tn.deficit
			tn.deficit += q.opt.Quantum * tn.cfg.weight()
			// Cap banked credit at one round past the head waiter, so a
			// tenant stalled on its in-flight cap cannot hoard an
			// unbounded burst for later.
			if bank := float64(tn.waiters[0].cost) + q.opt.Quantum*tn.cfg.weight(); tn.deficit > bank {
				tn.deficit = bank
			}
			progressed = tn.deficit > before
			q.fresh = false
		}
		for len(tn.waiters) > 0 && q.grants < q.slotsLocked() {
			w := tn.waiters[0]
			if float64(w.cost) > tn.deficit {
				break
			}
			if tn.cfg.MaxInFlight > 0 && tn.inFlight+w.cost > tn.cfg.MaxInFlight {
				break
			}
			tn.waiters = tn.waiters[1:]
			tn.deficit -= float64(w.cost)
			tn.inFlight += w.cost
			tn.consumed += int64(w.cost)
			tn.admitted += int64(w.cost)
			q.grants++
			w.granted = true
			close(w.ready)
			progressed = true
		}
		if progressed {
			idle = 0
		}
		if len(tn.waiters) == 0 {
			q.unlinkLocked(tn) // sets fresh: ring[cur] is a new tenant
			continue
		}
		if q.grants >= q.slotsLocked() {
			// Paused mid-turn: deficit and cur stand, the next release
			// resumes here.
			return
		}
		// Turn over: deficit short or in-flight capped. Advance. A
		// resumed turn ending (credited in an earlier dispatch, spent
		// now) is not stuck — it happens at most once per call, and the
		// next turn gets fresh credit.
		q.cur++
		q.fresh = true
		if credited && !progressed {
			idle++
			if idle >= len(q.ring) {
				return
			}
		}
	}
}

// CountShed attributes deadline-shed cells to a tenant (serving-layer
// bookkeeping; the queue itself never sheds).
func (q *Queue) CountShed(name string, cells int64) {
	q.mu.Lock()
	if tn := q.tenantLocked(name); tn != nil {
		tn.shed += cells
	}
	q.mu.Unlock()
}

// CountBrownout attributes one brownout rejection to a tenant.
func (q *Queue) CountBrownout(name string) {
	q.mu.Lock()
	if tn := q.tenantLocked(name); tn != nil {
		tn.brownout++
	}
	q.mu.Unlock()
}

// QueuedAcquisitions is the total waiting-acquisition gauge across
// tenants; zero when nothing is blocked (leak tests assert this).
func (q *Queue) QueuedAcquisitions() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, tn := range q.tenants {
		n += len(tn.waiters)
	}
	return n
}

// InFlightCells is the total admitted-unreleased gauge across tenants.
func (q *Queue) InFlightCells() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, tn := range q.tenants {
		n += tn.inFlight
	}
	return n
}

// TenantSnapshot is one tenant's row in /metrics: two gauges (queue
// depth, in-flight cells) and the cumulative counters.
type TenantSnapshot struct {
	Tenant           string  `json:"tenant"`
	Weight           float64 `json:"weight"`
	QueueDepth       int64   `json:"queue_depth"`
	InFlightCells    int64   `json:"in_flight_cells"`
	AdmittedCells    int64   `json:"admitted_cells"`
	CompletedCells   int64   `json:"completed_cells"`
	RejectedQuota    int64   `json:"rejected_quota"`
	ShedDeadline     int64   `json:"shed_deadline"`
	RejectedBrownout int64   `json:"rejected_brownout"`
}

// Snapshot renders every tracked tenant, sorted by name for stable
// /metrics output.
func (q *Queue) Snapshot() []TenantSnapshot {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]TenantSnapshot, 0, len(q.tenants))
	for _, tn := range q.tenants {
		out = append(out, TenantSnapshot{
			Tenant:           tn.name,
			Weight:           tn.cfg.weight(),
			QueueDepth:       int64(len(tn.waiters)),
			InFlightCells:    int64(tn.inFlight),
			AdmittedCells:    tn.admitted,
			CompletedCells:   tn.completed,
			RejectedQuota:    tn.quota,
			ShedDeadline:     tn.shed,
			RejectedBrownout: tn.brownout,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
