// Package tenantq is the overload-robustness layer of the serving
// stack: weighted deficit-round-robin (DRR) fair queueing across
// tenants, a per-tenant cumulative cell budget, and per-tenant counts
// of the cells the serving layer sheds or refuses. Memory is bounded
// below it, by the runner's live-byte budget (sim.ErrMemory).
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

	"espsim/internal/fault"
)

// DefaultTenant names the tenant legacy clients (no tenant field, no
// X-ESP-Tenant header) are accounted under.
const DefaultTenant = "default"

// ErrQuota marks an acquisition refused because the tenant exhausted
// its cumulative cell budget, or because the queue already tracks
// maxTenants other tenants. espd maps it to 429 — the client may retry
// later; the work was never queued.
var ErrQuota = fault.Sentinel("tenantq: tenant quota exhausted", fault.KindQuota)

// ErrDeadlineShed marks work dropped because it provably could not
// finish before its deadline — shed without simulating, so the cycles
// go to requests that can still make it. espd maps it to 504.
var ErrDeadlineShed = fault.Sentinel("tenantq: deadline shed: cannot finish in time", fault.KindShed)

// TenantConfig is one tenant's share and limit, as ParseTenants reads
// them from name=weight[:cell_budget]. The zero value means weight 1
// with no budget.
type TenantConfig struct {
	// Weight is the tenant's DRR share: under saturation a tenant
	// completes Weight/ΣWeight of all cells (<= 0: 1).
	Weight float64
	// CellBudget caps the tenant's cumulative admitted cells over the
	// queue's lifetime (0: unlimited).
	CellBudget int64
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
	// Tenants configures tenants by name; unlisted tenants get the
	// zero TenantConfig.
	Tenants map[string]TenantConfig
}

const (
	// quantum is the DRR round size in cells per unit weight, about one
	// sweep batch. Smaller quanta interleave tenants more finely; larger
	// ones batch better.
	quantum = 8
	// maxTenants bounds distinct tenant names the queue will track, a
	// cardinality guard against tenant-id spray: past it, acquisitions
	// under new names are refused with ErrQuota.
	maxTenants = 256
)

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

	// Counters for /metrics, all in cells. admitted/completed move at
	// grant/release, quota at refusal; shed and brownout (memory-budget
	// refusals) are fed by the serving layer via Count*.
	admitted  int64
	completed int64
	quota     int64
	shed      int64
	brownout  int64
}

// Queue is the DRR fair queue: Acquire blocks until the tenant is
// granted a slot in deficit-round-robin order, its budget permitting.
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
	fresh  bool
	grants int // slots currently held
}

// New assembles a Queue.
func New(opt Options) *Queue {
	return &Queue{
		opt:     opt,
		tenants: make(map[string]*tenant),
		fresh:   true,
	}
}

// tenantLocked finds or creates a tenant's state; nil means the
// distinct-tenant cap is hit and name is new.
func (q *Queue) tenantLocked(name string) *tenant {
	if tn, ok := q.tenants[name]; ok {
		return tn
	}
	if len(q.tenants) >= maxTenants {
		return nil
	}
	tn := &tenant{name: name, cfg: q.opt.Tenants[name]}
	q.tenants[name] = tn
	return tn
}

// Acquire blocks until tenant is granted a slot for cost cells, in DRR
// order across tenants, or ctx dies. The returned release must be
// called exactly once when the admitted work finishes. An exhausted
// cell budget fails fast with ErrQuota, before queueing.
func (q *Queue) Acquire(ctx context.Context, name string, cost int) (release func(), err error) {
	if cost < 1 {
		cost = 1
	}
	q.mu.Lock()
	tn := q.tenantLocked(name)
	if tn == nil {
		q.mu.Unlock()
		return nil, fmt.Errorf("%w: %d distinct tenants already tracked", ErrQuota, maxTenants)
	}
	if budget := tn.cfg.CellBudget; budget > 0 && tn.consumed+int64(cost) > budget {
		tn.quota += int64(cost)
		q.mu.Unlock()
		return nil, fmt.Errorf("%w: tenant %q cell budget exhausted (%d of %d used)", ErrQuota, name, tn.consumed, budget)
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
// turn (the next release resumes it, without re-crediting). Every
// credited turn either grants or grows its tenant's deficit toward the
// head waiter's cost, so the scan ends when slots or waiters run out.
func (q *Queue) dispatchLocked() {
	for len(q.ring) > 0 {
		if q.grants >= q.opt.Slots {
			return
		}
		if q.cur >= len(q.ring) {
			q.cur = 0
		}
		tn := q.ring[q.cur]
		if q.fresh {
			tn.deficit += quantum * tn.cfg.weight()
			// Cap banked credit at one round past the head waiter, so a
			// tenant whose costlier head waiter was abandoned cannot
			// hoard a burst for the cheaper one behind it.
			if bank := float64(tn.waiters[0].cost) + quantum*tn.cfg.weight(); tn.deficit > bank {
				tn.deficit = bank
			}
			q.fresh = false
		}
		for len(tn.waiters) > 0 && q.grants < q.opt.Slots {
			w := tn.waiters[0]
			if float64(w.cost) > tn.deficit {
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
		}
		if len(tn.waiters) == 0 {
			q.unlinkLocked(tn) // sets fresh: ring[cur] is a new tenant
			continue
		}
		if q.grants >= q.opt.Slots {
			// Paused mid-turn: deficit and cur stand, the next release
			// resumes here.
			return
		}
		// Turn over: deficit short of the head waiter. Advance; the next
		// turn gets fresh credit.
		q.cur++
		q.fresh = true
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

// CountBrownout attributes cells refused for memory to a tenant.
func (q *Queue) CountBrownout(name string, cells int64) {
	q.mu.Lock()
	if tn := q.tenantLocked(name); tn != nil {
		tn.brownout += cells
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
