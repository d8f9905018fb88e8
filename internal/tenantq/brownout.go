package tenantq

import (
	"sync"
	"sync/atomic"
)

// BrownoutLevel is how far the daemon has degraded under memory
// pressure. Levels are cumulative: each keeps every restriction of the
// ones below it.
type BrownoutLevel int32

const (
	// BrownNormal: full service.
	BrownNormal BrownoutLevel = iota
	// BrownNoCache: new workload materializations are not cached (and
	// the cache is trimmed to the calm watermark); cached workloads
	// still serve.
	BrownNoCache
	// BrownHalfConcurrency: additionally, the fair queue's slot pool is
	// halved, shrinking every tenant's share proportionally.
	BrownHalfConcurrency
	// BrownSmallOnly: additionally, only explicitly bounded small grids
	// are admitted; everything else is refused with ErrBrownout.
	BrownSmallOnly
)

// String names the level for logs and /metrics.
func (l BrownoutLevel) String() string {
	switch l {
	case BrownNormal:
		return "normal"
	case BrownNoCache:
		return "no_cache"
	case BrownHalfConcurrency:
		return "half_concurrency"
	case BrownSmallOnly:
		return "small_only"
	default:
		return "unknown"
	}
}

// The watermarks, as fractions of the budget. brownEnter[i] engages
// level i+1 once usage reaches it; escalation is immediate — pressure
// does not wait. brownExit[i] is level i+1's calm watermark: recovery
// requires usage at or below it.
var (
	brownEnter = [3]float64{0.80, 0.90, 0.97}
	brownExit  = [3]float64{0.70, 0.80, 0.90}
)

// recoverAfter is how many consecutive calm observations step the level
// down once: the hysteresis that stops flapping.
const recoverAfter = 4

// Brownout is the watermark state machine: feed it usage observations,
// read the level. Escalation is immediate (to the highest level whose
// entry watermark usage reaches); recovery is stepwise with
// hysteresis — recoverAfter consecutive observations at/below the
// current level's exit watermark step down one level.
type Brownout struct {
	mu sync.Mutex
	// budget is the memory budget in bytes the watermarks are fractions
	// of (<= 0 disables the controller: Observe always reports
	// BrownNormal).
	budget int64
	level  atomic.Int32
	calm   int

	escalations atomic.Int64
	recoveries  atomic.Int64
}

// NewBrownout assembles a controller for a byte budget; nil-safe methods
// make a disabled controller (budget <= 0) equivalent to no controller
// at all.
func NewBrownout(budget int64) *Brownout {
	return &Brownout{budget: budget}
}

// Level reads the current level without observing.
func (b *Brownout) Level() BrownoutLevel {
	if b == nil {
		return BrownNormal
	}
	return BrownoutLevel(b.level.Load())
}

// TrimTarget is the byte usage the actor should trim the cache toward
// while browned out: the first level's calm watermark, so recovery is
// reachable.
func (b *Brownout) TrimTarget() int64 {
	if b == nil || b.budget <= 0 {
		return 0
	}
	return int64(brownExit[0] * float64(b.budget))
}

// Observe feeds one usage sample (bytes) and returns the level after
// applying it.
func (b *Brownout) Observe(usage int64) BrownoutLevel {
	if b == nil || b.budget <= 0 {
		return BrownNormal
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	cur := BrownoutLevel(b.level.Load())
	target := BrownNormal
	for i := 2; i >= 0; i-- {
		if float64(usage) >= brownEnter[i]*float64(b.budget) {
			target = BrownoutLevel(i + 1)
			break
		}
	}
	switch {
	case target > cur:
		cur = target
		b.calm = 0
		b.escalations.Add(1)
	case cur > BrownNormal && float64(usage) <= brownExit[cur-1]*float64(b.budget):
		b.calm++
		if b.calm >= recoverAfter {
			cur--
			b.calm = 0
			b.recoveries.Add(1)
		}
	default:
		// In the hysteresis band (or at normal): hold, reset calm.
		b.calm = 0
	}
	b.level.Store(int32(cur))
	return cur
}

// BrownoutSnapshot is the /metrics view of the controller.
type BrownoutSnapshot struct {
	Level       string `json:"level"`
	Budget      int64  `json:"budget_bytes"`
	Escalations int64  `json:"escalations"`
	Recoveries  int64  `json:"recoveries"`
}

// Snapshot renders the controller state.
func (b *Brownout) Snapshot() BrownoutSnapshot {
	if b == nil {
		return BrownoutSnapshot{Level: BrownNormal.String()}
	}
	return BrownoutSnapshot{
		Level:       b.Level().String(),
		Budget:      b.budget,
		Escalations: b.escalations.Load(),
		Recoveries:  b.recoveries.Load(),
	}
}
