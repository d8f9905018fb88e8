package fault

import (
	"sync"
	"time"
)

// breaker states. A cell's breaker opens after threshold consecutive
// failures; after cooldown it half-opens, letting exactly one probe
// through — success closes it, failure re-opens it for another
// cooldown.
const (
	stateClosed = iota
	stateOpen
	stateHalfOpen
)

type breakerCell struct {
	state    int
	fails    int // consecutive failures
	trips    int // consecutive closed→open (or re-open) transitions; drives escalation
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// BreakerSet is a family of circuit breakers keyed by string — one per
// (app, config) cell in espd — so a cell that fails persistently is
// quarantined (reported skipped) instead of burning a worker slot and
// a retry budget on every sweep. Safe for concurrent use.
type BreakerSet struct {
	threshold   int
	cooldown    time.Duration
	maxCooldown time.Duration // 0: no escalation, every quarantine lasts cooldown
	now         func() time.Time

	mu    sync.Mutex
	cells map[string]*breakerCell
	open  int
	trips int64
	skips int64
}

// NewBreakerSet builds a set that opens a key after threshold
// consecutive failures and half-opens it after cooldown.
func NewBreakerSet(threshold int, cooldown time.Duration) *BreakerSet {
	return &BreakerSet{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		cells:     make(map[string]*breakerCell),
	}
}

// NewEscalatingBreakerSet builds a set whose quarantine escalates: the
// first trip of a key lasts cooldown, each consecutive re-trip doubles
// it, capped at maxCooldown; one success resets the escalation. This
// is the node-granularity shape the cluster coordinator uses — a flaky
// worker that keeps failing its half-open probe is quarantined for
// longer and longer instead of being re-offered work every cooldown.
func NewEscalatingBreakerSet(threshold int, cooldown, maxCooldown time.Duration) *BreakerSet {
	b := NewBreakerSet(threshold, cooldown)
	if maxCooldown < b.cooldown {
		maxCooldown = b.cooldown
	}
	b.maxCooldown = maxCooldown
	return b
}

// cooldownFor is the effective quarantine for a cell given its
// consecutive-trip count; call with the set's lock held.
func (b *BreakerSet) cooldownFor(c *breakerCell) time.Duration {
	cd := b.cooldown
	if b.maxCooldown <= 0 {
		return cd
	}
	for i := 1; i < c.trips && cd < b.maxCooldown; i++ {
		cd *= 2
	}
	if cd > b.maxCooldown {
		cd = b.maxCooldown
	}
	return cd
}

// Allow reports whether key may attempt work now. An open breaker past
// its cooldown admits a single half-open probe; a denied call is
// counted as a skip.
func (b *BreakerSet) Allow(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, ok := b.cells[key]
	if !ok {
		return true
	}
	switch c.state {
	case stateClosed:
		return true
	case stateOpen:
		if b.now().Sub(c.openedAt) >= b.cooldownFor(c) {
			c.state = stateHalfOpen
			c.probing = true
			return true
		}
	case stateHalfOpen:
		if !c.probing {
			c.probing = true
			return true
		}
	}
	b.skips++
	return false
}

// Release hands back a half-open probe slot that Allow granted but no
// attempt used — the work was refused, not tried — recording no
// outcome, so the next Allow admits a fresh probe.
func (b *BreakerSet) Release(key string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := b.cells[key]; c != nil && c.state == stateHalfOpen {
		c.probing = false
	}
}

// Record feeds one attempt's outcome back for key.
func (b *BreakerSet) Record(key string, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.cells[key]
	if c == nil {
		c = &breakerCell{}
		b.cells[key] = c
	}
	if ok {
		if c.state != stateClosed {
			b.open--
		}
		c.state = stateClosed
		c.fails = 0
		c.trips = 0
		c.probing = false
		return
	}
	c.fails++
	switch c.state {
	case stateHalfOpen:
		// The probe failed: back to a (possibly escalated) cooldown.
		c.state = stateOpen
		c.openedAt = b.now()
		c.probing = false
		c.trips++
		b.trips++
	case stateClosed:
		if c.fails >= b.threshold {
			c.state = stateOpen
			c.openedAt = b.now()
			c.trips++
			b.open++
			b.trips++
		}
	}
}

// StateOf reports a key's breaker state — "closed", "open", or
// "half_open" — without side effects (unlike Allow, it admits no
// probe and counts no skip). The coordinator's metrics and placement
// read this.
func (b *BreakerSet) StateOf(key string) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	c, ok := b.cells[key]
	if !ok {
		return "closed"
	}
	switch c.state {
	case stateOpen:
		return "open"
	case stateHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

// OpenCount reports how many keys are currently quarantined (open or
// half-open) — the readiness probe's signal.
func (b *BreakerSet) OpenCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

// Trips reports cumulative closed→open (and failed-probe re-open)
// transitions; Skips reports attempts denied by an open breaker.
func (b *BreakerSet) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// Skips reports attempts denied by an open breaker.
func (b *BreakerSet) Skips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.skips
}
