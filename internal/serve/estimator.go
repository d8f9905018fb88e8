package serve

import (
	"strconv"
	"sync"
	"time"
)

// estimator predicts one cell's wall time from history, for
// deadline-aware admission: an exponentially weighted moving average
// per cell, keyed by cellKey, for at most estimatorKeys cells. It
// deliberately under-promises — a cell never seen at its size (or whose
// entry made room for another) estimates zero (never shed), so shedding
// only ever fires on evidence about that cell.
type estimator struct {
	mu     sync.Mutex
	perKey map[string]time.Duration
}

// ewmaAlpha is the smoothing factor: high enough to track a workload
// shift within a few cells, low enough that one slow outlier does not
// triple the estimate.
const ewmaAlpha = 0.3

// estimatorKeys bounds the cells the estimator remembers: clients choose
// max_events and scale freely, so the keys they can send are unbounded.
const estimatorKeys = 1024

func newEstimator() *estimator {
	return &estimator{perKey: make(map[string]time.Duration)}
}

// cellKey names one cell for the estimator: its workload, its resolved
// configuration, and the knobs that size its work, max_events and scale
// (0 and 1 are the same size). A full gmaps cell takes ~70 ms and a
// one-event one ~1 ms, so evidence from one size says nothing about
// another.
func cellKey(app, config string, maxEvents int, scale float64) string {
	if scale == 0 {
		scale = 1
	}
	return app + "/" + config + "/" + strconv.Itoa(maxEvents) + "/" + strconv.FormatFloat(scale, 'g', -1, 64)
}

// observe folds one completed cell's wall time into its average.
func (e *estimator) observe(key string, wall time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if prev, ok := e.perKey[key]; ok {
		e.perKey[key] = prev + time.Duration(ewmaAlpha*float64(wall-prev))
		return
	}
	if len(e.perKey) >= estimatorKeys {
		for k := range e.perKey {
			delete(e.perKey, k) // an arbitrary cell makes room
			break
		}
	}
	e.perKey[key] = wall
}

// cannotFinish is the shed predicate: true when the deadline has
// already passed, or the cell's evidence-backed estimate exceeds what
// is left. A zero deadline never sheds; a cell with no evidence only
// sheds when already expired.
func (e *estimator) cannotFinish(key string, deadline, now time.Time) bool {
	if deadline.IsZero() {
		return false
	}
	rem := deadline.Sub(now)
	if rem <= 0 {
		return true
	}
	e.mu.Lock()
	est := e.perKey[key]
	e.mu.Unlock()
	return est > rem
}
