package fault

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBreakerOpen marks a cell that was never attempted because its
// circuit breaker is quarantining it.
var ErrBreakerOpen = errors.New("breaker open")

// Outcome is what one Executor.Run produced: how many attempts ran,
// whether the breaker skipped the cell entirely, and the final error
// (nil on success).
type Outcome struct {
	Attempts int
	Skipped  bool
	Err      error
}

// Executor runs one cell's work under the full recovery stack: breaker
// admission first, then up to RetryPolicy.MaxAttempts attempts with
// jittered exponential backoff between them, feeding every outcome back
// into the breaker. Safe for concurrent use; one Executor is meant to
// live as long as its server so the counters aggregate across sweeps.
type Executor struct {
	policy    RetryPolicy
	breakers  *BreakerSet
	retryable func(error) bool

	mu  sync.Mutex
	rng *rand.Rand

	retries atomic.Int64
}

// NewExecutor assembles an Executor. retryable nil retries every
// error; seed fixes the backoff jitter stream.
func NewExecutor(policy RetryPolicy, breakers *BreakerSet, retryable func(error) bool, seed int64) *Executor {
	return &Executor{
		policy:    policy.WithDefaults(),
		breakers:  breakers,
		retryable: retryable,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Breakers returns the executor's breaker set.
func (e *Executor) Breakers() *BreakerSet { return e.breakers }

// Retries reports cumulative re-attempts (attempts beyond each cell's
// first).
func (e *Executor) Retries() int64 { return e.retries.Load() }

// Run executes run under the policy. key selects the circuit breaker;
// run receives the 1-based attempt number. Retrying stops on success,
// on a non-retryable error, when the attempt budget is exhausted, when
// ctx is done, or when the breaker opens mid-retry. A run that sheds
// (KindShed) or that the memory budget refuses (KindBrownout) never did
// the work, and a canceled one (KindCanceled) was stopped because
// nobody waits for it; none says anything about the cell, so none is
// counted as an attempt, records an outcome, keeps a half-open
// breaker's probe slot, or is retried.
func (e *Executor) Run(ctx context.Context, key string, run func(attempt int) error) Outcome {
	if !e.breakers.Allow(key) {
		return Outcome{Skipped: true, Err: ErrBreakerOpen}
	}
	for attempt := 1; ; attempt++ {
		err := run(attempt)
		if k := Classify(err); k == KindShed || k == KindBrownout || k == KindCanceled {
			e.breakers.Release(key)
			return Outcome{Attempts: attempt - 1, Err: err}
		}
		e.breakers.Record(key, err == nil)
		if err == nil {
			return Outcome{Attempts: attempt}
		}
		if attempt >= e.policy.MaxAttempts || ctx.Err() != nil {
			return Outcome{Attempts: attempt, Err: err}
		}
		if e.retryable != nil && !e.retryable(err) {
			return Outcome{Attempts: attempt, Err: err}
		}
		if !e.breakers.Allow(key) {
			// Quarantined mid-retry: report the organic error, not the
			// breaker — the cell was attempted.
			return Outcome{Attempts: attempt, Err: err}
		}
		e.mu.Lock()
		wait := e.policy.backoff(attempt, e.rng)
		e.mu.Unlock()
		e.retries.Add(1)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return Outcome{Attempts: attempt, Err: err}
		}
	}
}
