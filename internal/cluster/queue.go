package cluster

import (
	"context"
	"sync"
	"time"
)

// shard is one unit of placement: one application, every requested
// configuration. It carries its scheduling history so rescheduling,
// steal, and hedge accounting stay deterministic. The hedging fields
// (running, hedged, started, finished, cancels) are guarded by the
// queue mutex.
type shard struct {
	app       string
	preferred string // affinity owner chosen at placement, never re-placed
	attempts  int    // failed attempts so far
	last      string // worker of the most recent attempt (set under the queue lock)
	noJournal bool   // digest mismatch found: resume would splice, run journal-less
	handedOff bool   // journal adoption already counted for this shard

	running  int                  // live attempts (primary + hedge)
	hedged   bool                 // a hedge is (or was) in flight for the current attempt
	started  time.Time            // when the current primary attempt began
	finished bool                 // first result merged; late attempts discard
	cancels  []context.CancelFunc // live attempts' contexts, canceled when one wins
}

// stealAfter is how long a healthy owner's current attempt must have
// run before an idle peer may steal a shard still queued for it. While
// every attempt finishes sooner, owners take their own queued shards
// and each app's arena is built on one worker only; a straggler's
// queue, or a long shard's, is taken once its attempt has run this
// long.
const stealAfter = 2 * time.Second

// shardQueue is the coordinator's work pool: a mutex/cond queue that
// prefers affinity (a worker takes its own shards first) but lets an
// idle worker steal from a straggling or quarantined owner, so one slow
// or dead node cannot strand the tail of a sweep. When hedging is
// enabled, an idle worker with no queued work may also re-dispatch a
// straggling in-flight shard (first result wins; the loser's context
// is canceled). outstanding counts shards not yet merged (queued or in
// flight); when it hits zero every waiter wakes and drains out.
type shardQueue struct {
	mu          sync.Mutex
	cond        *sync.Cond
	ready       []*shard
	inflight    map[*shard]struct{}
	outstanding int
	closed      bool
	hedgeAfter  time.Duration // 0: hedging disabled
}

func newShardQueue(shards []*shard, hedgeAfter time.Duration) *shardQueue {
	q := &shardQueue{
		ready:       append([]*shard(nil), shards...),
		inflight:    make(map[*shard]struct{}),
		outstanding: len(shards),
		hedgeAfter:  hedgeAfter,
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// take blocks until a shard is available to worker (affinity first,
// then shards last tried elsewhere, then anything it may steal, then —
// with hedging on — a straggling in-flight shard), the queue closes, or
// all work completes; the latter two return nil. hedge reports that the
// shard is a duplicate dispatch racing a live attempt. allowed gates
// admission (the caller's node breaker): while false the worker waits
// without taking work; healthy reports whether a worker's breaker is
// closed (see mayTake). poke wakes it to re-check after cooldowns (and
// to re-evaluate steal and hedge timers).
func (q *shardQueue) take(worker string, allowed func() bool, healthy func(string) bool) (sh *shard, hedge bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed || q.outstanding == 0 {
			return nil, false
		}
		if allowed == nil || allowed() {
			if i := q.pick(worker, healthy); i >= 0 {
				sh := q.ready[i]
				q.ready = append(q.ready[:i], q.ready[i+1:]...)
				sh.running = 1
				sh.hedged = false
				sh.started = time.Now()
				sh.last = worker
				q.inflight[sh] = struct{}{}
				return sh, false
			}
			if sh := q.hedgeCandidate(worker); sh != nil {
				sh.hedged = true
				sh.running++
				return sh, true
			}
		}
		q.cond.Wait()
	}
}

// pick returns the index of the best shard for worker, or -1. Order
// inside each preference class is FIFO, so placement order is honored
// and reschedules go to the back half only by arrival time.
func (q *shardQueue) pick(worker string, healthy func(string) bool) int {
	for i, sh := range q.ready {
		if sh.preferred == worker {
			return i
		}
	}
	for i, sh := range q.ready {
		if sh.last != worker && q.mayTake(sh, healthy) {
			return i
		}
	}
	for i, sh := range q.ready {
		if q.mayTake(sh, healthy) {
			return i
		}
	}
	return -1
}

// mayTake reports whether a worker other than sh's owner may run it: a
// shard that failed somewhere may go anywhere, and one still queued for
// its owner only once the owner is quarantined or has run its current
// attempt for stealAfter. Callers hold q.mu.
func (q *shardQueue) mayTake(sh *shard, healthy func(string) bool) bool {
	if sh.last != "" || !healthy(sh.preferred) {
		return true
	}
	for in := range q.inflight {
		if in.last == sh.preferred && time.Since(in.started) >= stealAfter {
			return true
		}
	}
	return false
}

// hedgeCandidate finds an in-flight shard worth duplicating: a single
// live attempt on some other worker that has been running past the
// hedge threshold. At most one hedge per attempt — a hedge that also
// straggles is not hedged again until an attempt fails and resets.
func (q *shardQueue) hedgeCandidate(worker string) *shard {
	if q.hedgeAfter <= 0 {
		return nil
	}
	for sh := range q.inflight {
		if !sh.finished && !sh.hedged && sh.running == 1 && sh.last != worker &&
			time.Since(sh.started) >= q.hedgeAfter {
			return sh
		}
	}
	return nil
}

// register attaches a live attempt's cancel so a winning peer can
// reclaim the loser's worker. The caller also defers its own cancel,
// so a cancel that slips past a concurrent finish still runs.
func (q *shardQueue) register(sh *shard, cancel context.CancelFunc) {
	q.mu.Lock()
	if !sh.finished {
		sh.cancels = append(sh.cancels, cancel)
	}
	q.mu.Unlock()
}

// complete records one attempt returning a result. Only the first
// completion wins (first reports it): the shard retires, the losing
// attempt's context is canceled, and its eventual return discards.
func (q *shardQueue) complete(sh *shard) (first bool) {
	q.mu.Lock()
	sh.running--
	if sh.finished {
		if sh.running == 0 {
			delete(q.inflight, sh)
		}
		q.mu.Unlock()
		return false
	}
	sh.finished = true
	losers := sh.cancels
	sh.cancels = nil
	if sh.running == 0 {
		delete(q.inflight, sh)
	}
	q.outstanding--
	q.mu.Unlock()
	for _, cancel := range losers {
		cancel()
	}
	q.cond.Broadcast()
	return true
}

// abort records one attempt failing. finished means a racing attempt
// already merged a result (the failure is a canceled loser: no breaker
// penalty, nothing to reschedule); retry means this was the shard's
// last live attempt and the caller must requeue or terminally fail it.
// A failed attempt with a live sibling resets the hedge clock: the
// sibling is the primary now, and may itself be hedged later.
func (q *shardQueue) abort(sh *shard) (finished, retry bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	sh.running--
	if sh.finished {
		if sh.running == 0 {
			delete(q.inflight, sh)
		}
		return true, false
	}
	if sh.running > 0 {
		sh.hedged = false
		sh.started = time.Now()
		return false, false
	}
	delete(q.inflight, sh)
	return false, true
}

// requeue puts a failed shard back for another worker; the shard
// stays outstanding.
func (q *shardQueue) requeue(sh *shard) {
	q.mu.Lock()
	q.ready = append(q.ready, sh)
	q.mu.Unlock()
	q.cond.Broadcast()
}

// done retires one shard without a result (terminal failure).
func (q *shardQueue) done() {
	q.mu.Lock()
	q.outstanding--
	finished := q.outstanding == 0
	q.mu.Unlock()
	if finished {
		q.cond.Broadcast()
	}
}

// close aborts the queue (context cancellation): every waiter drains.
func (q *shardQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// poke wakes every waiter to re-check its admission gate and hedge
// timers — the coordinator ticks this so a worker whose breaker
// cooldown expired (or whose peer started straggling) acts without a
// dedicated timer per worker.
func (q *shardQueue) poke() {
	q.cond.Broadcast()
}
