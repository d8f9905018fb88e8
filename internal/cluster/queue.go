package cluster

import (
	"sync"
	"time"
)

// shard is one unit of placement: one application, every requested
// configuration. It carries its scheduling history so rescheduling and
// steal accounting stay deterministic. It has at most one live attempt;
// last and started are guarded by the queue mutex.
type shard struct {
	app       string
	preferred string    // affinity owner chosen at placement, never re-placed
	attempts  int       // failed attempts so far
	last      string    // worker of the most recent attempt (set under the queue lock)
	started   time.Time // when the current attempt began
	noJournal bool      // a worker refused the shard's journal: run journal-less
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
// or dead node cannot strand the tail of a sweep. outstanding counts
// shards not yet merged or failed (queued or in flight); when it hits
// zero every waiter wakes and drains out.
type shardQueue struct {
	mu          sync.Mutex
	cond        *sync.Cond
	ready       []*shard
	inflight    map[*shard]struct{}
	outstanding int
	closed      bool
}

func newShardQueue(shards []*shard) *shardQueue {
	q := &shardQueue{
		ready:       append([]*shard(nil), shards...),
		inflight:    make(map[*shard]struct{}),
		outstanding: len(shards),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// take blocks until a shard is available to worker (affinity first,
// then shards last tried elsewhere, then anything it may steal), the
// queue closes, or all work completes; the latter two return nil.
// allowed gates admission (the caller's node breaker): while false the
// worker waits without taking work. It is asked only once there is a
// shard to hand out, because a breaker past its cooldown admits one
// half-open attempt per call that answers true, and that attempt must
// happen. healthy reports whether a worker's breaker is closed (see
// mayTake). poke wakes it to re-check after cooldowns (and to
// re-evaluate the steal timer).
func (q *shardQueue) take(worker string, allowed func() bool, healthy func(string) bool) *shard {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed || q.outstanding == 0 {
			return nil
		}
		if i := q.pick(worker, healthy); i >= 0 && (allowed == nil || allowed()) {
			sh := q.ready[i]
			q.ready = append(q.ready[:i], q.ready[i+1:]...)
			sh.started = time.Now()
			sh.last = worker
			q.inflight[sh] = struct{}{}
			return sh
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

// requeue puts a failed shard back for another worker; the shard
// stays outstanding.
func (q *shardQueue) requeue(sh *shard) {
	q.mu.Lock()
	delete(q.inflight, sh)
	q.ready = append(q.ready, sh)
	q.mu.Unlock()
	q.cond.Broadcast()
}

// done retires sh, merged or terminally failed.
func (q *shardQueue) done(sh *shard) {
	q.mu.Lock()
	delete(q.inflight, sh)
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

// poke wakes every waiter to re-check its admission gate and the steal
// timer — the coordinator ticks this so a worker whose breaker cooldown
// expired (or whose peer started straggling) acts without a dedicated
// timer per worker.
func (q *shardQueue) poke() {
	q.cond.Broadcast()
}
