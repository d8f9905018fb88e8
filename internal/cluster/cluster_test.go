package cluster

// Cluster-plane behavior with live in-process workers: golden parity
// across a sharded fleet, work stealing off stragglers, and quarantine
// fed by shard attempts alone. Every worker is a real serve.Server
// driven through its full HTTP stack, so these tests cover the same
// code path a remote fleet runs.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	esp "espsim"
	"espsim/internal/fault"
	"espsim/internal/serve"
	"espsim/internal/serve/metrics"
	"espsim/internal/sim"
)

// The evaluation grid the golden corpus covers (mirrors the serve
// chaos suite).
var (
	gridApps    = []string{"amazon", "bing", "cnn", "facebook"}
	gridConfigs = []string{"base", "NaiveESP+NL", "Runahead+NL", "ESP+NL"}
)

const goldenMaxEvents = 48

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// readGoldenCorpus loads the repository determinism corpus keyed
// "app/config".
func readGoldenCorpus(t *testing.T) map[string]esp.Result {
	t.Helper()
	data, err := os.ReadFile("../../testdata/golden.json")
	if err != nil {
		t.Fatalf("reading golden corpus: %v", err)
	}
	var golden map[string]esp.Result
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("decoding golden corpus: %v", err)
	}
	if len(golden) == 0 {
		t.Fatal("golden corpus is empty")
	}
	return golden
}

// newWorker builds a named in-process espd worker.
func newWorker(name string, opt serve.Options) *LocalWorker {
	opt.Name = name
	if opt.Logger == nil {
		opt.Logger = quietLogger()
	}
	return NewLocalWorker(name, serve.New(opt))
}

func gridRequest(sweepID string) serve.SweepRequest {
	return serve.SweepRequest{Apps: gridApps, Configs: gridConfigs, SweepID: sweepID, MaxEvents: goldenMaxEvents}
}

// placeFleet is the owner a coordinator over names gives each of req's
// apps. Placement depends only on the names and the request, so a test
// reads it before building the fleet and picks the worker to kill or
// slow from it.
func placeFleet(t *testing.T, names []string, req serve.SweepRequest) map[string]string {
	t.Helper()
	owners, err := stubCoordinator(t, names, quietLogger()).place(req.Apps, req)
	if err != nil {
		t.Fatal(err)
	}
	return owners
}

// assertGridParity checks a merged response against the golden corpus:
// full grid, app-major order, every result bit-identical.
func assertGridParity(t *testing.T, golden map[string]esp.Result, resp serve.SweepResponse) {
	t.Helper()
	if want := len(gridApps) * len(gridConfigs); len(resp.Cells) != want {
		t.Fatalf("merged sweep has %d cells, want %d", len(resp.Cells), want)
	}
	for i, cell := range resp.Cells {
		wantApp, wantCfg := gridApps[i/len(gridConfigs)], gridConfigs[i%len(gridConfigs)]
		if cell.App != wantApp || cell.Config != wantCfg {
			t.Fatalf("cell %d is %s/%s, want %s/%s (app-major request order)", i, cell.App, cell.Config, wantApp, wantCfg)
		}
		key := cell.App + "/" + cell.Config
		if cell.Result == nil {
			t.Fatalf("cell %s has no result: error=%q kind=%q skipped=%q", key, cell.Error, cell.ErrorKind, cell.Skipped)
		}
		if !reflect.DeepEqual(*cell.Result, golden[key]) {
			t.Errorf("cell %s deviates from the golden corpus", key)
		}
	}
}

// workerMetrics reads one worker's espd /metrics through its full
// handler stack.
func workerMetrics(t *testing.T, lw *LocalWorker) metrics.Snapshot {
	t.Helper()
	rec := lw.do(context.Background(), http.MethodGet, "/metrics", nil)
	if rec.code != http.StatusOK {
		t.Fatalf("worker %s /metrics: status %d", lw.Name(), rec.code)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(rec.buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestClusterGoldenParity is the baseline: a healthy fleet with one
// worker per application must merge a sharded sweep bit-identical to
// a single node, with every shard on its affinity owner — no steals,
// no reschedules, each worker serving exactly its placed shard.
func TestClusterGoldenParity(t *testing.T) {
	golden := readGoldenCorpus(t)
	names := []string{"w0", "w1", "w2", "w3"}
	owned := map[string]int{}
	for _, w := range placeFleet(t, names, gridRequest("")) {
		owned[w]++
	}
	var fleet []*LocalWorker
	var workers []Worker
	for _, name := range names {
		if owned[name] != 1 {
			t.Fatalf("placement gives %s %d of the %d apps, want one worker per application", name, owned[name], len(gridApps))
		}
		lw := newWorker(name, serve.Options{Workers: 2})
		fleet = append(fleet, lw)
		workers = append(workers, lw)
	}
	c, err := New(Options{Workers: workers, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := c.Run(context.Background(), gridRequest(""))
	if err != nil {
		t.Fatal(err)
	}
	assertGridParity(t, golden, resp)

	snap := c.Metrics()
	if snap.Shards.Done != int64(len(gridApps)) || snap.Shards.Failed != 0 {
		t.Fatalf("shards done=%d failed=%d, want %d/0", snap.Shards.Done, snap.Shards.Failed, len(gridApps))
	}
	if snap.Shards.Steals != 0 || snap.Shards.Reschedules != 0 {
		t.Fatalf("healthy balanced fleet stole %d and rescheduled %d shards, want 0/0", snap.Shards.Steals, snap.Shards.Reschedules)
	}
	if snap.Sweeps.Done != 1 {
		t.Fatalf("sweeps done %d, want 1", snap.Sweeps.Done)
	}

	// Affinity: every worker served exactly its placed shard — the
	// cache-locality contract.
	for _, lw := range fleet {
		if ws := workerMetrics(t, lw); ws.Requests.Shard != 1 {
			t.Errorf("worker %s served %d shards, placement assigned 1", lw.Name(), ws.Requests.Shard)
		}
	}
}

// TestWorkSteal pins the straggler path: the worker placement gives
// three of the four shards stalls its cells until its peer, done with
// its own shard, has stolen one from its queue rather than sit out the
// sweep, and the merged grid still matches the corpus.
func TestWorkSteal(t *testing.T) {
	golden := readGoldenCorpus(t)
	owners := placeFleet(t, []string{"w0", "w1"}, gridRequest(""))
	slowName, idleName := "w0", "w1"
	if owners["amazon"] != slowName {
		slowName, idleName = idleName, slowName
	}
	owned := 0
	for _, w := range owners {
		if w == slowName {
			owned++
		}
	}
	if owned < 2 {
		t.Fatalf("placement %v leaves the slow worker %d shards, want a queue to steal from", owners, owned)
	}
	// The straggler's cells wait for the first steal, so the test does
	// not depend on how fast the peer replays its own shard; after 10 s
	// they stop waiting and the steal check below fails.
	var c *Coordinator
	patience := time.Now().Add(10 * time.Second)
	slowHook := func(pt sim.FaultPoint) error {
		for pt.Op == "run" && c.met.Steals.Load() == 0 && time.Now().Before(patience) {
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	slow := newWorker(slowName, serve.Options{Workers: 1, FaultHook: slowHook})
	idle := newWorker(idleName, serve.Options{Workers: 2})
	c, err := New(Options{Workers: []Worker{slow, idle}, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := c.Run(context.Background(), gridRequest(""))
	if err != nil {
		t.Fatal(err)
	}
	assertGridParity(t, golden, resp)

	snap := c.Metrics()
	if snap.Shards.Steals == 0 {
		t.Fatal("idle worker never stole from the straggler")
	}
	if got := workerMetrics(t, idle).Requests.Shard; got == 0 {
		t.Fatal("idle worker served no shards")
	}
}

// TestStealOnlyFromStragglers pins when an idle worker may take a shard
// still queued for another: not while the healthy owner's current
// attempt is younger than stealAfter, but once it has run that long, at
// once when the owner is quarantined, and whenever the shard already
// failed somewhere.
func TestStealOnlyFromStragglers(t *testing.T) {
	healthy := func(string) bool { return true }
	quarantined := func(string) bool { return false }
	q := newShardQueue([]*shard{{app: "amazon", preferred: "w0"}, {app: "bing", preferred: "w0"}})
	running := q.take("w0", nil, healthy)
	if i := q.pick("w1", healthy); i >= 0 {
		t.Fatalf("w1 took %s from a healthy owner whose attempt just started", q.ready[i].app)
	}
	if q.pick("w1", quarantined) < 0 {
		t.Fatal("w1 may not take a quarantined owner's shard")
	}
	running.started = time.Now().Add(-stealAfter)
	if q.pick("w1", healthy) < 0 {
		t.Fatal("w1 may not take a straggling owner's shard")
	}
	running.started = time.Now()
	q.ready[0].last = "w0"
	if q.pick("w1", healthy) < 0 {
		t.Fatal("w1 may not take a shard that failed on its owner")
	}
}

// TestProbeQuarantines pins quarantine of a dead worker by its failed
// shard attempts alone: its breaker trips once, the fleet routes around
// it, and the sweep completes bit-identically on the healthy worker.
func TestProbeQuarantines(t *testing.T) {
	golden := readGoldenCorpus(t)
	healthy := newWorker("healthy", serve.Options{Workers: 2})
	sick := newWorker("sick", serve.Options{Workers: 2})
	sick.Kill()

	c, err := New(Options{Workers: []Worker{healthy, sick}, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := c.Run(context.Background(), gridRequest(""))
	if err != nil {
		t.Fatal(err)
	}
	assertGridParity(t, golden, resp)

	snap := c.Metrics()
	states := map[string]string{}
	for _, ws := range snap.Workers {
		states[ws.Name] = ws.Breaker
	}
	if states["sick"] != "open" {
		t.Errorf("sick worker breaker %q, want open", states["sick"])
	}
	if states["healthy"] != "closed" {
		t.Errorf("healthy worker breaker %q, want closed", states["healthy"])
	}
	if snap.Quarantine.Trips != 1 {
		t.Errorf("quarantine trips %d, want 1 for the dead worker", snap.Quarantine.Trips)
	}
	// All cells completed on the healthy node despite the sick one.
	if got := workerMetrics(t, sick).Requests.Shard; got != 0 {
		t.Errorf("dead worker served %d shards", got)
	}
}

// TestDrainingWorkerRoutedAround: a draining espd answers every shard
// with 503, and those answers alone quarantine it. The draining worker
// is the one placement gives more than one shard, so it fails two of
// its own attempts back to back; the peer completes the grid
// bit-identically, and no attempt counts as a net fault, since the
// node answered.
func TestDrainingWorkerRoutedAround(t *testing.T) {
	golden := readGoldenCorpus(t)
	owners := placeFleet(t, []string{"w0", "w1"}, gridRequest(""))
	drainName, peerName := owners["amazon"], "w0"
	if drainName == peerName {
		peerName = "w1"
	}
	owned := 0
	for _, w := range owners {
		if w == drainName {
			owned++
		}
	}
	if owned < 2 {
		t.Fatalf("placement %v gives the draining worker %d shards, want at least 2", owners, owned)
	}
	draining := newWorker(drainName, serve.Options{Workers: 2})
	draining.srv.BeginDrain()
	peer := newWorker(peerName, serve.Options{Workers: 2})
	resp, snap := runFleet(t, []Worker{draining, peer}, gridRequest(""))
	assertGridParity(t, golden, resp)

	if got := workerMetrics(t, draining).Requests.Shard; got != 0 {
		t.Errorf("draining worker served %d shards, want 0", got)
	}
	for _, ws := range snap.Workers {
		if ws.Name == drainName && ws.Breaker != "open" {
			t.Errorf("draining worker breaker %s, want open", ws.Breaker)
		}
	}
	if snap.Shards.Reschedules < 1 {
		t.Errorf("reschedules %d, want at least 1", snap.Shards.Reschedules)
	}
	if snap.NetFaults != 0 {
		t.Errorf("net_faults %d, want 0: a draining worker answers", snap.NetFaults)
	}
}

// slowWorker answers like stubWorker after pause; while stall is set,
// an attempt instead announces itself on stalled and runs until its
// context ends.
type slowWorker struct {
	stubWorker
	pause   time.Duration
	stall   atomic.Bool
	stalled chan struct{}
}

func (s *slowWorker) Sweep(ctx context.Context, req serve.SweepRequest) (serve.SweepResponse, error) {
	if s.stall.Load() {
		s.stalled <- struct{}{}
		<-ctx.Done()
		return serve.SweepResponse{}, ctx.Err()
	}
	time.Sleep(s.pause)
	return s.stubWorker.Sweep(ctx, req)
}

// TestRecoveredWorkerRejoins: a quarantined worker that recovers is
// re-admitted by the one attempt its breaker grants after the cooldown,
// so nothing may spend that attempt without running a shard: not a
// sweep that has no shard for the worker, and not a sweep canceled
// while the attempt runs.
func TestRecoveredWorkerRejoins(t *testing.T) {
	w0 := &slowWorker{stubWorker: stubWorker{name: "w0"}, stalled: make(chan struct{}, 1)}
	w1 := &slowWorker{stubWorker: stubWorker{name: "w1"}, pause: 100 * time.Millisecond}
	c, err := New(Options{Workers: []Worker{w0, w1}, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	const cooldown = time.Millisecond
	c.breakers = fault.NewEscalatingBreakerSet(nodeBreakerThreshold, cooldown, cooldown)

	// own is an app placed on w0 and other one placed on w1, alone or
	// together; w1 runs other first and then may steal own from its
	// quarantined owner, so w0 has 100 ms to take own.
	var own, other string
	for _, app := range suiteApps() {
		owners, err := c.place([]string{app}, serve.SweepRequest{})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case owners[app] == "w0" && own == "":
			own = app
		case owners[app] == "w1" && other == "":
			other = app
		}
	}
	if pair, err := c.place([]string{own, other}, serve.SweepRequest{}); err != nil || pair[own] != "w0" || pair[other] != "w1" {
		t.Fatalf("placement of %q and %q: %v (%v), want w0 and w1", own, other, pair, err)
	}
	sweep := func(ctx context.Context, apps ...string) error {
		_, err := c.Run(ctx, serve.SweepRequest{Apps: apps, Configs: []string{"base"}})
		return err
	}
	quarantine := func() {
		t.Helper()
		for i := 0; i < nodeBreakerThreshold; i++ {
			c.breakers.Record("w0", false)
		}
		if st := c.breakers.StateOf("w0"); st != "open" {
			t.Fatalf("w0 breaker %s after %d failures, want open", st, nodeBreakerThreshold)
		}
		time.Sleep(2 * cooldown)
	}
	rejoined := func(after string, served int64) {
		t.Helper()
		if st, n := c.breakers.StateOf("w0"), w0.shards.Load()-served; st != "closed" || n == 0 {
			t.Fatalf("after %s, recovered w0 served %d shards of the next sweep with its breaker %s; want 1, closed", after, n, st)
		}
	}

	// Past its cooldown, w0 waits out a sweep with no shard for it.
	quarantine()
	if err := sweep(context.Background(), other); err != nil {
		t.Fatal(err)
	}
	if err := sweep(context.Background(), own, other); err != nil {
		t.Fatal(err)
	}
	rejoined("a sweep with no shard for it", 0)

	// w0's attempt is canceled with its sweep.
	quarantine()
	w0.stall.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-w0.stalled
		cancel()
	}()
	if err := sweep(ctx, own, other); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep: %v, want context.Canceled", err)
	}
	w0.stall.Store(false)
	served := w0.shards.Load()
	if err := sweep(context.Background(), own, other); err != nil {
		t.Fatal(err)
	}
	rejoined("a canceled attempt", served)
}
