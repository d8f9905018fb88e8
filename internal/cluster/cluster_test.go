package cluster

// Cluster-plane behavior with live in-process workers: golden parity
// across a sharded fleet, work stealing off stragglers, and
// probe-driven quarantine. Every worker is a real serve.Server driven
// through its full HTTP stack, so these tests cover the same code
// path a remote fleet runs.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"os"
	"reflect"
	"testing"
	"time"

	esp "espsim"
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

// probeUntil drives c's probe loop every millisecond until done holds,
// failing the test after 10 s.
func probeUntil(t *testing.T, c *Coordinator, done func() bool) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		c.probeLoop(ctx, time.Millisecond)
		close(stopped)
	}()
	defer func() {
		cancel()
		<-stopped
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !done() {
		if time.Now().After(deadline) {
			t.Fatalf("probe loop never reached its condition: %+v", c.Metrics())
		}
		time.Sleep(time.Millisecond)
	}
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

// TestProbeQuarantines pins both quarantine paths for a dead worker:
// its failed shard attempts trip its breaker while the fleet routes
// around it and the sweep completes bit-identically, and on a fresh
// coordinator the probe loop alone trips it too.
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

	// The probe path: no sweep runs, and the probes alone quarantine
	// the dead worker and keep the healthy one routable.
	p, err := New(Options{Workers: []Worker{healthy, sick}, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	probeUntil(t, p, func() bool { return p.breakers.StateOf("sick") == "open" })
	if st := p.breakers.StateOf("healthy"); st != "closed" {
		t.Errorf("healthy worker breaker %q after probing, want closed", st)
	}
	if ps := p.Metrics(); ps.Health.Failures < nodeBreakerThreshold || ps.Health.Probes <= ps.Health.Failures {
		t.Errorf("prober ran %d probes with %d failures, want >= %d failures and some successes",
			ps.Health.Probes, ps.Health.Failures, nodeBreakerThreshold)
	}
}

// gatedProbeWorker holds its first probe until released, then answers
// healthy; later probes wait for the prober to stop. Each probe
// announces itself on started.
type gatedProbeWorker struct {
	started chan struct{}
	release chan struct{}
	calls   int
}

func (g *gatedProbeWorker) Name() string { return "gated" }

func (g *gatedProbeWorker) Sweep(context.Context, serve.SweepRequest) (serve.SweepResponse, error) {
	return serve.SweepResponse{}, ErrWorkerDown
}

func (g *gatedProbeWorker) Probe(ctx context.Context) error {
	g.calls++ // the prober probes one node at a time
	select {
	case g.started <- struct{}{}:
	default:
	}
	if g.calls == 1 {
		<-g.release
		return nil
	}
	<-ctx.Done()
	return ctx.Err()
}

// TestStaleProbeKeepsQuarantine: a node that trips while a probe is in
// flight stays quarantined when that probe then succeeds, because the
// success describes the node before it failed.
func TestStaleProbeKeepsQuarantine(t *testing.T) {
	g := &gatedProbeWorker{started: make(chan struct{}, 1), release: make(chan struct{})}
	c, err := New(Options{Workers: []Worker{g}, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		c.probeLoop(ctx, time.Millisecond)
		close(stopped)
	}()
	defer func() {
		cancel()
		<-stopped
	}()

	<-g.started // first probe in flight on a healthy node
	for i := 0; i < nodeBreakerThreshold; i++ {
		c.breakers.Record("gated", false) // shards fail on the node meanwhile
	}
	close(g.release) // the first probe then answers healthy
	<-g.started      // second probe started: the first is accounted
	if st := c.breakers.StateOf("gated"); st != "open" {
		t.Fatalf("a probe that started before the trip left the breaker %s, want open", st)
	}
}

// stallWorker's shard attempts and probes each run until their context
// ends; every attempt announces itself on sweeping.
type stallWorker struct{ sweeping chan struct{} }

func (s *stallWorker) Name() string { return "w0" }

func (s *stallWorker) Sweep(ctx context.Context, _ serve.SweepRequest) (serve.SweepResponse, error) {
	s.sweeping <- struct{}{}
	<-ctx.Done()
	return serve.SweepResponse{}, ctx.Err()
}

func (s *stallWorker) Probe(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}

// TestOneProbeLoopPerCoordinator: sweeps in flight share one probe
// loop, so a worker sees one probe per round however many run, and the
// loop stops with the last sweep, recording no failure for the probe
// it cut short.
func TestOneProbeLoopPerCoordinator(t *testing.T) {
	const sweeps = 4
	w := &stallWorker{sweeping: make(chan struct{}, sweeps)}
	c, err := New(Options{Workers: []Worker{w}, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	c.probeEvery = time.Millisecond
	req := serve.SweepRequest{Apps: []string{"amazon"}, Configs: []string{"base"}}
	cancels := make([]context.CancelFunc, sweeps)
	ended := make(chan error, sweeps)
	for i := range cancels {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		go func() {
			_, err := c.Run(ctx, req)
			ended <- err
		}()
	}
	for i := 0; i < sweeps; i++ {
		<-w.sweeping
	}
	// The first probe stalls until its loop stops; a loop per sweep
	// would start a probe of its own within a round or two of it.
	for c.met.Probes.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * c.probeEvery)
	if n := c.met.Probes.Load(); n != 1 {
		t.Fatalf("%d sweeps in flight started %d probes of one worker, want 1", sweeps, n)
	}
	for i, cancel := range cancels {
		cancel()
		if err := <-ended; !errors.Is(err, context.Canceled) {
			t.Fatalf("sweep %d: %v, want context.Canceled", i, err)
		}
		snap := c.Metrics()
		if snap.Health.Probes != 1 || snap.Health.Failures != 0 || snap.Workers[0].Breaker != "closed" {
			t.Fatalf("after %d of %d sweeps ended: %d probes, %d failed, breaker %s; want 1 probe still in flight, none failed, closed",
				i+1, sweeps, snap.Health.Probes, snap.Health.Failures, snap.Workers[0].Breaker)
		}
	}
}
