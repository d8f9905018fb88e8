package cluster

// Cluster-plane behavior with live in-process workers: golden parity
// across a sharded fleet, work stealing off stragglers, and
// probe-driven quarantine. Every worker is a real serve.Server driven
// through its full HTTP stack, so these tests cover the same code
// path a remote fleet runs.

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"os"
	"reflect"
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
	pin := map[string]string{}
	var fleet []*LocalWorker
	var workers []Worker
	for i, app := range gridApps {
		lw := newWorker([]string{"w0", "w1", "w2", "w3"}[i], serve.Options{Workers: 2})
		fleet = append(fleet, lw)
		workers = append(workers, lw)
		pin[app] = lw.Name()
	}
	c, err := New(Options{Workers: workers, Pin: pin, Logger: quietLogger()})
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

// TestWorkSteal pins the straggler path: with every shard pinned to
// one slow worker, an idle peer must steal rather than sit out the
// sweep, and the merged grid still matches the corpus.
func TestWorkSteal(t *testing.T) {
	golden := readGoldenCorpus(t)
	slowHook := func(pt sim.FaultPoint) error {
		if pt.Op == "run" {
			time.Sleep(30 * time.Millisecond)
		}
		return nil
	}
	slow := newWorker("slow", serve.Options{Workers: 1, FaultHook: slowHook})
	idle := newWorker("idle", serve.Options{Workers: 2})
	pin := map[string]string{}
	for _, app := range gridApps {
		pin[app] = "slow"
	}
	c, err := New(Options{Workers: []Worker{slow, idle}, Pin: pin, Logger: quietLogger()})
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

// TestProbeQuarantines pins probe-driven quarantine: a worker whose
// network path always fails is tripped by health probes (or its first
// shard attempt), the fleet routes around it, and the sweep still
// completes bit-identically.
func TestProbeQuarantines(t *testing.T) {
	golden := readGoldenCorpus(t)
	healthy := newWorker("healthy", serve.Options{Workers: 2})
	sick := newWorker("sick", serve.Options{Workers: 2})
	plan := &fault.NetPlan{}
	plan.Always("sick", fault.NetErr)

	c, err := New(Options{
		Workers:          []Worker{healthy, WithNetPlan(sick, plan)},
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour, // never un-quarantine inside the test
		MaxShardAttempts: 4,
		ProbeInterval:    5 * time.Millisecond,
		Logger:           quietLogger(),
	})
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
	if snap.Health.Probes == 0 || snap.Health.Failures == 0 {
		t.Errorf("prober ran %d probes with %d failures, want both > 0", snap.Health.Probes, snap.Health.Failures)
	}
	if snap.Quarantine.Trips == 0 {
		t.Error("no quarantine trips recorded for a worker that always fails")
	}
	// All cells completed on the healthy node despite the sick one.
	if got := workerMetrics(t, sick).Requests.Shard; got != 0 {
		t.Errorf("sick worker served %d shards through a dead network", got)
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
	c, err := New(Options{
		Workers:          []Worker{g},
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		ProbeInterval:    time.Millisecond,
		Logger:           quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		c.probeLoop(ctx)
		close(stopped)
	}()
	defer func() {
		cancel()
		<-stopped
	}()

	<-g.started                       // first probe in flight on a healthy node
	c.breakers.Record("gated", false) // a shard fails on the node meanwhile
	close(g.release)                  // the first probe then answers healthy
	<-g.started                       // second probe started: the first is accounted
	if st := c.breakers.StateOf("gated"); st != "open" {
		t.Fatalf("a probe that started before the trip left the breaker %s, want open", st)
	}
}
