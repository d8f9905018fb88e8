package cluster

// Overload-robustness chaos for the coordination plane: a greedy
// tenant flooding a degraded fleet while a victim tenant's sweep
// overtakes via fair queueing, deadline shedding answers in bounded
// time, and quota breaches surface as 429 through the espcoord HTTP
// facade.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"espsim/internal/fault"
	"espsim/internal/serve"
	"espsim/internal/tenantq"
)

// TestGreedyTenantFloodDegradedFleet is the overload acceptance gate:
// a greedy tenant floods a three-worker fleet one of whose workers is
// dead. The victim tenant's single sweep must overtake the flood via
// DRR fair queueing (bounded latency while most of the flood still
// waits), stay bit-identical to the golden corpus, an already-expired
// deadline must shed the whole grid with zero simulation and exact
// counters, and a quota breach must answer 429 through the espcoord
// HTTP facade.
func TestGreedyTenantFloodDegradedFleet(t *testing.T) {
	golden := readGoldenCorpus(t)

	// cnn's owner is dead.
	names := []string{"w0", "w1", "w2"}
	deadName := placeFleet(t, names, gridRequest(""))["cnn"]
	var workers []Worker
	var dead *LocalWorker
	for _, name := range names {
		lw := newWorker(name, serve.Options{Workers: 2})
		if name == deadName {
			lw.Kill()
			dead = lw
		}
		workers = append(workers, lw)
	}

	gridCells := len(gridApps) * len(gridConfigs)
	c, err := New(Options{
		Workers: workers,
		Tenants: map[string]tenantq.TenantConfig{
			"greedy": {Weight: 1},
			"victim": {Weight: 1},
			"capped": {CellBudget: int64(gridCells)},
		},
		Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// One sweep admitted at a time: DRR turn order fully decides who
	// runs next, which is what the fairness assertions pin.
	defer holdTenantSlots(t, c, tenantSlots*len(names)-1)()

	// The flood: eight whole-grid sweeps from the greedy tenant.
	const floodSize = 8
	var (
		wg          sync.WaitGroup
		floodErrs   = make(chan error, floodSize)
		greedyDone  atomic.Int64
		floodStart  = time.Now()
		floodDurMu  sync.Mutex
		floodFinish time.Time
	)
	for i := 0; i < floodSize; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := gridRequest("")
			req.Tenant = "greedy"
			if _, err := c.Run(context.Background(), req); err != nil {
				floodErrs <- err
			}
			greedyDone.Add(1)
			floodDurMu.Lock()
			floodFinish = time.Now()
			floodDurMu.Unlock()
		}()
	}

	// Wait until the flood is genuinely queued behind admission (one
	// sweep in flight, the rest waiting) before the victim arrives.
	deadline := time.Now().Add(10 * time.Second)
	for c.tq.QueuedAcquisitions() < floodSize-1 {
		if time.Now().After(deadline) {
			t.Fatalf("flood never queued: %d acquisitions waiting", c.tq.QueuedAcquisitions())
		}
		time.Sleep(time.Millisecond)
	}

	victimReq := gridRequest("")
	victimReq.Tenant = "victim"
	victimStart := time.Now()
	victimResp, err := c.Run(context.Background(), victimReq)
	victimDur := time.Since(victimStart)
	if err != nil {
		t.Fatalf("victim sweep failed under flood: %v", err)
	}
	// Fairness: the victim overtakes the flood. At most the in-flight
	// greedy sweep plus one more may finish first; the rest must still
	// be waiting when the victim completes.
	if done := greedyDone.Load(); done > 2 {
		t.Errorf("victim finished after %d greedy sweeps; fair queueing should let at most 2 go first", done)
	}
	assertGridParity(t, golden, victimResp)

	wg.Wait()
	close(floodErrs)
	for err := range floodErrs {
		t.Errorf("greedy sweep failed: %v", err)
	}
	floodDur := floodFinish.Sub(floodStart)
	// Latency bound: the victim's wait is its own sweep plus at most two
	// greedy sweeps ahead — far below the serialized flood's total.
	if victimDur*2 >= floodDur {
		t.Errorf("victim latency %v is not well under the flood's %v — fair queueing bought nothing", victimDur, floodDur)
	}

	// Deadline shedding through the fleet: an already-expired deadline
	// answers the full grid as shed cells with zero simulation, fast,
	// even with a worker quarantined. Counters are exact.
	preShed := c.Metrics().Overload.CellsShed
	shedReq := gridRequest("")
	shedReq.Tenant = "greedy"
	shedReq.DeadlineMs = -1
	shedStart := time.Now()
	shedResp, err := c.Run(context.Background(), shedReq)
	shedDur := time.Since(shedStart)
	if err != nil {
		t.Fatalf("expired-deadline sweep errored instead of shedding: %v", err)
	}
	if len(shedResp.Cells) != gridCells {
		t.Fatalf("shed sweep answered %d cells, want the full grid of %d", len(shedResp.Cells), gridCells)
	}
	for _, cell := range shedResp.Cells {
		if cell.ErrorKind != string(fault.KindShed) {
			t.Fatalf("cell %s/%s kind %q, want %q", cell.App, cell.Config, cell.ErrorKind, fault.KindShed)
		}
		if cell.Result != nil {
			t.Fatalf("cell %s/%s carries a result despite an expired deadline", cell.App, cell.Config)
		}
	}
	if got := c.Metrics().Overload.CellsShed - preShed; got != int64(gridCells) {
		t.Errorf("cells_shed grew by %d, want exactly %d", got, gridCells)
	}
	if shedDur > time.Second {
		t.Errorf("full-grid shed took %v, want well under a second (no simulation may run)", shedDur)
	}

	// Quota enforcement end to end: the capped tenant's budget covers
	// exactly one grid; the second sweep breaches and the HTTP facade
	// answers 429 with the quota sentinel's message.
	cappedReq := gridRequest("")
	cappedReq.Tenant = "capped"
	if _, err := c.Run(context.Background(), cappedReq); err != nil {
		t.Fatalf("capped tenant's first sweep (within budget): %v", err)
	}
	if _, err := c.Run(context.Background(), cappedReq); !errors.Is(err, tenantq.ErrQuota) {
		t.Fatalf("capped tenant's second sweep: got %v, want ErrQuota", err)
	}
	srv := NewServer(c)
	rec := httptest.NewRecorder()
	body := fmt.Sprintf(`{"apps":["amazon"],"configs":["base"],"max_events":%d,"tenant":"capped"}`, goldenMaxEvents)
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("facade answered %d for a quota breach, want 429: %s", rec.Code, rec.Body.String())
	}

	// The dead worker served nothing.
	if got := workerMetrics(t, dead).Requests.Shard; got != 0 {
		t.Errorf("dead worker served %d shards", got)
	}
}

// holdTenantSlots takes n of c's tenant-queue slots under a tenant of
// its own, so a test can leave the fleet-wide gate as narrow as it
// needs; the returned func gives them back.
func holdTenantSlots(t *testing.T, c *Coordinator, n int) func() {
	t.Helper()
	releases := make([]func(), 0, n)
	for i := 0; i < n; i++ {
		release, err := c.tq.Acquire(context.Background(), "holder", 1)
		if err != nil {
			t.Fatal(err)
		}
		releases = append(releases, release)
	}
	return func() {
		for _, release := range releases {
			release()
		}
	}
}
