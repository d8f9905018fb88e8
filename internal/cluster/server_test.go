package cluster

// The espcoord HTTP facade speaks espd's admission dialect: the same
// tenant resolution (body field or X-ESP-Tenant header, a disagreement
// is a 400) and the same kind-to-status table.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"espsim/internal/fault"
	"espsim/internal/serve"
	"espsim/internal/tenantq"
	"espsim/internal/workload"
)

// TestCoordinatorHonorsTenantHeader: a capped tenant named only in the
// header is held to its quota at the coordinator (429, nothing
// simulated), and a body/header disagreement is a 400, as at espd.
func TestCoordinatorHonorsTenantHeader(t *testing.T) {
	w0 := newWorker("w0", serve.Options{Workers: 1})
	c, err := New(Options{
		Workers: []Worker{w0},
		Tenants: map[string]tenantq.TenantConfig{"capped": {CellBudget: 1}},
		Logger:  quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(c)
	sweep := func(body, tenant string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(body))
		req.Header.Set(serve.TenantHeader, tenant)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}

	grid := fmt.Sprintf(`{"apps":["amazon"],"configs":["base","ESP+NL"],"max_events":%d}`, goldenMaxEvents)
	if rec := sweep(grid, "capped"); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("2-cell sweep by a 1-cell tenant named in the header: status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if cells := workerMetrics(t, w0).Engine.Cells; cells != 0 {
		t.Errorf("refused sweep simulated %d cells, want 0", cells)
	}

	disagree := fmt.Sprintf(`{"apps":["amazon"],"configs":["base"],"max_events":%d,"tenant":"somebody"}`, goldenMaxEvents)
	if rec := sweep(disagree, "else"); rec.Code != http.StatusBadRequest {
		t.Fatalf("disagreeing tenant field/header: status %d, want 400: %s", rec.Code, rec.Body.String())
	}
}

// TestCoordinatorOversizeBodyRejected: a well-formed /sweep body one
// byte past serve.MaxRequestBytes is a 400 at espcoord, as at espd, and
// reaches no worker.
func TestCoordinatorOversizeBodyRejected(t *testing.T) {
	w0 := newWorker("w0", serve.Options{Workers: 1})
	c, err := New(Options{Workers: []Worker{w0}, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	head, tail := `{"apps":["amazon"],"configs":["base"],"sweep_id":"`, `"}`
	body := head + strings.Repeat("x", serve.MaxRequestBytes+1-len(head)-len(tail)) + tail
	rec := httptest.NewRecorder()
	NewServer(c).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too large") {
		t.Fatalf("status %d (%s), want 400 for an oversize body", rec.Code, rec.Body.String())
	}
	if cells := workerMetrics(t, w0).Engine.Cells; cells != 0 {
		t.Errorf("refused sweep simulated %d cells, want 0", cells)
	}
}

// TestCoordinatorClientGoneAtTenantGate: a client that hangs up while
// its sweep waits at the tenant gate gets espd's 499, not a 400.
func TestCoordinatorClientGoneAtTenantGate(t *testing.T) {
	c, err := New(Options{Workers: []Worker{newWorker("w0", serve.Options{Workers: 1})}, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer holdTenantSlots(t, c, tenantSlots)()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		body := fmt.Sprintf(`{"apps":["amazon"],"configs":["base"],"max_events":%d}`, goldenMaxEvents)
		rec := httptest.NewRecorder()
		NewServer(c).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(body)).WithContext(ctx))
		done <- rec
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.tq.QueuedAcquisitions() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never queued at the tenant gate")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if rec := <-done; rec.Code != 499 {
		t.Fatalf("client gone at the tenant gate: status %d, want 499: %s", rec.Code, rec.Body.String())
	}
}

// refuseShard is a Worker that fails one application's shard on every
// attempt and serves the rest.
type refuseShard struct {
	Worker
	app string
}

func (r refuseShard) Sweep(ctx context.Context, req serve.SweepRequest) (serve.SweepResponse, error) {
	if req.Shard == r.app {
		return serve.SweepResponse{}, fmt.Errorf("%w: %s refuses shard %s", fault.ErrInjected, r.Name(), r.app)
	}
	return r.Worker.Sweep(ctx, req)
}

// TestShardTerminalFailure: a shard that fails on every attempt comes
// back as per-cell errors carrying its kind once maxShardAttempts are
// spent, the rest of the grid is intact, and espcoord's /workers and
// /healthz answer alongside. The failures spread over two workers, so
// at most one of them reaches its breaker's threshold.
func TestShardTerminalFailure(t *testing.T) {
	golden := readGoldenCorpus(t)
	const failing = "bing"
	var workers []Worker
	for _, name := range []string{"w0", "w1"} {
		workers = append(workers, refuseShard{Worker: newWorker(name, serve.Options{Workers: 2}), app: failing})
	}
	c, err := New(Options{Workers: workers, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(c)
	resp, err := c.Run(context.Background(), gridRequest(""))
	if err != nil {
		t.Fatal(err)
	}

	if want := len(gridApps) * len(gridConfigs); len(resp.Cells) != want {
		t.Fatalf("sweep answered %d cells, want %d", len(resp.Cells), want)
	}
	for _, cell := range resp.Cells {
		key := cell.App + "/" + cell.Config
		if cell.App == failing {
			if cell.Result != nil || cell.ErrorKind != string(fault.KindInjected) || cell.Error == "" {
				t.Errorf("cell %s of the failed shard: kind %q error %q result %v, want the shard's %q error",
					key, cell.ErrorKind, cell.Error, cell.Result != nil, fault.KindInjected)
			}
			continue
		}
		if cell.Result == nil || !reflect.DeepEqual(*cell.Result, golden[key]) {
			t.Errorf("cell %s of a healthy shard deviates from the golden corpus (error %q)", key, cell.Error)
		}
	}
	snap := c.Metrics()
	if snap.Shards.Failed != 1 || snap.Shards.Done != int64(len(gridApps)-1) {
		t.Fatalf("shards failed %d done %d, want 1 and %d", snap.Shards.Failed, snap.Shards.Done, len(gridApps)-1)
	}
	if snap.Shards.Reschedules != maxShardAttempts-1 || snap.Quarantine.Trips > 1 {
		t.Errorf("reschedules %d trips %d, want %d and at most 1", snap.Shards.Reschedules, snap.Quarantine.Trips, maxShardAttempts-1)
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/workers", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /workers: status %d", rec.Code)
	}
	var view struct {
		Placements []Placement   `json:"placements"`
		Workers    []WorkerState `json:"workers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	suite := workload.Suite()
	if len(view.Placements) != len(suite) || len(view.Workers) != len(workers) {
		t.Fatalf("/workers lists %d placements and %d workers, want %d and %d",
			len(view.Placements), len(view.Workers), len(suite), len(workers))
	}
	placed := map[string]bool{}
	for _, p := range view.Placements {
		if p.Worker != "w0" && p.Worker != "w1" {
			t.Errorf("app %s placed on unknown worker %q", p.App, p.Worker)
		}
		placed[p.App] = true
	}
	for _, p := range suite {
		if !placed[p.Name] {
			t.Errorf("/workers has no placement for suite app %s", p.Name)
		}
	}
}
