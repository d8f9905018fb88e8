package cluster

// The espcoord HTTP facade speaks espd's admission dialect: the same
// tenant resolution (body field or X-ESP-Tenant header, a disagreement
// is a 400) and the same kind-to-status table.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"espsim/internal/serve"
	"espsim/internal/tenantq"
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

// TestCoordinatorClientGoneAtTenantGate: a client that hangs up while
// its sweep waits at the tenant gate gets espd's 499, not a 400.
func TestCoordinatorClientGoneAtTenantGate(t *testing.T) {
	c, err := New(Options{
		Workers:     []Worker{newWorker("w0", serve.Options{Workers: 1})},
		TenantSlots: 1,
		Logger:      quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	hold, err := c.tq.Acquire(context.Background(), "holder", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer hold()

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
