package serve

// Overload-robustness tests: tenant fair queueing under saturation,
// deadline-aware shedding (including the zero-simulation sweep fast
// path), per-tenant quotas, and memory-pressure brownout degradation.
// Every test ends with assertDrained, so the new admission paths join
// the leak contract the rest of the suite enforces.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"espsim/internal/serve/metrics"
	"espsim/internal/sim"
	"espsim/internal/tenantq"
)

// snapshotAdmitted reads per-tenant admitted-cell counts.
func snapshotAdmitted(s *Server) map[string]int64 {
	out := map[string]int64{}
	for _, row := range s.tq.Snapshot() {
		out[row.Tenant] = row.AdmittedCells
	}
	return out
}

// TestTenantFairnessUnderSaturation is the fairness proof at the HTTP
// layer: four tenants with DRR weights 1:1:2:4 flood a single-worker
// daemon with far more cells than it can serve. Each /sweep takes one
// queue ticket and queues one batch per app, so the whole backlog fits
// within the Workers+queueDepth tickets. While the backlog holds, each
// tenant's share of admitted cells must track its weight share within
// 10 percentage points plus one DRR turn — no tenant starves, and no
// tenant wins more than its weight buys.
func TestTenantFairnessUnderSaturation(t *testing.T) {
	slow := func(pt sim.FaultPoint) error {
		if pt.Op == "run" {
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	weights := map[string]float64{"t1": 1, "t2": 1, "t3": 2, "t4": 4}
	tenants := map[string]tenantq.TenantConfig{}
	for name, w := range weights {
		tenants[name] = tenantq.TenantConfig{Weight: w}
	}
	s := testServer(t, Options{Workers: 1, Tenants: tenants, FaultHook: slow})

	// 16 sweeps of 7 apps × 2 one-event configs: 224 cells per tenant.
	perTenant := cap(s.tickets) / len(weights)
	body, err := json.Marshal(SweepRequest{Configs: []string{"base", "NL"}, MaxEvents: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for name := range weights {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				req := httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)).WithContext(ctx)
				req.Header.Set(TenantHeader, tenant)
				s.ServeHTTP(httptest.NewRecorder(), req)
			}(name)
		}
	}

	// Sample mid-backlog: after five DRR rounds (64 cells each) every
	// tenant still has cells queued, so shares reflect the fair queue,
	// not the tail. The 320 cells take about 3 s under the race
	// detector, so the wait is longer than waitFor's.
	var counts map[string]int64
	var total int64
	for deadline := time.Now().Add(30 * time.Second); total < 320; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d cells admitted in 30 s", total)
		}
		counts = snapshotAdmitted(s)
		total = 0
		for _, c := range counts {
			total += c
		}
	}
	const drrQuantum = 8 // tenantq's DRR turn, in cells per unit weight
	var weightSum float64
	for _, w := range weights {
		weightSum += w
	}
	for name, w := range weights {
		ideal := float64(total) * w / weightSum
		tol := 0.10*float64(total) + drrQuantum*w + 1 // 10% + one DRR turn of slack
		if diff := float64(counts[name]) - ideal; diff > tol || diff < -tol {
			t.Errorf("tenant %s admitted %d of %d cells, ideal %.1f (weight %g/%g), tolerance %.1f",
				name, counts[name], total, ideal, w, weightSum, tol)
		}
		if counts[name] == 0 {
			t.Errorf("tenant %s starved: 0 of %d grants", name, total)
		}
	}

	cancel() // release the backlog: queued requests 499 out
	wg.Wait()
	assertDrained(t, s)
}

// TestSweepExpiredDeadlineFastPath: a sweep whose deadline is already
// exhausted (a coordinator propagating a spent budget sends a negative
// deadline_ms) comes back 504 with the full grid as structured shed
// cells — well under 50ms, with zero cells simulated, no journal claim,
// and the shed accounted to the tenant.
func TestSweepExpiredDeadlineFastPath(t *testing.T) {
	s := testServer(t, Options{Workers: 2, CheckpointDir: t.TempDir()})
	start := time.Now()
	rec := post(t, s, "/sweep", SweepRequest{
		Apps: []string{"amazon", "bing"}, Configs: []string{"base", "ESP+NL"},
		SweepID: "expired", Tenant: "late", DeadlineMs: -1, MaxEvents: 8,
	})
	wall := time.Since(start)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired sweep: status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if wall > 50*time.Millisecond {
		t.Errorf("shed fast path took %v, want < 50ms", wall)
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Cells) != 4 {
		t.Fatalf("shed response has %d cells, want the full 4-cell grid", len(resp.Cells))
	}
	for _, cell := range resp.Cells {
		if cell.ErrorKind != "deadline_shed" || cell.Result != nil {
			t.Errorf("cell %s/%s: kind %q result %v, want deadline_shed and no result", cell.App, cell.Config, cell.ErrorKind, cell.Result)
		}
	}
	if cells := s.runner.Perf().Cells; cells != 0 {
		t.Errorf("shed sweep simulated %d cells, want 0", cells)
	}
	if got := s.met.DeadlineShed.Load(); got != 4 {
		t.Errorf("DeadlineShed counter %d, want 4", got)
	}
	rows := snapshotShed(s)
	if rows["late"] != 4 {
		t.Errorf("tenant \"late\" shed accounting %d, want 4", rows["late"])
	}
	// The sweep_id was never claimed: an immediate resubmission with
	// time on the clock runs normally.
	if rec := post(t, s, "/sweep", SweepRequest{
		Apps: []string{"amazon"}, Configs: []string{"base"}, SweepID: "expired", MaxEvents: 8,
	}); rec.Code != http.StatusOK {
		t.Fatalf("resubmission after shed: status %d: %s", rec.Code, rec.Body.String())
	}
	assertDrained(t, s)
}

func snapshotShed(s *Server) map[string]int64 {
	out := map[string]int64{}
	for _, row := range s.tq.Snapshot() {
		out[row.Tenant] = row.ShedDeadline
	}
	return out
}

// TestRunDeadlineShedOnEvidence: once the estimator has seen a cell run
// slow, a /run of the same cell with a deadline shorter than the
// estimate is shed with 504 before burning a worker; a deadline the
// estimate fits is admitted.
func TestRunDeadlineShedOnEvidence(t *testing.T) {
	slow := func(pt sim.FaultPoint) error {
		if pt.Op == "run" {
			time.Sleep(60 * time.Millisecond)
		}
		return nil
	}
	s := testServer(t, Options{Workers: 1, FaultHook: slow})
	// Train: one honest run puts ~60ms of evidence behind amazon/base.
	if rec := post(t, s, "/run", RunRequest{App: "amazon", Config: "base", MaxEvents: 8}); rec.Code != http.StatusOK {
		t.Fatalf("training run: status %d: %s", rec.Code, rec.Body.String())
	}
	before := s.runner.Perf().Cells
	rec := post(t, s, "/run", RunRequest{App: "amazon", Config: "base", MaxEvents: 8, DeadlineMs: 10})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("10ms deadline against ~60ms evidence: status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if got := s.runner.Perf().Cells; got != before {
		t.Errorf("shed run still simulated (%d -> %d cells)", before, got)
	}
	if got := s.met.DeadlineShed.Load(); got != 1 {
		t.Errorf("DeadlineShed counter %d, want 1", got)
	}
	// A generous deadline clears the predicate and runs.
	if rec := post(t, s, "/run", RunRequest{App: "amazon", Config: "base", MaxEvents: 8, DeadlineMs: 5000}); rec.Code != http.StatusOK {
		t.Fatalf("5s deadline: status %d: %s", rec.Code, rec.Body.String())
	}
	assertDrained(t, s)
}

// TestRunDeadlineEvidenceIsPerSize: evidence from a full cell does not
// shed a one-event run of the same app and config. The estimator keys
// cells by their size (max_events, scale), and a size never seen
// estimates zero. The deadline is half the full cell's replay time
// (about 35ms on a typical host), so the race detector's slowdown
// scales it along with the one-event cell.
func TestRunDeadlineEvidenceIsPerSize(t *testing.T) {
	s := testServer(t, Options{Workers: 1})
	if rec := post(t, s, "/run", RunRequest{App: "gmaps", Config: "base"}); rec.Code != http.StatusOK {
		t.Fatalf("full gmaps/base cell: status %d: %s", rec.Code, rec.Body.String())
	}
	half := s.runner.Perf().SimWall / 2
	rec := post(t, s, "/run", RunRequest{App: "gmaps", Config: "base", MaxEvents: 1, DeadlineMs: max(half.Milliseconds(), 1)})
	if rec.Code != http.StatusOK {
		t.Fatalf("one-event gmaps/base with a %v deadline, after a full cell's %v: status %d, want 200: %s",
			half, 2*half, rec.Code, rec.Body.String())
	}
	if got := s.met.DeadlineShed.Load(); got != 0 {
		t.Errorf("DeadlineShed counter %d, want 0", got)
	}
	assertDrained(t, s)
}

// TestTenantQuotaAndHeader: a tenant's cumulative cell budget refuses
// the overflow with 429 (kind quota, counted per tenant and globally),
// the X-ESP-Tenant header is honored, and a header/body disagreement is
// a 400.
func TestTenantQuotaAndHeader(t *testing.T) {
	s := testServer(t, Options{
		Workers: 1,
		Tenants: map[string]tenantq.TenantConfig{"capped": {CellBudget: 2}},
	})
	runReq := RunRequest{App: "amazon", Config: "base", MaxEvents: 8}
	capped := withTenantHeader(s, "capped")
	for i := 0; i < 2; i++ {
		if rec := post(t, capped, "/run", runReq); rec.Code != http.StatusOK {
			t.Fatalf("budgeted run %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	rec := post(t, capped, "/run", runReq)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget run: status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if got := s.met.QuotaRejected.Load(); got != 1 {
		t.Errorf("QuotaRejected counter %d, want 1", got)
	}

	// Other tenants are untouched by the capped tenant's budget.
	if rec := post(t, s, "/run", runReq); rec.Code != http.StatusOK {
		t.Fatalf("default-tenant run: status %d: %s", rec.Code, rec.Body.String())
	}

	// Body and header disagreeing is a contradiction, not a choice.
	req2 := runReq
	req2.Tenant = "somebody"
	data, _ := json.Marshal(req2)
	hreq := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(data))
	hreq.Header.Set(TenantHeader, "else")
	hrec := httptest.NewRecorder()
	s.ServeHTTP(hrec, hreq)
	if hrec.Code != http.StatusBadRequest {
		t.Fatalf("disagreeing tenant field/header: status %d, want 400: %s", hrec.Code, hrec.Body.String())
	}

	// /metrics carries the per-tenant breakdown and overload counters.
	var snap metrics.Snapshot
	if err := json.Unmarshal(get(t, s, "/metrics").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Overload.QuotaRejected != 1 {
		t.Errorf("/metrics overload.quota_rejected = %d, want 1", snap.Overload.QuotaRejected)
	}
	found := false
	for _, row := range snap.Tenants {
		if row.Tenant == "capped" {
			found = true
			if row.AdmittedCells != 2 || row.RejectedQuota != 1 {
				t.Errorf("tenant row %+v, want admitted 2 rejected_quota 1", row)
			}
		}
	}
	if !found {
		t.Error("/metrics has no row for tenant \"capped\"")
	}
	assertDrained(t, s)
}

// TestQuotaRefusalsCountCells: a quota refusal counts the cells it
// turned away, the same on the global counter and the tenant's row —
// here two 2-cell batches against a 1-cell budget.
func TestQuotaRefusalsCountCells(t *testing.T) {
	s := testServer(t, Options{
		Workers: 2,
		Tenants: map[string]tenantq.TenantConfig{"capped": {CellBudget: 1}},
	})
	rec := post(t, s, "/sweep", SweepRequest{
		Apps: []string{"amazon", "bing"}, Configs: []string{"base", "ESP+NL"}, MaxEvents: 8, Tenant: "capped",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("refused sweep: status %d, want 200 with per-cell errors: %s", rec.Code, rec.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for _, cell := range resp.Cells {
		if cell.ErrorKind != "quota" || cell.Result != nil {
			t.Errorf("cell %s/%s: kind %q result %v, want quota and no result", cell.App, cell.Config, cell.ErrorKind, cell.Result)
		}
	}
	if got := s.met.QuotaRejected.Load(); got != 4 {
		t.Errorf("QuotaRejected counter %d, want 4 cells", got)
	}
	for _, row := range s.tq.Snapshot() {
		if row.Tenant == "capped" && row.RejectedQuota != 4 {
			t.Errorf("tenant rejected_quota %d, want 4 cells", row.RejectedQuota)
		}
	}
	assertDrained(t, s)
}

// TestBrownoutDegradationAndRecovery: with a memory budget far below
// one workload, the first cached build drives the controller to its
// deepest level — unbounded requests get 503, small bounded ones still
// run (uncached, counted as bypasses) — and once the trim has the
// footprint back under the exit watermarks, the controller walks back
// to normal on its own.
func TestBrownoutDegradationAndRecovery(t *testing.T) {
	// The budget is exactly one 32-event amazon workload: the runner's
	// own eviction leaves the cache at 100% of budget (past every entry
	// watermark), which is precisely the sustained pressure the
	// controller exists for.
	wl, _, err := resolve(sim.NewRunner(), RunRequest{App: "amazon", Config: "base", MaxEvents: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Recovery steps down one level per four calm 200 ms ticks: the
	// browned-out window is far wider than the assertions inside it,
	// and full recovery takes about 2.4 s.
	s := testServer(t, Options{Workers: 2, MemBudget: wl.Bytes()})
	defer s.Close()

	// First run caches a workload and blows the budget.
	if rec := post(t, s, "/run", RunRequest{App: "amazon", Config: "base", MaxEvents: 32, Tenant: "heavy"}); rec.Code != http.StatusOK {
		t.Fatalf("first run: status %d: %s", rec.Code, rec.Body.String())
	}
	waitFor(t, func() bool { return s.brown.Level() == tenantq.BrownSmallOnly })

	// Unbounded work is refused while browned out...
	rec := post(t, s, "/run", RunRequest{App: "bing", Config: "base", Tenant: "heavy"})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("unbounded run under brownout: status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if got := s.met.BrownoutRejected.Load(); got != 1 {
		t.Errorf("BrownoutRejected counter %d, want 1", got)
	}
	// ...but small bounded grids still serve, bypassing the cache.
	if rec := post(t, s, "/run", RunRequest{App: "bing", Config: "base", MaxEvents: 8, Tenant: "heavy"}); rec.Code != http.StatusOK {
		t.Fatalf("small run under brownout: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := s.runner.Perf().WorkloadBypasses; got == 0 {
		t.Error("brownout run did not bypass the workload cache")
	}

	// The trim emptied the cache, so calm observations walk the
	// controller back down to normal and caching resumes.
	waitFor(t, func() bool { return s.brown.Level() == tenantq.BrownNormal })
	if rec := post(t, s, "/run", RunRequest{App: "bing", Config: "base", Tenant: "heavy"}); rec.Code != http.StatusOK {
		t.Fatalf("unbounded run after recovery: status %d: %s", rec.Code, rec.Body.String())
	}

	var snap metrics.Snapshot
	if err := json.Unmarshal(get(t, s, "/metrics").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Overload.Brownout == nil {
		t.Fatal("/metrics overload.brownout missing with a memory budget set")
	}
	if snap.Overload.Brownout.Escalations == 0 || snap.Overload.Brownout.Recoveries == 0 {
		t.Errorf("brownout snapshot %+v, want escalations and recoveries counted", *snap.Overload.Brownout)
	}
	assertDrained(t, s)
}

// withTenantHeader wraps h so every request names tenant in the
// X-ESP-Tenant header only, never in the body.
func withTenantHeader(h http.Handler, tenant string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Set(TenantHeader, tenant)
		h.ServeHTTP(w, r)
	})
}
