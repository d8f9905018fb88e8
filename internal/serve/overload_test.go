package serve

// Overload-robustness tests: tenant fair queueing under saturation,
// deadline-aware shedding (including the zero-simulation sweep fast
// path), per-tenant quotas, and the memory budget's refusals.
// Every test ends with assertDrained, so the new admission paths join
// the leak contract the rest of the suite enforces.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"espsim/internal/serve/metrics"
	"espsim/internal/sim"
	"espsim/internal/tenantq"
	"espsim/internal/workload"
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

// TestEstimatorBounded: however many distinct cell sizes clients send,
// the estimator remembers at most estimatorKeys of them, and the newest
// evidence is among those it keeps.
func TestEstimatorBounded(t *testing.T) {
	e := newEstimator()
	for i := 0; i < 10000; i++ {
		e.observe(cellKey("amazon", "base", i, 1+float64(i%7)/8), time.Second)
	}
	if n := len(e.perKey); n > estimatorKeys {
		t.Fatalf("10000 distinct cells left %d estimator entries, want at most %d", n, estimatorKeys)
	}
	last := cellKey("amazon", "base", 9999, 1+float64(9999%7)/8)
	if !e.cannotFinish(last, time.Now().Add(time.Millisecond), time.Now()) {
		t.Fatal("the newest cell's evidence was dropped")
	}
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

// arenaBytes is the accounted size of the workload a cell of app at
// maxEvents replays, as the server's runner builds it: what a fresh
// runner holds live after one such cell.
func arenaBytes(t *testing.T, app string, maxEvents int) int64 {
	t.Helper()
	prof, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.NewRunner()
	if _, err := r.RunCell(context.Background(), app, prof, sim.Config{Name: "base", MaxEvents: maxEvents}); err != nil {
		t.Fatal(err)
	}
	live, _ := r.LiveBytes()
	return live
}

// TestMemoryBudgetSweeps: one worker serves 16 sequential base+NL
// sweeps under a memory budget. A working set that fits the budget is
// built once per app and served from the cache from then on; one that
// does not fit thrashes the cache, but every cell still runs, because
// one worker holds one workload at a time and an idle one always
// makes room.
func TestMemoryBudgetSweeps(t *testing.T) {
	const maxEvents = 32
	sizes := map[string]int64{}
	for _, app := range []string{"amazon", "bing", "pixlr"} {
		sizes[app] = arenaBytes(t, app, maxEvents)
	}
	budget := (sizes["amazon"] + sizes["bing"]) * 100 / 96
	if sizes["amazon"]+sizes["bing"]+sizes["pixlr"] <= budget {
		t.Fatalf("three arenas of %v fit the %d-byte budget", sizes, budget)
	}
	for _, tc := range []struct {
		apps   []string
		builds int64 // 0: any
	}{
		{[]string{"amazon", "bing"}, 2},
		{[]string{"amazon", "bing", "pixlr"}, 0},
	} {
		s := testServer(t, Options{Workers: 1, MemBudget: budget})
		for i := 0; i < 16; i++ {
			rec := post(t, s, "/sweep", SweepRequest{Apps: tc.apps, Configs: []string{"base", "NL"}, MaxEvents: maxEvents})
			if rec.Code != http.StatusOK {
				t.Fatalf("%v sweep %d: status %d: %s", tc.apps, i, rec.Code, rec.Body.String())
			}
			var resp SweepResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			for _, cell := range resp.Cells {
				if cell.Result == nil {
					t.Fatalf("%v sweep %d: cell %s/%s failed: %s (%s)", tc.apps, i, cell.App, cell.Config, cell.Error, cell.ErrorKind)
				}
			}
		}
		if got := s.runner.Perf().WorkloadBuilds; tc.builds > 0 && got != tc.builds {
			t.Errorf("%v under a budget they fit: %d builds, want %d", tc.apps, got, tc.builds)
		}
		if got := s.met.BrownoutRejected.Load(); got != 0 {
			t.Errorf("%v: %d cells refused for memory, want 0", tc.apps, got)
		}
		assertDrained(t, s)
	}
}

// TestMemoryBudgetConcurrentRuns: more clients than workers run cells
// of distinct apps at once under a budget of about two arenas, each
// replay stalled so that three cells run together. A cell
// whose workload does not fit beside the ones running is refused with
// 503, counted in brownout_rejected and its tenant's rejected_brownout,
// and live bytes never pass the budget.
func TestMemoryBudgetConcurrentRuns(t *testing.T) {
	const maxEvents = 16
	apps := []string{"amazon", "bing", "cnn", "pixlr"}
	sizes := make([]int64, len(apps))
	for i, app := range apps {
		sizes[i] = arenaBytes(t, app, maxEvents)
	}
	slices.Sort(sizes)
	// Any two arenas fit, and no three do.
	budget := sizes[len(sizes)-1] + sizes[len(sizes)-2]
	if three := sizes[0] + sizes[1] + sizes[2]; three <= budget {
		t.Fatalf("three arenas (%d bytes) fit the %d-byte budget", three, budget)
	}
	stall := func(pt sim.FaultPoint) error {
		if pt.Op == "run" {
			time.Sleep(200 * time.Millisecond)
		}
		return nil
	}
	s := testServer(t, Options{Workers: len(apps) - 1, MemBudget: budget, FaultHook: stall})
	codes := make(chan int, len(apps))
	var wg sync.WaitGroup
	for _, app := range apps {
		wg.Add(1)
		go func(app string) {
			defer wg.Done()
			codes <- post(t, s, "/run", RunRequest{App: app, Config: "base", MaxEvents: maxEvents}).Code
		}(app)
	}
	wg.Wait()
	close(codes)
	ok, refused := 0, 0
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			refused++
		default:
			t.Errorf("status %d, want 200 or 503", code)
		}
	}
	if ok == 0 || refused == 0 {
		t.Errorf("%d runs answered 200 and %d 503, want some of each", ok, refused)
	}
	snap := metricsSnapshot(t, s)
	if snap.Overload.BrownoutRejected != int64(refused) {
		t.Errorf("brownout_rejected %d, want the %d refused runs", snap.Overload.BrownoutRejected, refused)
	}
	for _, row := range snap.Tenants {
		if row.RejectedBrownout != int64(refused) {
			t.Errorf("tenant %s rejected_brownout %d, want %d", row.Tenant, row.RejectedBrownout, refused)
		}
	}
	if snap.Engine.LivePeakBytes > budget || snap.Engine.LiveBytes > budget {
		t.Errorf("live workloads peaked at %d bytes (now %d), past the %d-byte budget",
			snap.Engine.LivePeakBytes, snap.Engine.LiveBytes, budget)
	}
	assertDrained(t, s)
}

// TestMemoryBudgetBelowOneArena: with a budget smaller than any arena,
// every cell is refused and none is attempted. /run answers 503; each
// sweep builds its batch's workload once and answers every cell with
// kind brownout and no attempt, so however many sweeps it refuses, the
// cell breakers never trip.
func TestMemoryBudgetBelowOneArena(t *testing.T) {
	const maxEvents = 16
	s := testServer(t, Options{Workers: 1, MemBudget: arenaBytes(t, "amazon", maxEvents) / 2})
	rec := post(t, s, "/run", RunRequest{App: "amazon", Config: "base", MaxEvents: maxEvents})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("run past the budget: status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	const sweeps = breakerThreshold + 1
	configs := []string{"base", "NL", "ESP+NL"}
	for i := 0; i < sweeps; i++ {
		rec := post(t, s, "/sweep", SweepRequest{Apps: []string{"amazon"}, Configs: configs, MaxEvents: maxEvents})
		if rec.Code != http.StatusOK {
			t.Fatalf("sweep %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		var resp SweepResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		for _, cell := range resp.Cells {
			if cell.ErrorKind != "brownout" || cell.Attempts != 0 || cell.Result != nil {
				t.Fatalf("sweep %d: cell %s/%s: kind %q attempts %d, want brownout and 0", i, cell.App, cell.Config, cell.ErrorKind, cell.Attempts)
			}
		}
	}
	snap := metricsSnapshot(t, s)
	if snap.Resilience.BreakerTrips != 0 {
		t.Errorf("%d breaker trips from refused cells, want 0", snap.Resilience.BreakerTrips)
	}
	if want := int64(1 + sweeps); snap.Engine.WorkloadBuilds != want {
		t.Errorf("%d workload builds, want %d: one per refused run or batch", snap.Engine.WorkloadBuilds, want)
	}
	if want := int64(1 + sweeps*len(configs)); snap.Overload.BrownoutRejected != want {
		t.Errorf("brownout_rejected %d, want %d refused cells", snap.Overload.BrownoutRejected, want)
	}
	if snap.Engine.LiveBytes != 0 || snap.Engine.LivePeakBytes != 0 {
		t.Errorf("refused workloads left %d live bytes (peak %d), want 0", snap.Engine.LiveBytes, snap.Engine.LivePeakBytes)
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
