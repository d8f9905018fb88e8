package serve

// Chaos soak: the acceptance gate for the resilience layer. A seeded
// fault plan makes a 4-application × 4-configuration sweep panic, stall
// past its deadline, and fail workload builds; the sweep must still
// return every cell, the recovered cells must be bit-identical to the
// golden corpus, a persistently failing cell must trip its breaker, and
// a sweep killed mid-flight must resume from its journal — including
// after a torn tail write — on a fresh server.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"espsim/internal/fault"
	"espsim/internal/serve/metrics"
	"espsim/internal/sim"
)

// The chaos grid: a 4×4 subset of the golden corpus, so every
// successful cell has a known-bit-exact expected result.
var (
	chaosApps    = []string{"amazon", "bing", "cnn", "facebook"}
	chaosConfigs = []string{"base", "NaiveESP+NL", "Runahead+NL", "ESP+NL"}
)

// chaosSweepReq is the one sweep body both the faulted run and the
// resume run submit; the journal digest requires them identical.
func chaosSweepReq(sweepID string, timeoutMs int) SweepRequest {
	return SweepRequest{
		Apps:      chaosApps,
		Configs:   chaosConfigs,
		SweepID:   sweepID,
		MaxEvents: goldenMaxEvents,
		TimeoutMs: timeoutMs,
	}
}

// postSweep submits req and decodes the (expected-200) response.
func postSweep(t *testing.T, s *Server, req SweepRequest) SweepResponse {
	t.Helper()
	rec := post(t, s, "/sweep", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep status %d: %s", rec.Code, rec.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding sweep response: %v", err)
	}
	if want := len(chaosApps) * len(chaosConfigs); len(resp.Cells) != want {
		t.Fatalf("sweep returned %d cells, want %d", len(resp.Cells), want)
	}
	return resp
}

func metricsSnapshot(t *testing.T, s *Server) metrics.Snapshot {
	t.Helper()
	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decoding metrics: %v", err)
	}
	return snap
}

// TestChaosSoak runs the grid under a seeded fault plan (injected
// errors, panics, deadline-blowing stalls, and build failures on over a
// quarter of the cells) plus one cell that never recovers. Every cell
// must come back; recovered cells must match the golden corpus exactly
// with the exact retry count the plan predicts; the unrecoverable cell
// must trip its breaker on its breakerThreshold-th failure, during the
// first resubmission, and be quarantined — not attempted — on the
// second; both replay everything else from the journal.
func TestChaosSoak(t *testing.T) {
	// The deadline must clear an organic cell comfortably (the largest
	// golden cell costs well under a second even with the race detector
	// on) while the injected stall overshoots it decisively.
	const (
		timeoutMs = 3000
		sleepFor  = 8 * time.Second
	)
	plan := &fault.Plan{Seed: 1, RunRate: 0.35, BuildRate: 0.3, FailFirst: 1, SleepFor: sleepFor}
	plan.Always("cnn", "ESP+NL", fault.Error) // the breaker-quarantine cell

	// The plan is introspectable: assert the seed actually faults at
	// least a quarter of the grid before trusting the soak means much.
	faulted, kinds := 0, map[fault.Kind]int{}
	for _, app := range chaosApps {
		for ci, cfg := range chaosConfigs {
			k := plan.RunFault(app, cfg)
			kinds[k]++
			if k != fault.None || (ci == 0 && plan.BuildFault(app)) {
				faulted++
			}
		}
	}
	total := len(chaosApps) * len(chaosConfigs)
	if faulted*4 < total {
		t.Fatalf("seed faults %d/%d cells, want >= 25%%", faulted, total)
	}
	for _, k := range []fault.Kind{fault.Error, fault.Panic, fault.Slow} {
		if kinds[k] == 0 {
			t.Fatalf("seed injects no %v faults; kinds: %v", k, kinds)
		}
	}

	dir := t.TempDir()
	s := testServer(t, Options{Workers: 4, CheckpointDir: dir, FaultHook: plan.Hook()})
	golden := readGoldenCorpus(t)
	// The unrecoverable cell's failures: all its attempts on the first
	// submission, the rest of the threshold on the second.
	attempts := fault.RetryPolicy{}.WithDefaults().MaxAttempts
	if attempts >= breakerThreshold || 2*attempts < breakerThreshold {
		t.Fatalf("%d attempts per submission do not trip a %d-failure breaker on the second", attempts, breakerThreshold)
	}

	resp := postSweep(t, s, chaosSweepReq("chaos-soak", timeoutMs))
	for i, cell := range resp.Cells {
		key := cell.App + "/" + cell.Config
		states := 0
		for _, on := range []bool{cell.Result != nil, cell.Error != "", cell.Skipped != ""} {
			if on {
				states++
			}
		}
		if states != 1 {
			t.Fatalf("cell %s: want exactly one of result/error/skipped, got %+v", key, cell)
		}
		if cell.App == "cnn" && cell.Config == "ESP+NL" {
			if cell.ErrorKind != "injected" || cell.Attempts != attempts {
				t.Errorf("unrecoverable cell %s: kind %q attempts %d, want injected/%d: %+v", key, cell.ErrorKind, cell.Attempts, attempts, cell)
			}
			continue
		}
		if cell.Result == nil {
			t.Errorf("cell %s: no result: %+v", key, cell)
			continue
		}
		if !reflect.DeepEqual(*cell.Result, golden[key]) {
			t.Errorf("cell %s: recovered result deviates from golden corpus", key)
		}
		// The plan makes retry counts exactly predictable: one extra
		// attempt per injected run fault, and one on the batch's first
		// cell when the app's workload build faults.
		want := 1
		if plan.RunFault(cell.App, cell.Config) != fault.None {
			want++
		}
		if i%len(chaosConfigs) == 0 && plan.BuildFault(cell.App) {
			want++
		}
		if cell.Attempts != want {
			t.Errorf("cell %s: %d attempts, want %d", key, cell.Attempts, want)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	snap := metricsSnapshot(t, s)
	if snap.Resilience.Retries < 6 {
		t.Errorf("retries %d, want >= 6 (one per recoverable fault, two for the breaker cell)", snap.Resilience.Retries)
	}
	if snap.Resilience.BreakerTrips != 0 || snap.Resilience.BreakerOpen != 0 {
		t.Errorf("breaker trips %d open %d after %d failures, want 0/0", snap.Resilience.BreakerTrips, snap.Resilience.BreakerOpen, attempts)
	}
	if snap.Cells.Timeouts < 1 {
		t.Errorf("timeouts %d, want >= 1 (the slow cell must blow its deadline)", snap.Cells.Timeouts)
	}

	// Resubmissions: the 15 completed cells replay from the journal each
	// time. The unrecoverable cell trips its breaker on its
	// breakerThreshold-th failure, in the first, and is skipped without
	// an attempt in the second.
	for sub, want := range []SweepCell{
		{ErrorKind: "injected", Attempts: breakerThreshold - attempts},
		{Skipped: "breaker_open"},
	} {
		resp := postSweep(t, s, chaosSweepReq("chaos-soak", timeoutMs))
		resumed := 0
		for _, cell := range resp.Cells {
			key := cell.App + "/" + cell.Config
			if cell.App == "cnn" && cell.Config == "ESP+NL" {
				if cell.ErrorKind != want.ErrorKind || cell.Attempts != want.Attempts || cell.Skipped != want.Skipped {
					t.Errorf("resubmission %d: unrecoverable cell %s: %+v, want kind %q attempts %d skipped %q",
						sub+1, key, cell, want.ErrorKind, want.Attempts, want.Skipped)
				}
				continue
			}
			if !cell.Resumed || cell.Result == nil {
				t.Errorf("resubmission %d: cell %s: not resumed from journal: %+v", sub+1, key, cell)
				continue
			}
			resumed++
			if !reflect.DeepEqual(*cell.Result, golden[key]) {
				t.Errorf("resubmission %d: cell %s: resumed result deviates from golden corpus", sub+1, key)
			}
		}
		if resumed != total-1 {
			t.Errorf("resubmission %d: resumed %d cells, want %d", sub+1, resumed, total-1)
		}
		snap = metricsSnapshot(t, s)
		if snap.Resilience.ResumedCells != int64((sub+1)*(total-1)) {
			t.Errorf("resubmission %d: resumed_cells metric %d, want %d", sub+1, snap.Resilience.ResumedCells, (sub+1)*(total-1))
		}
		if snap.Resilience.BreakerTrips != 1 || snap.Resilience.BreakerOpen != 1 || snap.Resilience.BreakerSkips != int64(sub+1) {
			t.Errorf("resubmission %d: breaker trips %d open %d skips %d, want 1/1/%d", sub+1,
				snap.Resilience.BreakerTrips, snap.Resilience.BreakerOpen, snap.Resilience.BreakerSkips, sub+1)
		}
	}
	// One quarantined cell out of the whole preset grid is not enough to
	// fail readiness.
	if rec := get(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Errorf("readyz with one open breaker: status %d, want 200", rec.Code)
	}
	assertDrained(t, s)
}

// TestChaosCrashResume kills a sweep mid-flight — the fault hook cancels
// the client and flips the server draining after the sixth cell starts —
// then tears the journal's tail and resumes the sweep on a brand-new
// server. The journaled cells must replay bit-identically; the rest must
// simulate fresh; every cell must end green.
func TestChaosCrashResume(t *testing.T) {
	dir := t.TempDir()
	golden := readGoldenCorpus(t)
	req := chaosSweepReq("chaos-crash", 0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var srv *Server
	var ops atomic.Int32
	hook := func(pt sim.FaultPoint) error {
		// The "crash": after six cells have started, the client vanishes
		// and the daemon begins draining, exactly as a SIGTERM mid-sweep
		// would unfold. Cells finished before it journal; the cells in
		// flight stop at their next event and the rest never start, all
		// reported canceled.
		if pt.Op == "run" && ops.Add(1) == 6 {
			srv.BeginDrain()
			cancel()
		}
		return nil
	}
	srv = testServer(t, Options{Workers: 2, CheckpointDir: dir, FaultHook: hook})

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpReq := httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httpReq)
	if rec.Code != http.StatusOK {
		t.Fatalf("interrupted sweep status %d: %s", rec.Code, rec.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	completed, canceled := 0, 0
	for _, cell := range resp.Cells {
		switch {
		case cell.Result != nil:
			completed++
		case cell.ErrorKind == "canceled":
			canceled++
		default:
			t.Errorf("interrupted cell %s/%s: %+v, want result or canceled", cell.App, cell.Config, cell)
		}
	}
	if completed < 1 || canceled < 1 {
		t.Fatalf("interrupted sweep: %d completed, %d canceled — the kill must land mid-sweep", completed, canceled)
	}
	assertDrained(t, srv)
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain after interrupted sweep: %v", err)
	}

	// Simulate the torn write a real crash can leave: a frame header
	// promising more bytes than exist. Replay must truncate it, not
	// refuse the journal.
	path := filepath.Join(dir, "chaos-crash.espj")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xEE, 0x03, 0x00, 0x00, 0xDE, 0xAD, 0xBE, 0xEF, 0x01}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The replacement daemon: same checkpoint directory, no faults.
	s2 := testServer(t, Options{Workers: 2, CheckpointDir: dir})
	resp2 := postSweep(t, s2, req)
	resumed := 0
	for _, cell := range resp2.Cells {
		key := cell.App + "/" + cell.Config
		if cell.Result == nil {
			t.Errorf("cell %s after resume: %+v, want result", key, cell)
			continue
		}
		if !reflect.DeepEqual(*cell.Result, golden[key]) {
			t.Errorf("cell %s after resume: result deviates from golden corpus (resumed=%v)", key, cell.Resumed)
		}
		if cell.Resumed {
			resumed++
		}
	}
	if resumed != completed {
		t.Errorf("resumed %d cells, want the %d the crashed run journaled", resumed, completed)
	}
	if snap := metricsSnapshot(t, s2); snap.Resilience.ResumedCells != int64(completed) {
		t.Errorf("resumed_cells metric %d, want %d", snap.Resilience.ResumedCells, completed)
	}
	assertDrained(t, s2)
}
