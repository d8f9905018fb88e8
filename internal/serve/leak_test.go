package serve

// Leak detection for the admission machinery: every request path —
// success, rejection, cancellation, timeout, conflict, drain — must
// return its queue ticket and worker slot, and no replay may outlive
// its response. The gauges these tests pin to zero are the ticket
// channel admit fills and the fair queue that grants worker slots, so
// a missing release on any error path shows up as a stuck count, not a
// slow leak in production.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"espsim/internal/fault"
	"espsim/internal/sim"
)

// assertDrained asserts the admission machinery is fully released: the
// ticket channel (the queue-depth gauge /metrics reports) and the
// tenant fair queue's gauges (queued acquisitions, in-flight cells) are
// all empty. Handlers release in defers that complete before
// ServeHTTP returns, so no polling is needed after a response is
// observed.
func assertDrained(t *testing.T, s *Server) {
	t.Helper()
	if n := len(s.tickets); n != 0 {
		t.Errorf("%d admission tickets still held, want 0", n)
	}
	if n := s.tq.QueuedAcquisitions(); n != 0 {
		t.Errorf("%d fair-queue waiters still queued, want 0", n)
	}
	if n := s.tq.InFlightCells(); n != 0 {
		t.Errorf("%d tenant cells still in flight, want 0", n)
	}
}

// assertGoroutinesBack asserts that no goroutine a request started
// outlives its response by more than 100 ms: a stopped cell's replay,
// and any stall injected into it, ends with the cell.
func assertGoroutinesBack(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(100 * time.Millisecond)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines outlive the response, want 0", runtime.NumGoroutine()-before)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

// doRun posts a /run request under ctx (so tests can model a client
// hanging up while queued).
func doRun(s *Server, ctx context.Context, body RunRequest) *httptest.ResponseRecorder {
	data, _ := json.Marshal(body)
	req := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(data)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestAdmissionNoLeakUnderContention drives the contended paths — 429
// queue-full rejection and 499 client-gone-while-queued — against a
// single-worker server whose one worker is wedged on a gate, then
// asserts every ticket and slot came back.
func TestAdmissionNoLeakUnderContention(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 32)
	hook := func(pt sim.FaultPoint) error {
		if pt.Op == "run" {
			started <- struct{}{}
			<-gate
		}
		return nil
	}
	s := testServer(t, Options{Workers: 1, FaultHook: hook})

	// r1 wedges the only worker inside the engine.
	r1 := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		r1 <- doRun(s, context.Background(), RunRequest{App: "amazon", Config: "base", MaxEvents: 8})
	}()
	<-started

	// r2 takes a ticket and queues for the worker.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	r2 := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		r2 <- doRun(s, ctx2, RunRequest{App: "amazon", Config: "base", MaxEvents: 8})
	}()
	waitFor(t, func() bool { return len(s.tickets) == 2 })

	// The test holds every other ticket. Queue full: a third request is
	// rejected immediately.
	for len(s.tickets) < cap(s.tickets) {
		s.tickets <- struct{}{}
	}
	if rec := post(t, s, "/run", RunRequest{App: "amazon", Config: "base", MaxEvents: 8}); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("queue-full /run: status %d, want 429", rec.Code)
	}
	if rec := post(t, s, "/sweep", SweepRequest{Configs: []string{"base"}, MaxEvents: 8}); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("queue-full /sweep: status %d, want 429", rec.Code)
	}
	if d := len(s.tickets); d != cap(s.tickets) {
		t.Fatalf("rejected requests moved the gauge: %d, want %d", d, cap(s.tickets))
	}
	for len(s.tickets) > 2 {
		<-s.tickets
	}

	// r2's client hangs up while queued: 499, ticket released.
	cancel2()
	if rec := <-r2; rec.Code != statusClientGone {
		t.Fatalf("canceled queued /run: status %d, want %d", rec.Code, statusClientGone)
	}
	waitFor(t, func() bool { return len(s.tickets) == 1 })

	// Un-wedge the worker; r1 completes normally.
	close(gate)
	if rec := <-r1; rec.Code != http.StatusOK {
		t.Fatalf("gated /run: status %d, want 200: %s", rec.Code, rec.Body.String())
	}
	assertDrained(t, s)
}

// TestErrorPathsNoLeak sweeps the cheap failure paths — malformed
// bodies, wrong methods, cell timeouts, partially failing sweeps, sweep
// conflicts, unusable checkpoint directories, and draining — asserting
// the admission gauges return to zero after each.
func TestErrorPathsNoLeak(t *testing.T) {
	slow := &fault.Plan{Seed: 7, SleepFor: 500 * time.Millisecond}
	slow.Always("bing", "base", fault.Slow)
	wreck := &fault.Plan{Seed: 9}
	wreck.Always("amazon", "base", fault.Error)
	wreck.Always("bing", "base", fault.Panic)

	dir := t.TempDir()
	notADir := filepath.Join(dir, "notadir")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		opt  Options
		want int
		req  func(t *testing.T, s *Server) *httptest.ResponseRecorder
	}{
		{"bad run body", Options{}, http.StatusBadRequest, func(t *testing.T, s *Server) *httptest.ResponseRecorder {
			return postRaw(t, s, "/run", []byte("{nope"))
		}},
		{"bad sweep body", Options{}, http.StatusBadRequest, func(t *testing.T, s *Server) *httptest.ResponseRecorder {
			return postRaw(t, s, "/sweep", []byte(`{"configs":[]}`))
		}},
		{"wrong method", Options{}, http.StatusMethodNotAllowed, func(t *testing.T, s *Server) *httptest.ResponseRecorder {
			return get(t, s, "/run")
		}},
		{"unknown app", Options{}, http.StatusBadRequest, func(t *testing.T, s *Server) *httptest.ResponseRecorder {
			return post(t, s, "/run", RunRequest{App: "nope", Config: "base"})
		}},
		{"cell timeout", Options{Workers: 1, FaultHook: slow.Hook()}, http.StatusGatewayTimeout, func(t *testing.T, s *Server) *httptest.ResponseRecorder {
			return post(t, s, "/run", RunRequest{App: "bing", Config: "base", MaxEvents: 8, TimeoutMs: 40})
		}},
		{"journal dir unusable", Options{CheckpointDir: filepath.Join(notADir, "sub")}, http.StatusInternalServerError, func(t *testing.T, s *Server) *httptest.ResponseRecorder {
			return post(t, s, "/sweep", SweepRequest{Apps: []string{"amazon"}, Configs: []string{"base"}, SweepID: "j", MaxEvents: 8})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testServer(t, tc.opt)
			goroutines := runtime.NumGoroutine()
			if rec := tc.req(t, s); rec.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.want, rec.Body.String())
			}
			assertDrained(t, s)
			assertGoroutinesBack(t, goroutines)
		})
	}

	t.Run("sweep with failing cells", func(t *testing.T) {
		// Each failing cell's attempts stay under its breaker's
		// threshold: the sweep returns 200 with structured per-cell
		// errors and releases everything.
		s := testServer(t, Options{Workers: 2, FaultHook: wreck.Hook()})
		rec := post(t, s, "/sweep", SweepRequest{Apps: []string{"amazon", "bing"}, Configs: []string{"base", "ESP+NL"}, MaxEvents: 8})
		if rec.Code != http.StatusOK {
			t.Fatalf("sweep status %d: %s", rec.Code, rec.Body.String())
		}
		var resp SweepResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		kinds := map[string]string{}
		for _, cell := range resp.Cells {
			kinds[cell.App+"/"+cell.Config] = cell.ErrorKind
			if cell.Error == "" && cell.Result == nil {
				t.Errorf("cell %s/%s came back empty: %+v", cell.App, cell.Config, cell)
			}
		}
		if kinds["amazon/base"] != "injected" || kinds["bing/base"] != "panic" {
			t.Errorf("error kinds %v, want amazon/base=injected bing/base=panic", kinds)
		}
		assertDrained(t, s)
	})

	t.Run("sweep conflicts", func(t *testing.T) {
		s := testServer(t, Options{Workers: 1, CheckpointDir: t.TempDir()})
		// A sweep_id still in flight is refused outright.
		if !s.claimSweep("dup") {
			t.Fatal("claimSweep")
		}
		if rec := post(t, s, "/sweep", SweepRequest{Apps: []string{"amazon"}, Configs: []string{"base"}, SweepID: "dup", MaxEvents: 8}); rec.Code != http.StatusConflict {
			t.Fatalf("in-flight sweep_id: status %d, want 409", rec.Code)
		}
		s.releaseSweep("dup")
		assertDrained(t, s)

		// A sweep_id journaled for a different grid is refused too.
		if rec := post(t, s, "/sweep", SweepRequest{Apps: []string{"amazon"}, Configs: []string{"base"}, SweepID: "grid", MaxEvents: 8}); rec.Code != http.StatusOK {
			t.Fatalf("first grid: status %d", rec.Code)
		}
		if rec := post(t, s, "/sweep", SweepRequest{Apps: []string{"bing"}, Configs: []string{"base"}, SweepID: "grid", MaxEvents: 8}); rec.Code != http.StatusConflict {
			t.Fatalf("reused sweep_id on a different grid: status %d, want 409", rec.Code)
		}
		assertDrained(t, s)
	})

	t.Run("draining", func(t *testing.T) {
		s := testServer(t, Options{Workers: 1})
		s.BeginDrain()
		if rec := post(t, s, "/run", RunRequest{App: "amazon", Config: "base", MaxEvents: 8}); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("draining /run: status %d, want 503", rec.Code)
		}
		if rec := post(t, s, "/sweep", SweepRequest{Configs: []string{"base"}, MaxEvents: 8}); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("draining /sweep: status %d, want 503", rec.Code)
		}
		assertDrained(t, s)
	})
}
