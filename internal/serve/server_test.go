package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	esp "espsim"
	"espsim/internal/eventq"
	"espsim/internal/fault"
	"espsim/internal/serve/metrics"
	"espsim/internal/sim"
	"espsim/internal/tenantq"
	"espsim/internal/trace"
	"espsim/internal/workload"
)

// quietLogger keeps request logs out of test output.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func testServer(t *testing.T, opt Options) *Server {
	t.Helper()
	if opt.Logger == nil {
		opt.Logger = quietLogger()
	}
	return New(opt)
}

// post sends a JSON body and returns the recorded response.
func post(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, h, path, data)
}

func postRaw(t *testing.T, h http.Handler, path string, data []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// decodeResult unpacks a RunResponse body.
func decodeResult(t *testing.T, rec *httptest.ResponseRecorder) esp.Result {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body.String())
	}
	var resp RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding run response: %v", err)
	}
	return resp.Result
}

// jsonRoundTrip normalizes an in-memory Result through JSON so it is
// comparable with one decoded off the wire (both sides shortest-form
// float encoding; exact for float64).
func jsonRoundTrip(t *testing.T, res esp.Result) esp.Result {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var out esp.Result
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunMatchesDirect: the service path must be bit-identical to a
// direct esp.Run of the same cell.
func TestRunMatchesDirect(t *testing.T) {
	s := testServer(t, Options{Workers: 2})
	got := decodeResult(t, post(t, s, "/run", RunRequest{App: "amazon", Config: "base", MaxEvents: 32}))

	cfg := esp.BaselineConfig()
	cfg.MaxEvents = 32
	want, err := esp.Run(workload.Amazon(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want = jsonRoundTrip(t, want); !reflect.DeepEqual(got, want) {
		t.Fatalf("service result deviates from esp.Run:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunScheduled: the "sched" field selects a dispatch policy and
// the response matches a direct esp.Run of the @policy config,
// responsiveness stats included. The explicit field and an @policy
// name suffix must be interchangeable.
func TestRunScheduled(t *testing.T) {
	s := testServer(t, Options{Workers: 2})
	got := decodeResult(t, post(t, s, "/run", RunRequest{App: "mobileweb", Config: "base", Sched: "edf", MaxEvents: 32}))

	cfg := esp.SchedConfig(esp.BaselineConfig(), esp.SchedEDF)
	cfg.MaxEvents = 32
	want, err := esp.Run(workload.MobileWeb(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Sched == nil || want.Sched.Policy != "edf" {
		t.Fatalf("direct run carries no EDF stats: %+v", want.Sched)
	}
	if want = jsonRoundTrip(t, want); !reflect.DeepEqual(got, want) {
		t.Fatalf("scheduled service result deviates from esp.Run:\n got %+v\nwant %+v", got, want)
	}
	suffixed := decodeResult(t, post(t, s, "/run", RunRequest{App: "mobileweb", Config: "base@edf", MaxEvents: 32}))
	if !reflect.DeepEqual(suffixed, want) {
		t.Fatalf("@edf suffix deviates from the sched field")
	}
}

// TestRunScaledWorkload: scale shrinks the session the same way
// Profile.Scale does.
func TestRunScaledWorkload(t *testing.T) {
	s := testServer(t, Options{Workers: 1})
	got := decodeResult(t, post(t, s, "/run", RunRequest{App: "pixlr", Config: "NL", Scale: 0.25}))

	prof := workload.Pixlr().Scale(0.25)
	want, err := esp.Run(prof, esp.NLConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want = jsonRoundTrip(t, want); !reflect.DeepEqual(got, want) {
		t.Fatalf("scaled service result deviates from esp.Run")
	}
}

// TestRunInlineTrace: a base64 ESPT trace replays identically to
// esp.RunSource over the same events.
func TestRunInlineTrace(t *testing.T) {
	prof := workload.Bing()
	prof.Events = 16
	sess, err := workload.NewSession(prof)
	if err != nil {
		t.Fatal(err)
	}
	events := make([]trace.EventTrace, len(sess.Events))
	for i, ev := range sess.Events {
		events[i] = trace.EventTrace{Event: ev, Insts: trace.Record(sess.Gen.Stream(ev, false), ev.Len)}
	}
	var buf bytes.Buffer
	if err := trace.WriteFile(&buf, events); err != nil {
		t.Fatal(err)
	}

	s := testServer(t, Options{Workers: 1})
	got := decodeResult(t, post(t, s, "/run", RunRequest{
		TraceB64: base64.StdEncoding.EncodeToString(buf.Bytes()),
		Config:   "NL+S",
	}))

	want, err := esp.RunSource("trace", &eventq.TraceSource{Events: events}, esp.NLSConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want = jsonRoundTrip(t, want); !reflect.DeepEqual(got, want) {
		t.Fatalf("inline-trace service result deviates from esp.RunSource")
	}
}

// TestRunTimedTrace: a version 2 trace of a timed session replays under
// a dispatch policy identically through esp.RunSource and /run, and its
// schedule is the recorded session's own. Cycles match the session's
// only under fifo: the session path numbers events by slot position, so
// they differ once a policy reorders events.
func TestRunTimedTrace(t *testing.T) {
	prof := workload.MobileHeavy()
	prof.Events = 96 // fifo misses 8 of these deadlines, edf 2
	sess, err := workload.NewSession(prof)
	if err != nil {
		t.Fatal(err)
	}
	events := make([]trace.EventTrace, len(sess.Events))
	for i, ev := range sess.Events {
		events[i] = trace.EventTrace{Event: ev, Insts: trace.Record(sess.Gen.Stream(ev, false), ev.Len)}
	}
	var buf bytes.Buffer
	if err := trace.WriteFile(&buf, events); err != nil {
		t.Fatal(err)
	}
	b64 := base64.StdEncoding.EncodeToString(buf.Bytes())

	s := testServer(t, Options{Workers: 1})
	misses := map[string]int{}
	for _, policy := range []string{"fifo", "edf"} {
		for _, name := range []string{"base", "ESP+NL"} {
			cfg, err := esp.ConfigByName(name + "@" + policy)
			if err != nil {
				t.Fatal(err)
			}
			got := decodeResult(t, post(t, s, "/run", RunRequest{TraceB64: b64, Config: name, Sched: policy}))
			want, err := esp.RunSource("trace", &eventq.TraceSource{Events: events}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want = jsonRoundTrip(t, want); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: timed-trace service result deviates from esp.RunSource", cfg.Name)
			}
			session, err := esp.Run(prof, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Sched == nil || !reflect.DeepEqual(got.Sched, jsonRoundTrip(t, session).Sched) {
				t.Fatalf("%s: trace schedule %+v, want the recorded session's %+v", cfg.Name, got.Sched, session.Sched)
			}
			if policy == "fifo" && got.Cycles != session.Cycles {
				t.Fatalf("%s: trace replays to %d cycles, the recorded session to %d", cfg.Name, got.Cycles, session.Cycles)
			}
			misses[policy] = got.Sched.DeadlineMisses
		}
	}
	if misses["edf"] >= misses["fifo"] {
		t.Fatalf("edf missed %d deadlines, fifo %d: edf should miss fewer", misses["edf"], misses["fifo"])
	}
}

// TestRunRejectsTraceViewOutsideTrace: an inline trace whose queue view
// names an event outside it — past its end, or negative as a uvarint
// past 2^63 decodes — is malformed client input: a 400 naming the ID,
// not a retryable 500 from a replay that panicked.
func TestRunRejectsTraceViewOutsideTrace(t *testing.T) {
	sess, err := workload.NewSession(workload.Amazon())
	if err != nil {
		t.Fatal(err)
	}
	events := make([]trace.EventTrace, 12)
	for i, ev := range sess.Events[:len(events)] {
		events[i] = trace.EventTrace{Event: ev, Insts: trace.Record(sess.Gen.Stream(ev, false), ev.Len)}
	}
	s := testServer(t, Options{Workers: 1})
	for _, id := range []int{1000, -1} {
		events[2].Event.ID = id
		var buf bytes.Buffer
		if err := trace.WriteFile(&buf, events); err != nil {
			t.Fatal(err)
		}
		rec := post(t, s, "/run", RunRequest{TraceB64: base64.StdEncoding.EncodeToString(buf.Bytes()), Config: "ESP+NL"})
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("ID %d: status %d, want 400 (body %s)", id, rec.Code, rec.Body.String())
		}
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, fmt.Sprintf("names event %d", id)) {
			t.Fatalf("ID %d: error body %q does not name the ID", id, rec.Body.String())
		}
	}
}

// TestRunRejectsBadRequests: every malformed body is a 400 with a JSON
// error, never a 500 or a silently defaulted field.
func TestRunRejectsBadRequests(t *testing.T) {
	s := testServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		body string
	}{
		{"empty", ``},
		{"not json", `{"app"`},
		{"unknown field", `{"app":"amazon","config":"base","warp":9}`},
		{"trailing garbage", `{"app":"amazon","config":"base"} extra`},
		{"missing workload", `{"config":"base"}`},
		{"missing config", `{"app":"amazon"}`},
		{"unknown app", `{"app":"altavista","config":"base"}`},
		{"unknown config", `{"app":"amazon","config":"warpdrive"}`},
		{"app and trace", `{"app":"amazon","trace_b64":"aGk=","config":"base"}`},
		{"negative max_events", `{"app":"amazon","config":"base","max_events":-1}`},
		{"negative timeout", `{"app":"amazon","config":"base","timeout_ms":-5}`},
		{"timeout past 24h", `{"app":"amazon","config":"base","timeout_ms":18446744073710}`},
		{"timeout that wraps", `{"app":"amazon","config":"base","timeout_ms":10000000000000}`},
		{"huge scale", `{"app":"amazon","config":"base","scale":1e9}`},
		{"scaled trace", `{"trace_b64":"aGk=","config":"base","scale":2}`},
		{"bad base64", `{"trace_b64":"!!!","config":"base"}`},
		{"unknown sched", `{"app":"mobileweb","config":"base","sched":"warp"}`},
		{"sched contradicts pinned config", `{"app":"mobileweb","config":"base@fifo","sched":"edf"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postRaw(t, s, "/run", []byte(tc.body))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", rec.Code, rec.Body.String())
			}
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("error body %q is not a JSON error", rec.Body.String())
			}
		})
	}
	if rec := get(t, s, "/run"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run: status %d, want 405", rec.Code)
	}
	if got := s.met.BadRequests.Load(); got != int64(len(cases)) {
		t.Fatalf("bad-request counter %d, want %d", got, len(cases))
	}
}

// TestQueueFullReturns429: with every ticket taken, the next request is
// rejected immediately — backpressure, not unbounded queueing.
func TestQueueFullReturns429(t *testing.T) {
	s := testServer(t, Options{Workers: 1})
	for i := 0; i < cap(s.tickets); i++ {
		s.tickets <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(s.tickets); i++ {
			<-s.tickets
		}
	}()
	rec := post(t, s, "/run", RunRequest{App: "amazon", Config: "base", MaxEvents: 8})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", rec.Code, rec.Body.String())
	}
	if got := s.met.Rejected.Load(); got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}
	rec = post(t, s, "/sweep", SweepRequest{Apps: []string{"amazon"}, Configs: []string{"base"}})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("sweep during full queue: status %d, want 429", rec.Code)
	}
}

// TestHTTPStatusCoversEveryKind: every fault.ErrorKind answers a
// deliberate status, so a new kind cannot fall through to a generic
// 500 unnoticed, and every refusal the ladder and the cell path raise
// lands on the status the endpoints promise.
func TestHTTPStatusCoversEveryKind(t *testing.T) {
	want := map[fault.ErrorKind]int{
		fault.KindTimeout:     http.StatusGatewayTimeout,
		fault.KindPanic:       http.StatusInternalServerError,
		fault.KindBuild:       http.StatusInternalServerError,
		fault.KindNet:         http.StatusBadGateway,
		fault.KindInjected:    http.StatusInternalServerError,
		fault.KindBreakerOpen: http.StatusServiceUnavailable,
		fault.KindCanceled:    statusClientGone,
		fault.KindConfig:      http.StatusBadRequest,
		fault.KindQuota:       http.StatusTooManyRequests,
		fault.KindBrownout:    http.StatusServiceUnavailable,
		fault.KindShed:        http.StatusGatewayTimeout,
		fault.KindError:       http.StatusInternalServerError,
	}
	for _, k := range fault.Kinds() {
		code, ok := want[k]
		if !ok {
			t.Errorf("kind %q has no deliberate status: add it to HTTPStatus and to this table", k)
			continue
		}
		if got := HTTPStatus(k); got != code {
			t.Errorf("HTTPStatus(%q) = %d, want %d", k, got, code)
		}
	}
	if got := HTTPStatus(fault.KindNone); got != http.StatusOK {
		t.Errorf("HTTPStatus(KindNone) = %d, want 200", got)
	}
	for err, code := range map[error]int{
		ErrInvalid:              http.StatusBadRequest,
		errQueueFull:            http.StatusTooManyRequests,
		tenantq.ErrQuota:        http.StatusTooManyRequests,
		sim.ErrMemory:           http.StatusServiceUnavailable,
		tenantq.ErrDeadlineShed: http.StatusGatewayTimeout,
		context.Canceled:        statusClientGone,
		sim.ErrTimeout:          http.StatusGatewayTimeout,
	} {
		if got := HTTPStatus(fault.Classify(fmt.Errorf("wrapped: %w", err))); got != code {
			t.Errorf("%v answers %d, want %d", err, got, code)
		}
	}
}

// TestTimeoutReturns504: an absurdly small per-request budget times the
// cell out with 504 and counts it.
func TestTimeoutReturns504(t *testing.T) {
	s := testServer(t, Options{Workers: 1})
	rec := post(t, s, "/run", RunRequest{App: "gmaps", Config: "ESP+NL", TimeoutMs: 1})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", rec.Code, rec.Body.String())
	}
	if got := s.met.Timeouts.Load(); got != 1 {
		t.Fatalf("timeout counter %d, want 1", got)
	}
}

// TestTimeoutBurstStopsCells: a cell that blows its timeout stops at
// its next event and hands its machine straight back. Six full
// gmaps/ESP+NL cells with a 1 ms budget on a one-worker daemon build no
// second machine and complete nothing, even once a full replay's worth
// of time has passed.
// logRecorder is an slog.Handler that keeps each record's message,
// level and "status" attribute.
type logRecorder struct {
	mu   sync.Mutex
	recs []loggedLine
}

type loggedLine struct {
	msg    string
	level  slog.Level
	status int64
}

func (h *logRecorder) Enabled(context.Context, slog.Level) bool { return true }
func (h *logRecorder) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *logRecorder) WithGroup(string) slog.Handler            { return h }

func (h *logRecorder) Handle(_ context.Context, r slog.Record) error {
	line := loggedLine{msg: r.Message, level: r.Level}
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "status" {
			line.status = a.Value.Int64()
		}
		return true
	})
	h.mu.Lock()
	h.recs = append(h.recs, line)
	h.mu.Unlock()
	return nil
}

// TestRunFailureLogLevels: a failed /run logs at Error only when the
// server is at fault. A client that hangs up while its cell runs (499)
// and a cell that outlives the client's own timeout_ms (504) log at
// Warn; a cell that panics (500) logs at Error.
func TestRunFailureLogLevels(t *testing.T) {
	const (
		hangUp = iota + 1
		stall
		crash
	)
	var mode atomic.Int32
	var cancel context.CancelFunc
	hook := func(pt sim.FaultPoint) error {
		if pt.Op != "run" {
			return nil
		}
		switch mode.Load() {
		case hangUp:
			cancel()
		case stall:
			<-pt.Done
		case crash:
			panic("injected")
		}
		return nil
	}
	logs := &logRecorder{}
	s := testServer(t, Options{Workers: 1, FaultHook: hook, Logger: slog.New(logs)})
	for _, tc := range []struct {
		name   string
		mode   int32
		status int
		level  slog.Level
	}{
		{"client gone", hangUp, statusClientGone, slog.LevelWarn},
		{"client timeout", stall, http.StatusGatewayTimeout, slog.LevelWarn},
		{"panic", crash, http.StatusInternalServerError, slog.LevelError},
	} {
		var ctx context.Context
		ctx, cancel = context.WithCancel(context.Background())
		mode.Store(tc.mode)
		rec := doRun(s, ctx, RunRequest{App: "amazon", Config: "ESP+NL", MaxEvents: 8, TimeoutMs: 50})
		cancel()
		if rec.Code != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.status, rec.Body.String())
		}
		logs.mu.Lock()
		last := logs.recs[len(logs.recs)-1]
		logs.mu.Unlock()
		if last.msg != "run" || last.status != int64(tc.status) || last.level != tc.level {
			t.Fatalf("%s: logged %q status %d at %v, want \"run\" status %d at %v",
				tc.name, last.msg, last.status, last.level, tc.status, tc.level)
		}
	}
}

func TestTimeoutBurstStopsCells(t *testing.T) {
	s := testServer(t, Options{Workers: 1})
	if rec := post(t, s, "/run", RunRequest{App: "gmaps", Config: "ESP+NL", MaxEvents: 1}); rec.Code != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", rec.Code, rec.Body.String())
	}
	for i := 0; i < 6; i++ {
		if rec := post(t, s, "/run", RunRequest{App: "gmaps", Config: "ESP+NL", TimeoutMs: 1}); rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("burst run %d: status %d, want 504: %s", i, rec.Code, rec.Body.String())
		}
	}
	check := func(when string) {
		t.Helper()
		snap := metricsSnapshot(t, s)
		if snap.Engine.MachineBuilds != 1 || snap.Cells.Timeouts != 6 || snap.Cells.Completed != 1 {
			t.Fatalf("%s: %d machines built, %d timeouts, %d completed; want 1, 6, 1",
				when, snap.Engine.MachineBuilds, snap.Cells.Timeouts, snap.Cells.Completed)
		}
	}
	check("after the burst")
	// A replay the burst left running would finish within one full
	// replay of its own.
	prof, err := workload.ByName("gmaps")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := esp.Run(prof, esp.ESPNLConfig()); err != nil {
		t.Fatal(err)
	}
	check("after one full replay")
}

// TestRunClientGoneStopsCell: a /run whose client hangs up while its
// cell replays answers 499 at once instead of finishing the replay (a
// finished replay would answer 200), and the stopped cell's machine
// serves the next cell.
func TestRunClientGoneStopsCell(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var hungUp atomic.Bool
	hook := func(pt sim.FaultPoint) error {
		if pt.Op == "run" && hungUp.CompareAndSwap(false, true) {
			cancel() // the client leaves as its cell starts
		}
		return nil
	}
	s := testServer(t, Options{Workers: 1, FaultHook: hook})
	if rec := doRun(s, ctx, RunRequest{App: "gmaps", Config: "ESP+NL"}); rec.Code != statusClientGone {
		t.Fatalf("client gone mid-cell: status %d, want %d: %s", rec.Code, statusClientGone, rec.Body.String())
	}
	if rec := post(t, s, "/run", RunRequest{App: "gmaps", Config: "ESP+NL", MaxEvents: 8}); rec.Code != http.StatusOK {
		t.Fatalf("next cell: status %d: %s", rec.Code, rec.Body.String())
	}
	if perf := s.runner.Perf(); perf.MachineBuilds != 1 || perf.MachineReuses != 1 || perf.Cells != 1 {
		t.Fatalf("engine %+v, want 1 machine built and reused once, 1 cell completed", perf)
	}
	if snap := metricsSnapshot(t, s); snap.Cells.Completed != 1 || snap.Cells.Errors != 1 {
		t.Fatalf("cell counters %+v, want 1 completed and 1 error", snap.Cells)
	}
}

// TestSweepBatchesGrid: a sweep returns cells in app-major request
// order, each bit-identical to direct esp.Run, and the engine counters
// show the batching shared workloads and machines.
func TestSweepBatchesGrid(t *testing.T) {
	s := testServer(t, Options{Workers: 2})
	apps := []string{"amazon", "bing"}
	configs := []string{"base", "ESP+NL"}
	rec := post(t, s, "/sweep", SweepRequest{Apps: apps, Configs: configs, MaxEvents: 32})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Cells) != len(apps)*len(configs) {
		t.Fatalf("%d cells, want %d", len(resp.Cells), len(apps)*len(configs))
	}
	i := 0
	for _, app := range apps {
		for _, name := range configs {
			cell := resp.Cells[i]
			i++
			if cell.App != app || cell.Config != name {
				t.Fatalf("cell %d is %s/%s, want %s/%s (app-major order)", i-1, cell.App, cell.Config, app, name)
			}
			if cell.Error != "" || cell.Result == nil {
				t.Fatalf("cell %s/%s failed: %s", app, name, cell.Error)
			}
			prof, err := workload.ByName(app)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := esp.ConfigByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg.MaxEvents = 32
			want, err := esp.Run(prof, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want = jsonRoundTrip(t, want); !reflect.DeepEqual(*cell.Result, want) {
				t.Fatalf("cell %s/%s deviates from esp.Run", app, name)
			}
		}
	}
	perf := s.runner.Perf()
	if perf.WorkloadBuilds != int64(len(apps)) {
		t.Fatalf("workload builds %d, want one per app (%d)", perf.WorkloadBuilds, len(apps))
	}
	if perf.WorkloadReuses == 0 {
		t.Fatalf("batching produced no workload cache hits: %+v", perf)
	}
}

// TestSweepRejectsDuplicateApps: a grid naming one app twice is a 400
// naming the app, before anything is simulated or journaled — two
// batches of one app would append to one journal.
func TestSweepRejectsDuplicateApps(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, Options{Workers: 2, CheckpointDir: dir})
	rec := postRaw(t, s, "/sweep", []byte(`{"apps":["pixlr","pixlr"],"configs":["base"],"sweep_id":"dup","max_events":8}`))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `\"pixlr\"`) {
		t.Fatalf("status %d, want 400 naming pixlr: %s", rec.Code, rec.Body.String())
	}
	if cells := s.runner.Perf().Cells; cells != 0 {
		t.Errorf("refused sweep simulated %d cells", cells)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("refused sweep left %d journal files (err %v)", len(entries), err)
	}
}

// TestSweepIsolatesCellFailures: a cell that times out degrades alone;
// the rest of the grid still answers.
func TestSweepIsolatesCellFailures(t *testing.T) {
	s := testServer(t, Options{Workers: 1})
	// gmaps at full scale cannot finish in 1ms; amazon at 8 events can.
	rec := post(t, s, "/sweep", SweepRequest{Apps: []string{"gmaps"}, Configs: []string{"ESP+NL"}, TimeoutMs: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 with degraded cells", rec.Code)
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Cells) != 1 || resp.Cells[0].Error == "" || resp.Cells[0].Result != nil {
		t.Fatalf("expected a per-cell timeout error, got %+v", resp.Cells)
	}
}

// TestHealthzAndDrain: liveness stays green while draining (the
// process is alive; killing it would abort the drain), readiness goes
// red so load balancers stop routing, new work is rejected, and Drain
// returns once in-flight requests finish.
func TestHealthzAndDrain(t *testing.T) {
	s := testServer(t, Options{Workers: 1})
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthy healthz: status %d", rec.Code)
	}
	if rec := get(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("healthy readyz: status %d", rec.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("draining healthz (liveness): status %d, want 200", rec.Code)
	}
	var h healthResponse
	if err := json.Unmarshal(get(t, s, "/healthz").Body.Bytes(), &h); err != nil || h.Status != "draining" {
		t.Fatalf("draining healthz body: %+v, %v", h, err)
	}
	if rec := get(t, s, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: status %d, want 503", rec.Code)
	}
	if rec := post(t, s, "/run", RunRequest{App: "amazon", Config: "base", MaxEvents: 8}); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining /run: status %d, want 503", rec.Code)
	}
	if rec := get(t, s, "/metrics"); rec.Code != http.StatusOK {
		t.Fatalf("metrics must stay readable while draining: status %d", rec.Code)
	}
}

// TestReadyzQuarantineThreshold: when breakers quarantine more than
// half the preset grid, readiness fails even though the process is
// healthy.
func TestReadyzQuarantineThreshold(t *testing.T) {
	s := testServer(t, Options{Workers: 1})
	preset := len(appNames()) * len(esp.ConfigNames())
	breakers := s.exec.Breakers()
	// Trip just over half the preset cells' breakers directly — the
	// request path to the same state is the chaos soak's job.
	for i := 0; i <= preset/2; i++ {
		for f := 0; f < breakerThreshold; f++ {
			breakers.Record(fmt.Sprintf("cell-%d", i), false)
		}
	}
	rec := get(t, s, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with %d/%d breakers open: status %d, want 503", preset/2+1, preset, rec.Code)
	}
	var resp readyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Status != "quarantined" {
		t.Fatalf("readyz body: %+v, %v", resp, err)
	}
	// One recovery flips readiness back.
	breakers.Record("cell-0", true)
	if rec := get(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz after recovery: status %d, want 200", rec.Code)
	}
}

// TestMetricsEndpoint: after traffic, every layer of the snapshot is
// populated — request counters, engine reuse counters, the histogram.
func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t, Options{Workers: 2})
	for i := 0; i < 3; i++ {
		if rec := post(t, s, "/run", RunRequest{App: "amazon", Config: "base", MaxEvents: 16}); rec.Code != http.StatusOK {
			t.Fatalf("run %d: status %d", i, rec.Code)
		}
	}
	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics is not valid JSON: %v", err)
	}
	if snap.Requests.Run != 3 {
		t.Fatalf("run requests %d, want 3", snap.Requests.Run)
	}
	if snap.Engine.Cells != 3 || snap.Engine.WorkloadBuilds != 1 || snap.Engine.WorkloadReuses != 2 {
		t.Fatalf("engine counters %+v, want 3 cells over 1 build + 2 cache hits", snap.Engine)
	}
	if snap.Engine.MachineReuses != 2 {
		t.Fatalf("machine reuses %d, want 2", snap.Engine.MachineReuses)
	}
	if snap.Cells.Completed != 3 || snap.CellLatency.Count != 3 {
		t.Fatalf("cell counters: %+v / latency count %d, want 3", snap.Cells, snap.CellLatency.Count)
	}
	if snap.Queue.Capacity != 2+queueDepth || snap.Queue.Workers != 2 {
		t.Fatalf("queue geometry %+v, want capacity %d / workers 2", snap.Queue, 2+queueDepth)
	}
	var total int64
	for _, c := range snap.CellLatency.Counts {
		total += c
	}
	if total != snap.CellLatency.Count {
		t.Fatalf("histogram counts sum %d != count %d", total, snap.CellLatency.Count)
	}
}

// TestWorkloadCacheEviction: a cache capped below the distinct-workload
// count evicts and the service keeps answering correctly.
func TestWorkloadCacheEviction(t *testing.T) {
	s := testServer(t, Options{Workers: 1})
	s.runner.SetWorkloadCap(1)
	for _, app := range []string{"amazon", "bing", "amazon"} {
		if rec := post(t, s, "/run", RunRequest{App: app, Config: "base", MaxEvents: 16}); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", app, rec.Code)
		}
	}
	perf := s.runner.Perf()
	if perf.WorkloadEvicts == 0 {
		t.Fatalf("cap-1 cache over 2 apps never evicted: %+v", perf)
	}
	if perf.WorkloadBuilds != 3 {
		t.Fatalf("workload builds %d, want 3 (amazon rebuilt after eviction)", perf.WorkloadBuilds)
	}
}

// TestOversizeBodyRejected: a well-formed /run body one byte past
// MaxRequestBytes is refused as too large.
func TestOversizeBodyRejected(t *testing.T) {
	s := testServer(t, Options{Workers: 1})
	head, tail := `{"app":"amazon","config":"base","trace_b64":"`, `"}`
	body := head + strings.Repeat("A", MaxRequestBytes+1-len(head)-len(tail)) + tail
	rec := postRaw(t, s, "/run", []byte(body))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "too large") {
		t.Fatalf("status %d (%s), want 400 for an oversize body", rec.Code, rec.Body.String())
	}
}
