// Package serve implements espd, the simulation service: an HTTP API
// that runs (application, configuration) cells — the paper's Fig 9/10
// grid shape — on a bounded pool of sim.Runner workers with an LRU
// workload cache, same-workload request batching, and backpressure.
package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	esp "espsim"
	"espsim/internal/eventq"
	"espsim/internal/fault"
	"espsim/internal/sim"
	"espsim/internal/tenantq"
	"espsim/internal/trace"
	"espsim/internal/workload"
)

// ErrInvalid marks a request that cannot run as asked: a malformed or
// oversize body, an unknown name, incoherent knobs, a tenant
// disagreement, or an undecodable inline trace. It classifies as
// fault.KindConfig, which both espd and espcoord answer with 400.
var ErrInvalid = fault.Sentinel("invalid request", fault.KindConfig)

// invalid tags a client-side failure with ErrInvalid. The cause is
// kept as text only, so no sentinel inside it (trace.ErrBadTrace, say)
// can reclassify the failure as the server's.
func invalid(err error) error {
	return fmt.Errorf("%w: %v", ErrInvalid, err)
}

// traceLimits bounds inline ESPT traces: 4 MiB encoded, 64Ki events,
// 4Mi instructions.
var traceLimits = trace.Limits{MaxTraceBytes: 4 << 20, MaxEvents: 64 << 10, MaxInsts: 4 << 20}

// RunRequest is the body of POST /run: one simulation cell. Exactly one
// of App (a preset application name) or TraceB64 (a base64-encoded ESPT
// trace file) selects the workload; Config names a preset machine
// configuration (see esp.ConfigNames).
type RunRequest struct {
	App      string `json:"app,omitempty"`
	TraceB64 string `json:"trace_b64,omitempty"`
	Config   string `json:"config"`

	// Scale multiplies the preset's event count (0: 1.0). Ignored for
	// inline traces.
	Scale float64 `json:"scale,omitempty"`
	// MaxEvents truncates the session when positive; MaxPending widens
	// the queue view past the default two entries.
	MaxEvents  int `json:"max_events,omitempty"`
	MaxPending int `json:"max_pending,omitempty"`
	// TimeoutMs bounds the cell's simulation time (0: server default).
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Sched selects the event-queue dispatch policy ("fifo", "prio",
	// "edf", "slack"; empty: FIFO). Equivalent to an "@policy" suffix
	// on Config; setting both to different policies is an error.
	Sched string `json:"sched,omitempty"`
	// Tenant names the tenant this request is accounted and fair-queued
	// under (also settable via the X-ESP-Tenant header; both set and
	// disagreeing is a 400). Empty means the "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// DeadlineMs is a client deadline relative to arrival: the request
	// is worthless after arrival+DeadlineMs, so work that provably
	// cannot finish by then is shed with 504 instead of simulated.
	// Zero means no deadline; negative means already expired (useful
	// for coordinators propagating an exhausted budget).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// SweepRequest is the body of POST /sweep: a grid of cells. Apps empty
// means the whole seven-application suite. Cells are batched by
// workload: every configuration of one application runs back to back on
// one worker, sharing the materialized arena and pooled machines.
//
// SweepID (optional) makes the sweep resumable when the server has a
// checkpoint directory: completed cells are journaled as they finish,
// and a later sweep with the same ID — after a daemon crash or a client
// retry — replays them from disk instead of re-simulating.
type SweepRequest struct {
	Apps    []string `json:"apps,omitempty"`
	Configs []string `json:"configs"`
	SweepID string   `json:"sweep_id,omitempty"`

	// Shard labels this sweep as one shard of a coordinator-sharded
	// grid (espcoord sets it to the shard's application). It never
	// shapes results — it tags logs and metrics and scopes the journal
	// conflict check, so one sweep_id cannot be reused across shards.
	Shard string `json:"shard,omitempty"`

	Scale      float64 `json:"scale,omitempty"`
	MaxEvents  int     `json:"max_events,omitempty"`
	MaxPending int     `json:"max_pending,omitempty"`
	TimeoutMs  int     `json:"timeout_ms,omitempty"`
	// Sched applies one dispatch policy to every cell of the grid;
	// per-config "@policy" suffixes in Configs override it per cell
	// only when they agree (disagreement is a 400).
	Sched string `json:"sched,omitempty"`
	// Tenant and DeadlineMs follow RunRequest semantics: fair-queueing
	// identity and a relative deadline past which cells are shed.
	Tenant     string `json:"tenant,omitempty"`
	DeadlineMs int64  `json:"deadline_ms,omitempty"`
}

// RunResponse is the body of a successful POST /run.
type RunResponse struct {
	Result esp.Result `json:"result"`
	WallMs float64    `json:"wall_ms"`
}

// SweepCell is one cell of a SweepResponse: a result or a structured
// per-cell error (one failed cell does not fail the sweep — panic
// isolation, retries, and timeouts degrade per cell). The sweep is
// never all-or-nothing: every requested cell comes back with exactly
// one of Result, Error, or Skipped.
type SweepCell struct {
	App    string      `json:"app"`
	Config string      `json:"config"`
	Result *esp.Result `json:"result,omitempty"`
	// Error is the final attempt's message; ErrorKind classifies it
	// ("timeout", "panic", "build", "injected", "canceled", "config",
	// "error") so clients can branch without parsing prose.
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
	// Attempts counts how many times the cell ran (0 when skipped or
	// resumed).
	Attempts int `json:"attempts,omitempty"`
	// Skipped is "breaker_open" when the cell's circuit breaker
	// quarantined it: the cell was not attempted and did not burn a
	// retry budget.
	Skipped string `json:"skipped,omitempty"`
	// Resumed is true when Result was replayed from the sweep's
	// checkpoint journal instead of simulated.
	Resumed bool `json:"resumed,omitempty"`
}

// SweepResponse is the body of a successful POST /sweep, cells in
// app-major request order.
type SweepResponse struct {
	Cells  []SweepCell `json:"cells"`
	WallMs float64     `json:"wall_ms"`
}

// maxScale bounds the event-count multiplier a request may ask for: the
// largest session at scale 64 is still minutes, not days.
const maxScale = 64

// decodeStrict unmarshals JSON rejecting unknown fields and trailing
// garbage, so a typo'd field name is a 400, not a silently ignored knob.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON document")
	}
	return nil
}

// ParseRunRequest decodes and validates a POST /run body. Workload and
// configuration names are resolved here (so errors are ErrInvalid), but
// the inline trace — if any — is only syntax-checked later, under
// traceLimits, by resolve.
func ParseRunRequest(data []byte) (RunRequest, error) {
	var req RunRequest
	if err := decodeStrict(data, &req); err != nil {
		return RunRequest{}, invalid(fmt.Errorf("decoding run request: %w", err))
	}
	if err := req.validate(); err != nil {
		return RunRequest{}, invalid(err)
	}
	return req, nil
}

func (req *RunRequest) validate() error {
	switch {
	case req.App == "" && req.TraceB64 == "":
		return fmt.Errorf("one of \"app\" or \"trace_b64\" is required (apps: %s)", strings.Join(appNames(), ", "))
	case req.App != "" && req.TraceB64 != "":
		return fmt.Errorf("\"app\" and \"trace_b64\" are mutually exclusive")
	case req.Config == "":
		return fmt.Errorf("\"config\" is required (one of: %s)", strings.Join(esp.ConfigNames(), ", "))
	case req.TraceB64 != "" && req.Scale != 0 && req.Scale != 1:
		return fmt.Errorf("\"scale\" does not apply to an inline trace")
	}
	if err := validateKnobs(req.Scale, req.MaxEvents, req.MaxPending, req.TimeoutMs, req.Tenant, req.DeadlineMs); err != nil {
		return err
	}
	if req.App != "" {
		if _, err := workload.ByName(req.App); err != nil {
			return err
		}
	}
	_, err := cellConfig(req.Config, req.Sched, 0, 0)
	return err
}

// maxBudgetMs bounds timeout_ms and a relative deadline to 24 hours:
// anything larger is a typo (and would overflow Duration math long
// before mattering).
const maxBudgetMs = 24 * 60 * 60 * 1000

// validateKnobs checks the knobs /run and /sweep share. deadline_ms may
// be negative — "already expired" — but is bounded both ways, so
// arrival+deadline stays inside Duration range; timeout_ms is bounded
// the same way, so it always converts to a positive Duration.
func validateKnobs(scale float64, maxEvents, maxPending, timeoutMs int, tenant string, deadlineMs int64) error {
	switch {
	case scale < 0 || scale > maxScale:
		return fmt.Errorf("\"scale\" must be in (0, %d], got %g", maxScale, scale)
	case maxEvents < 0:
		return fmt.Errorf("\"max_events\" must be non-negative, got %d", maxEvents)
	case maxPending < 0:
		return fmt.Errorf("\"max_pending\" must be non-negative, got %d", maxPending)
	case timeoutMs < 0 || timeoutMs > maxBudgetMs:
		return fmt.Errorf("\"timeout_ms\" must be in [0, %d] (24h), got %d", maxBudgetMs, timeoutMs)
	case deadlineMs > maxBudgetMs || deadlineMs < -maxBudgetMs:
		return fmt.Errorf("\"deadline_ms\" must be within ±%d (24h), got %d", int64(maxBudgetMs), deadlineMs)
	}
	return validateID("tenant", tenant)
}

// ParseSweepRequest decodes and validates a POST /sweep body; every
// failure is ErrInvalid.
func ParseSweepRequest(data []byte) (SweepRequest, error) {
	var req SweepRequest
	if err := decodeStrict(data, &req); err != nil {
		return SweepRequest{}, invalid(fmt.Errorf("decoding sweep request: %w", err))
	}
	if err := req.validate(); err != nil {
		return SweepRequest{}, invalid(err)
	}
	return req, nil
}

func (req *SweepRequest) validate() error {
	if len(req.Configs) == 0 {
		return fmt.Errorf("\"configs\" is required (one or more of: %s)", strings.Join(esp.ConfigNames(), ", "))
	}
	if err := validateKnobs(req.Scale, req.MaxEvents, req.MaxPending, req.TimeoutMs, req.Tenant, req.DeadlineMs); err != nil {
		return err
	}
	if err := validateID("sweep_id", req.SweepID); err != nil {
		return err
	}
	if err := validateID("shard", req.Shard); err != nil {
		return err
	}
	// A repeated app would be two batches appending to one journal, and
	// at espcoord two shards sharing one scoped journal "<sweep_id>.<app>".
	seen := make(map[string]bool, len(req.Apps))
	for _, app := range req.Apps {
		if _, err := workload.ByName(app); err != nil {
			return err
		}
		if seen[app] {
			return fmt.Errorf("\"apps\" names %q twice", app)
		}
		seen[app] = true
	}
	for _, name := range req.Configs {
		if _, err := cellConfig(name, req.Sched, 0, 0); err != nil {
			return err
		}
	}
	return nil
}

// validateID keeps sweep and shard IDs filename-safe: sweep IDs name
// the checkpoint journal on disk, so path separators, dots-only names,
// and unbounded lengths are rejected at the request boundary.
func validateID(field, id string) error {
	if id == "" {
		return nil
	}
	if len(id) > 64 {
		return fmt.Errorf("%q must be at most 64 characters, got %d", field, len(id))
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("%q may only contain [A-Za-z0-9._-], got %q", field, id)
		}
	}
	if strings.Trim(id, ".") == "" {
		return fmt.Errorf("%q must not be only dots", field)
	}
	return nil
}

// cellConfig materializes the machine configuration for one cell: the
// named preset (with any "@policy" scheduling suffix), the request's
// explicit scheduler (applied unless the name already pinned a
// different one), and the truncation and queue-view overrides.
func cellConfig(name, sched string, maxEvents, maxPending int) (esp.Config, error) {
	cfg, err := esp.ConfigByName(name)
	if err != nil {
		return esp.Config{}, err
	}
	if sched != "" {
		p, err := esp.SchedByName(sched)
		if err != nil {
			return esp.Config{}, err
		}
		switch {
		case cfg.Sched == p:
			// The name's suffix and the explicit field agree.
		case strings.Contains(name, "@"):
			// Any explicit @policy suffix — including @fifo — pins the
			// policy; a disagreeing "sched" field is a contradictory
			// request, not an override.
			return esp.Config{}, fmt.Errorf("config %q pins scheduler %q but \"sched\" asks for %q",
				name, cfg.Sched, p)
		default:
			cfg = esp.SchedConfig(cfg, p)
		}
	}
	if maxEvents > 0 {
		cfg.MaxEvents = maxEvents
	}
	if maxPending > 0 {
		cfg.MaxPending = maxPending
	}
	return cfg, nil
}

// scaledProfile resolves a preset application at the requested scale.
func scaledProfile(app string, scale float64) (workload.Profile, error) {
	prof, err := workload.ByName(app)
	if err != nil {
		return workload.Profile{}, err
	}
	if scale != 0 && scale != 1 {
		prof = prof.Scale(scale)
	}
	return prof, nil
}

// traceWorkload decodes an inline base64 ESPT trace under lim and
// materializes it under the requested dispatch policy (v2 traces carry
// per-event scheduling metadata). Inline traces bypass the LRU cache
// (they have no stable identity), but still share the pooled machines.
func traceWorkload(traceB64 string, maxEvents int, policy esp.SchedPolicy, lim trace.Limits) (*sim.Workload, error) {
	raw, err := base64.StdEncoding.DecodeString(traceB64)
	if err != nil {
		return nil, fmt.Errorf("decoding trace_b64: %w", err)
	}
	events, err := trace.ReadFileLimits(bytes.NewReader(raw), lim)
	if err != nil {
		return nil, fmt.Errorf("decoding inline trace: %w", err)
	}
	return sim.MaterializeSourceSched("trace", &eventq.TraceSource{Events: events}, maxEvents, policy)
}

// resolve turns one validated (app-or-trace, config) pair into the two
// planes a runner needs. Preset workloads go through the runner's LRU
// cache keyed by (profile, MaxEvents, policy, queue depth) — which
// subsumes (app, scale), since scale changes the profile value — so
// concurrent requests share one materialized arena, built only as deep
// as the cell's MaxPending reads. A name, knob, or inline trace that
// does not resolve is ErrInvalid; a preset that fails to build is the
// runner's own error (sim.ErrBuild, retryable).
func resolve(r *sim.Runner, req RunRequest) (*sim.Workload, esp.Config, error) {
	cfg, err := cellConfig(req.Config, req.Sched, req.MaxEvents, req.MaxPending)
	if err != nil {
		return nil, esp.Config{}, invalid(err)
	}
	if req.TraceB64 != "" {
		w, err := traceWorkload(req.TraceB64, cfg.MaxEvents, cfg.Sched, traceLimits)
		if err != nil {
			return nil, esp.Config{}, invalid(err)
		}
		return w, cfg, nil
	}
	prof, err := scaledProfile(req.App, req.Scale)
	if err != nil {
		return nil, esp.Config{}, invalid(err)
	}
	w, err := r.WorkloadSched(prof, cfg.MaxEvents, cfg.Sched, cfg.MaxPending)
	return w, cfg, err
}

// workloadName is the name a cell's workload runs and is estimated
// under: the preset's, or "trace" for an inline trace.
func (req RunRequest) workloadName() string {
	if req.App == "" {
		return "trace"
	}
	return req.App
}

// appNames lists the paper-suite applications. It doubles as the
// default /sweep grid, so the timed mobile-web profiles stay out of it;
// they are requested by name (workload.ByName accepts them).
func appNames() []string {
	ps := workload.Suite()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// timeoutOf resolves a per-request timeout against the server default.
func timeoutOf(ms int, def time.Duration) time.Duration {
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return def
}

// TenantHeader is the transport-level tenant identity, for clients that
// cannot touch the body (proxies, coordinators re-dispatching opaque
// requests).
const TenantHeader = "X-ESP-Tenant"

// ResolveTenant joins the body field and the TenantHeader value into
// one tenant name: either may set it, both only in agreement (else
// ErrInvalid), and legacy clients that set neither land on the
// "default" tenant. espd and espcoord both admit by it.
func ResolveTenant(field, header string) (string, error) {
	if err := validateID("tenant", header); err != nil {
		return "", invalid(err)
	}
	switch {
	case field != "" && header != "" && field != header:
		return "", invalid(fmt.Errorf("\"tenant\" %q and %s header %q disagree", field, TenantHeader, header))
	case field != "":
		return field, nil
	case header != "":
		return header, nil
	}
	return tenantq.DefaultTenant, nil
}

// deadlineOf anchors a relative deadline at the request's arrival.
// Zero DeadlineMs means none (zero time); negative is already expired.
func deadlineOf(ms int64, arrival time.Time) time.Time {
	if ms == 0 {
		return time.Time{}
	}
	return arrival.Add(time.Duration(ms) * time.Millisecond)
}
