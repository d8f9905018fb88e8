// Package cluster is the coordination plane over a fleet of espd
// workers: espcoord shards a sweep grid application-by-application
// across nodes (affinity placement keeps every configuration of one
// application on one worker, so its LRU workload cache and machine
// pools stay hot), quarantines nodes whose shard attempts fail behind
// escalating circuit breakers, steals shards from stragglers, and
// reschedules a failed shard under the same scoped sweep_id, so a peer
// sharing the dead worker's checkpoint directory replays its completed
// cells instead of re-simulating them. A worker's /sweep answers are
// the coordinator's only source of facts about it. Results are
// bit-identical to a single-node sweep under any placement or failure
// schedule, because every cell is deterministic and each worker
// digest-checks a journal before it resumes one.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"espsim/internal/fault"
	"espsim/internal/serve"
)

// ErrWorkerDown reports a worker that is unreachable or no longer a
// process: the attempt's outcome is unknown and the shard must be
// rescheduled (the worker's journal, if shared, says what survived).
// The sentinel carries KindNet, so a shard that dies with its worker
// reports "net" on the wire and counts in the coordinator's net_faults.
var ErrWorkerDown = fault.Sentinel("cluster: worker down", fault.KindNet)

// Worker is the coordinator's view of one espd node. Implementations:
// LocalWorker embeds a *serve.Server in-process (tests, single-binary
// deployments), HTTPWorker fronts a remote daemon.
type Worker interface {
	Name() string
	// Sweep runs one shard. An error means the outcome is unknown or
	// the node refused; the shard will be rescheduled, or rerun
	// journal-less when the refusal is a 409 (see journalRefused).
	Sweep(ctx context.Context, req serve.SweepRequest) (serve.SweepResponse, error)
}

// LocalWorker adapts an in-process *serve.Server to the Worker
// interface by driving its HTTP handlers directly — the same code
// path a remote daemon serves, minus the socket. Kill simulates
// process death: every Sweep from then on fails with ErrWorkerDown,
// including a Sweep already in flight (its response is discarded the
// way a dying process's unsent response would be; its journal appends
// up to the kill are already durable, which is the point).
type LocalWorker struct {
	name string
	srv  *serve.Server
	dead atomic.Bool
}

// NewLocalWorker wraps srv as the named fleet member.
func NewLocalWorker(name string, srv *serve.Server) *LocalWorker {
	return &LocalWorker{name: name, srv: srv}
}

// Name implements Worker.
func (lw *LocalWorker) Name() string { return lw.name }

// Kill marks the worker dead. The embedded server keeps draining
// whatever it was doing (a real process does not vanish mid-syscall
// either), but no result reaches the coordinator again.
func (lw *LocalWorker) Kill() { lw.dead.Store(true) }

// Sweep implements Worker.
func (lw *LocalWorker) Sweep(ctx context.Context, req serve.SweepRequest) (serve.SweepResponse, error) {
	if lw.dead.Load() {
		return serve.SweepResponse{}, fmt.Errorf("%w: %s", ErrWorkerDown, lw.name)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return serve.SweepResponse{}, err
	}
	rec := lw.do(ctx, http.MethodPost, "/sweep", body)
	if lw.dead.Load() {
		// Died mid-request: the handler finished (journal closed), but
		// the process is gone before the response made it out.
		return serve.SweepResponse{}, fmt.Errorf("%w: %s died mid-sweep", ErrWorkerDown, lw.name)
	}
	return decodeWorkerResponse(lw.name, rec.code, rec.buf.Bytes())
}

// do drives one handler call through the server's full middleware
// stack and captures the response in memory.
func (lw *LocalWorker) do(ctx context.Context, method, target string, body []byte) *memResponse {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, target, rdr)
	if err != nil {
		rec := newMemResponse()
		rec.code = http.StatusInternalServerError
		fmt.Fprintf(&rec.buf, `{"error":%q}`, err.Error())
		return rec
	}
	rec := newMemResponse()
	lw.srv.ServeHTTP(rec, req)
	return rec
}

// memResponse is a minimal in-memory http.ResponseWriter.
type memResponse struct {
	code int
	hdr  http.Header
	buf  bytes.Buffer
}

func newMemResponse() *memResponse                 { return &memResponse{code: http.StatusOK, hdr: http.Header{}} }
func (m *memResponse) Header() http.Header         { return m.hdr }
func (m *memResponse) WriteHeader(c int)           { m.code = c }
func (m *memResponse) Write(p []byte) (int, error) { return m.buf.Write(p) }

// HTTPWorker fronts a remote espd daemon. Transport failures surface
// as ErrWorkerDown (outcome unknown: reschedule); HTTP-level refusals
// carry the daemon's own error string.
type HTTPWorker struct {
	name    string
	baseURL string
	client  *http.Client
}

// NewHTTPWorker wraps the daemon at baseURL (e.g. "http://host:8080")
// as the named fleet member; client nil means http.DefaultClient.
func NewHTTPWorker(name, baseURL string, client *http.Client) *HTTPWorker {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPWorker{name: name, baseURL: strings.TrimRight(baseURL, "/"), client: client}
}

// Name implements Worker.
func (hw *HTTPWorker) Name() string { return hw.name }

// Sweep implements Worker.
func (hw *HTTPWorker) Sweep(ctx context.Context, req serve.SweepRequest) (serve.SweepResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return serve.SweepResponse{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, hw.baseURL+"/sweep", bytes.NewReader(body))
	if err != nil {
		return serve.SweepResponse{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := hw.client.Do(hreq)
	if err != nil {
		return serve.SweepResponse{}, fmt.Errorf("%w: %s: %v", ErrWorkerDown, hw.name, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return serve.SweepResponse{}, fmt.Errorf("%w: %s: reading response: %v", ErrWorkerDown, hw.name, err)
	}
	return decodeWorkerResponse(hw.name, resp.StatusCode, raw)
}

// workerHTTPError is a non-200 a live worker chose to send — the node
// is up, the request was refused (or the resource absent).
type workerHTTPError struct {
	worker string
	code   int
	msg    string
}

func (e *workerHTTPError) Error() string {
	return fmt.Sprintf("cluster: worker %s answered %d: %s", e.worker, e.code, e.msg)
}

// journalRefused reports a worker's 409: it will not resume the
// shard's journal, because the journal was written for another grid,
// is corrupt, or is open in a sweep still running there.
func journalRefused(err error) bool {
	var herr *workerHTTPError
	return errors.As(err, &herr) && herr.code == http.StatusConflict
}

// decodeWorkerResponse maps one worker's /sweep reply: 200 decodes,
// anything else becomes a workerHTTPError carrying the daemon's
// {"error": ...} message. One exception: a 504 body that parses as a
// grid is a deadline shed — every cell is answered (some with
// ErrorKind "deadline_shed"), which is a result to merge, not a node
// failure to reschedule against a deadline that already passed.
func decodeWorkerResponse(worker string, code int, raw []byte) (serve.SweepResponse, error) {
	var resp serve.SweepResponse
	if code == http.StatusGatewayTimeout {
		if err := json.Unmarshal(raw, &resp); err == nil && len(resp.Cells) > 0 {
			return resp, nil
		}
	}
	if code != http.StatusOK {
		var eresp struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(raw, &eresp)
		if eresp.Error == "" {
			eresp.Error = strings.TrimSpace(string(raw))
		}
		return serve.SweepResponse{}, &workerHTTPError{worker: worker, code: code, msg: eresp.Error}
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return serve.SweepResponse{}, fmt.Errorf("cluster: worker %s: undecodable response: %w", worker, err)
	}
	return resp, nil
}
