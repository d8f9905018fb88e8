package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"espsim/internal/cluster"
	"espsim/internal/serve"
	"espsim/internal/serve/metrics"
	"espsim/internal/sim"
)

// Headers that carry a request's trace identity from the client into
// the in-process server. The server under test ignores them.
const (
	reqHeader  = "X-Bench-Req"
	spanHeader = "X-Bench-Span"
)

// maxConns is the client's connection cap: at most two requests are on
// the wire at once.
const maxConns = 2

// fleet is the system under test, in process: either one espd (Workers
// 2) or an espcoord Coordinator over two journaling espd LocalWorkers
// (Workers 1 each), behind a loopback HTTP listener.
type fleet struct {
	servers []*serve.Server
	coord   *cluster.Coordinator

	url    string
	client *http.Client
	http   *http.Server
	served chan struct{}
	ckpt   string

	tr     atomic.Pointer[tracer] // the active tracer; nil: tracing off
	closed sync.Once
}

// spanRef travels in a request context from the front handler to the
// cluster.Worker wrapper.
type spanRef struct {
	id  int32
	req int64
}

type spanKey struct{}

// newFleet builds a fleet and starts serving it. coordinated selects
// the espcoord shape. Journals go under dir.
func newFleet(coordinated bool, dir string) (*fleet, error) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	f := &fleet{}
	var front http.Handler
	if coordinated {
		ckpt, err := os.MkdirTemp(dir, "ckpt-")
		if err != nil {
			return nil, fmt.Errorf("checkpoint dir: %w", err)
		}
		f.ckpt = ckpt
		var workers []cluster.Worker
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("w%d", i)
			srv := serve.New(serve.Options{Name: name, Workers: 1, CheckpointDir: ckpt, Logger: logger})
			f.servers = append(f.servers, srv)
			workers = append(workers, &spanWorker{Worker: cluster.NewLocalWorker(name, srv), f: f})
		}
		coord, err := cluster.New(cluster.Options{Workers: workers, Logger: logger})
		if err != nil {
			f.close()
			return nil, err
		}
		f.coord = coord
		front = spanHandler{name: "cluster", next: cluster.NewServer(coord), f: f}
	} else {
		srv := serve.New(serve.Options{Name: "espd", Workers: 2, Logger: logger})
		f.servers = []*serve.Server{srv}
		front = spanHandler{name: "serve", next: srv, f: f}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	f.url = "http://" + ln.Addr().String()
	f.http = &http.Server{Handler: front, ReadHeaderTimeout: 10 * time.Second}
	f.served = make(chan struct{})
	go func() {
		defer close(f.served)
		_ = f.http.Serve(ln) // ErrServerClosed after close
	}()
	f.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
	return f, nil
}

// close stops the listener, waits for its goroutine, closes the servers
// and removes the journals. Later calls do nothing.
func (f *fleet) close() { f.closed.Do(f.shutdown) }

func (f *fleet) shutdown() {
	if f.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = f.http.Shutdown(ctx) // idle connections only; nothing is in flight
		cancel()
		<-f.served
		f.client.CloseIdleConnections()
	}
	for _, s := range f.servers {
		_ = s.Close() // journals are scratch
	}
	if f.ckpt != "" {
		_ = os.RemoveAll(f.ckpt)
	}
}

func (f *fleet) tracer() *tracer { return f.tr.Load() }

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
	span   int32 // the front handler's span id, -1 when untraced
	lat    time.Duration
}

// post sends body to path as request req under the client span parent
// and reads the whole response. The latency runs from send to the last
// response byte.
func (f *fleet) post(path string, body []byte, req int64, parent int32) (reply, error) {
	tr := f.tracer()
	id := tr.begin("request", "", parent, req)
	hreq, err := http.NewRequest(http.MethodPost, f.url+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	hreq.Header.Set(spanHeader, strconv.Itoa(int(id)))
	start := time.Now()
	resp, err := f.client.Do(hreq)
	if err != nil {
		tr.end(id)
		return reply{}, fmt.Errorf("POST %s: %w", path, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	tr.end(id)
	if err != nil {
		return reply{}, fmt.Errorf("POST %s: reading response: %w", path, err)
	}
	span, err := strconv.Atoi(resp.Header.Get(spanHeader))
	if err != nil {
		span = -1
	}
	return reply{status: resp.StatusCode, body: raw, span: int32(span), lat: lat}, nil
}

// spanHandler records a span around the server's front handler.
type spanHandler struct {
	name string
	next http.Handler
	f    *fleet
}

func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.f.tracer()
	req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	parent, err := strconv.Atoi(r.Header.Get(spanHeader))
	if err != nil {
		parent = -1
	}
	id := tr.begin(h.name, "", int32(parent), req)
	w.Header().Set(spanHeader, strconv.Itoa(int(id)))
	h.next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{id: id, req: req})))
	tr.end(id)
}

// spanWorker is the benchmark's timing wrapper around one fleet member:
// a "serve" span per shard, with the worker's reported wall time as its
// "engine" child.
type spanWorker struct {
	cluster.Worker
	f *fleet
}

func (w *spanWorker) Sweep(ctx context.Context, req serve.SweepRequest) (serve.SweepResponse, error) {
	tr := w.f.tracer()
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		ref = spanRef{id: -1}
	}
	id := tr.begin("serve", w.Name(), ref.id, ref.req)
	resp, err := w.Worker.Sweep(ctx, req)
	tr.end(id)
	tr.reported("engine", id, msDuration(resp.WallMs))
	return resp, err
}

func msDuration(ms float64) time.Duration { return time.Duration(ms * 1e6) }

// perf sums the engine counters of every server in the fleet.
func (f *fleet) perf() sim.Perf {
	var p sim.Perf
	for _, s := range f.servers {
		q := s.Runner().Perf()
		p.Cells += q.Cells
		p.WorkloadBuilds += q.WorkloadBuilds
		p.WorkloadReuses += q.WorkloadReuses
		p.WorkloadEvicts += q.WorkloadEvicts
		p.MachineBuilds += q.MachineBuilds
		p.BuildWall += q.BuildWall
		p.SimWall += q.SimWall
	}
	return p
}

// refused counts requests the servers have answered with 429, 503 or
// 504 since they started, read from their /metrics documents.
func (f *fleet) refused() (int64, error) {
	var n int64
	for _, s := range f.servers {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var snap metrics.Snapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			return 0, fmt.Errorf("decoding /metrics: %w", err)
		}
		n += snap.Requests.Rejected + snap.Requests.Draining + snap.Cells.Timeouts +
			snap.Overload.QuotaRejected + snap.Overload.DeadlineShed + snap.Overload.BrownoutRejected
	}
	return n, nil
}
