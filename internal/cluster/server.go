package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"

	"espsim/internal/fault"
	"espsim/internal/serve"
)

// Server is the espcoord HTTP facade: the same POST /sweep contract a
// single espd serves, answered by the whole fleet.
//
//	POST /sweep    sharded across workers, merged app-major
//	GET  /metrics  scheduling/quarantine/handoff counters + per-worker breaker state
//	GET  /workers  the app→worker owners a default full-suite sweep uses
//	GET  /healthz  coordinator liveness
type Server struct {
	c   *Coordinator
	log *slog.Logger
	mux *http.ServeMux
}

// NewServer mounts a Coordinator behind HTTP.
func NewServer(c *Coordinator) *Server {
	s := &Server{c: c, log: c.log, mux: http.NewServeMux()}
	s.mux.HandleFunc("/sweep", s.handleSweep)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/workers", s.handleWorkers)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler with the same panic isolation as
// espd: a handler panic answers 500, not a dropped connection.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			s.log.Error("coordinator handler panic", "path", r.URL.Path, "panic", fmt.Sprint(p))
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "internal error"})
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// handleSweep answers with espd's own statuses: serve.HTTPStatus maps
// whatever kind of error the sweep failed with.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST only"})
		return
	}
	resp, err := s.sweep(w, r)
	if err != nil {
		writeJSON(w, serve.HTTPStatus(fault.Classify(err)), map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// sweep decodes a client sweep with espd's parser and tenant rules —
// one validation, one tenant identity whether the body or the
// X-ESP-Tenant header names it — and runs it on the fleet.
func (s *Server) sweep(w http.ResponseWriter, r *http.Request) (serve.SweepResponse, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxRequestBytes))
	if err != nil {
		return serve.SweepResponse{}, fmt.Errorf("%w: reading request body: %v", serve.ErrInvalid, err)
	}
	req, err := serve.ParseSweepRequest(body)
	if err != nil {
		return serve.SweepResponse{}, err
	}
	if req.Shard != "" {
		return serve.SweepResponse{}, fmt.Errorf("%w: \"shard\" is set by the coordinator, not the client", serve.ErrInvalid)
	}
	if req.Tenant, err = serve.ResolveTenant(req.Tenant, r.Header.Get(serve.TenantHeader)); err != nil {
		return serve.SweepResponse{}, err
	}
	return s.c.Run(r.Context(), req)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, s.c.Metrics())
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Placements []Placement   `json:"placements"`
		Workers    []WorkerState `json:"workers"`
	}{s.c.Placements(), s.c.Metrics().Workers})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
