// Command espd is the ESP simulation daemon: the paper's evaluation
// grid served over HTTP. It executes (application, configuration)
// cells on a bounded pool of pooled-machine workers with an LRU
// workload cache, so concurrent requests for the same application share
// one materialized arena, and degrades gracefully under load (429 past
// the queue bound, panic isolation, per-cell retries with a circuit
// breaker, crash-safe sweep checkpoints, SIGTERM drain). A cell stops at
// its next event once its timeout passes (504) or its client leaves
// (499), and its machine serves the next cell. -mem-budget bounds the
// bytes of live workloads, cached or held by a running cell; a cell
// whose workload does not fit, even with every idle cached one
// evicted, is refused (503).
//
// Endpoints:
//
//	POST /run      {"app":"amazon","config":"ESP+NL"}           -> one Result
//	POST /sweep    {"apps":[...],"configs":[...]}               -> a grid, batched by workload
//	GET  /journalz ?sweep_id=ID                                 -> operator peek at a sweep journal
//	GET  /metrics  cells, cache hits, retries, breakers, ...    -> JSON
//	GET  /healthz  liveness (always 200 while the process serves)
//	GET  /readyz   readiness (503 while draining or mostly quarantined)
//
// Usage:
//
//	espd [-name espd] [-addr :8080] [-workers N] [-log text|json]
//	     [-checkpoint-dir DIR] [-mem-budget BYTES]
//	     [-tenant name=weight[:cell_budget]]...
//
// The serving constants are fixed: 64 queued requests beyond the
// running ones, 32 cached workloads, a 2-minute cell timeout, 3
// attempts per sweep cell, and a cell breaker that opens after 5
// consecutive failures for 30 s.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"espsim/internal/serve"
	"espsim/internal/tenantq"
)

// tenantFlags collects repeated -tenant name=weight[:cell_budget] specs.
type tenantFlags []string

func (t *tenantFlags) String() string     { return strings.Join(*t, ",") }
func (t *tenantFlags) Set(v string) error { *t = append(*t, v); return nil }

func main() {
	var (
		name          = flag.String("name", "espd", "node name reported in logs and /metrics (espcoord fleet label)")
		addr          = flag.String("addr", ":8080", "listen address")
		workers       = flag.Int("workers", 0, "concurrent simulation workers (0: NumCPU)")
		logFmt        = flag.String("log", "text", "log format: text or json")
		checkpointDir = flag.String("checkpoint-dir", "", "directory for crash-safe sweep journals (empty: disabled)")
		memBudget     = flag.Int64("mem-budget", 0, "byte budget over live workloads, cached or running; a cell that does not fit is refused with 503 (0: none)")
	)
	var tenantSpecs tenantFlags
	flag.Var(&tenantSpecs, "tenant", "tenant config as name=weight[:cell_budget] (repeatable)")
	flag.Parse()

	tenants, err := tenantq.ParseTenants(tenantSpecs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "espd:", err)
		os.Exit(2)
	}

	var handler slog.Handler
	switch *logFmt {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "espd: unknown -log format %q (text or json)\n", *logFmt)
		os.Exit(2)
	}
	log := slog.New(handler)

	if *checkpointDir != "" {
		if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
			log.Error("espd: checkpoint dir", "err", err.Error())
			os.Exit(1)
		}
	}

	srv := serve.New(serve.Options{
		Name:          *name,
		Workers:       *workers,
		Logger:        log,
		CheckpointDir: *checkpointDir,
		Tenants:       tenants,
		MemBudget:     *memBudget,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// SIGTERM/SIGINT: stop accepting connections, then drain in-flight
	// simulations, bounded so a wedged cell cannot hold shutdown hostage.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		log.Info("espd listening", "addr", *addr, "workers", *workers, "checkpoint_dir", *checkpointDir,
			"mem_budget", *memBudget)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("espd: serve", "err", err.Error())
			os.Exit(1)
		}
	case <-ctx.Done():
		log.Info("espd: signal received, draining")
		// Readiness goes red first, so a load balancer stops routing
		// while Shutdown still serves the connections it already has;
		// then wait for in-flight simulations.
		srv.BeginDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Error("espd: shutdown", "err", err.Error())
		}
		drainErr := srv.Drain(shutdownCtx)
		// Close after the drain either finished or timed out: any sweep
		// journal a handler did not release is fsync'd and closed here,
		// so the files on disk end bit-complete — the whole point of a
		// drain over a kill for a daemon that checkpoints.
		if err := srv.Close(); err != nil {
			log.Error("espd: close", "err", err.Error())
		}
		if drainErr != nil {
			log.Error("espd: drain", "err", drainErr.Error())
			os.Exit(1)
		}
		log.Info("espd: drained cleanly")
	}
}
