// Command espd is the ESP simulation daemon: the paper's evaluation
// grid served over HTTP. It executes (application, configuration)
// cells on a bounded pool of pooled-machine workers with an LRU
// workload cache, so concurrent requests for the same application share
// one materialized arena, and degrades gracefully under load (429 past
// the queue bound, panic isolation, per-cell retries with a circuit
// breaker, crash-safe sweep checkpoints, SIGTERM drain). A cell stops at
// its next event once its timeout passes (504) or its client leaves
// (499), and its machine serves the next cell.
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
//	espd [-name espd] [-addr :8080] [-workers N] [-queue 64] [-cache 32]
//	     [-timeout 2m] [-log text|json] [-checkpoint-dir DIR]
//	     [-retries 3] [-breaker-threshold 5] [-breaker-cooldown 30s]
//	     [-tenant name=weight[:cell_budget]]... [-tenant-quantum 8]
//	     [-max-tenants 256] [-mem-budget BYTES] [-small-grid-max 4096]
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

	"espsim/internal/fault"
	"espsim/internal/serve"
	"espsim/internal/tenantq"
)

// tenantFlags collects repeated -tenant name=weight[:cell_budget] specs.
type tenantFlags []string

func (t *tenantFlags) String() string     { return strings.Join(*t, ",") }
func (t *tenantFlags) Set(v string) error { *t = append(*t, v); return nil }

func main() {
	var (
		name    = flag.String("name", "espd", "node name reported in logs and /metrics (espcoord fleet label)")
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 0, "concurrent simulation workers (0: NumCPU)")
		queue   = flag.Int("queue", 64, "queued requests beyond the running ones before 429")
		cache   = flag.Int("cache", 32, "LRU workload-cache capacity (materialized arenas)")
		timeout = flag.Duration("timeout", 2*time.Minute, "default per-cell simulation timeout")
		logFmt  = flag.String("log", "text", "log format: text or json")

		checkpointDir = flag.String("checkpoint-dir", "", "directory for crash-safe sweep journals (empty: disabled)")
		retries       = flag.Int("retries", 3, "attempts per sweep cell before reporting its error")
		breakerThresh = flag.Int("breaker-threshold", 5, "consecutive failures that quarantine a cell (negative: disabled)")
		breakerCool   = flag.Duration("breaker-cooldown", 30*time.Second, "quarantine time before a probe attempt")

		memBudget     = flag.Int64("mem-budget", 0, "workload-cache byte budget driving brownout degradation (0: disabled)")
		tenantQuantum = flag.Float64("tenant-quantum", 0, "DRR round size in cells per unit tenant weight (0: default 8)")
		maxTenants    = flag.Int("max-tenants", 0, "distinct tenant ids tracked before new ones are rejected (0: default 256)")
		smallGridMax  = flag.Int("small-grid-max", 0, "cells×max_events still admitted in the deepest brownout (0: default 4096)")
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
		Name:             *name,
		Workers:          *workers,
		QueueDepth:       *queue,
		WorkloadCap:      *cache,
		DefaultTimeout:   *timeout,
		Logger:           log,
		Retry:            fault.RetryPolicy{MaxAttempts: *retries},
		BreakerThreshold: *breakerThresh,
		BreakerCooldown:  *breakerCool,
		CheckpointDir:    *checkpointDir,
		Tenants:          tenants,
		TenantQuantum:    *tenantQuantum,
		MaxTenants:       *maxTenants,
		MemBudget:        *memBudget,
		SmallGridMax:     *smallGridMax,
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
		log.Info("espd listening", "addr", *addr, "workers", *workers, "queue", *queue,
			"cache", *cache, "checkpoint_dir", *checkpointDir)
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
