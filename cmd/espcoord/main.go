// Command espcoord is the sweep coordinator for a fleet of espd
// workers: it accepts the same POST /sweep as a single daemon, shards
// the grid application-by-application with affinity placement (every
// configuration of one application goes to one worker, keeping its
// workload cache and machine pools hot; rendezvous hashing with loads
// bounded by each application's size), quarantines workers whose shard
// attempts fail behind escalating circuit breakers, lets idle workers
// steal shards from stragglers, and reschedules a failed shard (each
// shard has at most one attempt in flight) under the same scoped
// sweep_id, so when the workers share a checkpoint directory the peer
// that adopts a dead worker's shard replays its completed cells
// instead of re-simulating them. A worker's /sweep answers are all
// espcoord learns of it: it neither probes workers nor reads their
// journals, and a worker that refuses a shard's journal (409) runs the
// shard again at once without one. Each shard attempt that returns
// logs "cluster shard done" with its app, worker and wall_ms.
//
// Endpoints:
//
//	POST /sweep    {"apps":[...],"configs":[...],"sweep_id":"..."}  -> merged grid
//	GET  /metrics  shards, steals, reschedules, quarantines, handoffs -> JSON
//	GET  /workers  a default full-suite sweep's app→worker owners + per-worker breaker state
//	GET  /healthz  coordinator liveness
//
// Usage:
//
//	espcoord -worker w0=http://host0:8080 -worker w1=http://host1:8080 \
//	         [-addr :8090] [-tenant name=weight[:cell_budget]]... \
//	         [-log text|json]
//
// The coordination constants are fixed: a shard may fail on 3 workers
// before its cells are reported failed, 2 consecutive failures
// quarantine a worker for 15 s (doubling per re-trip, up to 2 min; the
// one attempt it is then given re-admits it if it succeeds), and 64
// sweeps per worker are admitted at once.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"espsim/internal/cluster"
	"espsim/internal/tenantq"
)

// workerFlags collects repeated -worker name=url pairs.
type workerFlags []string

func (w *workerFlags) String() string     { return strings.Join(*w, ",") }
func (w *workerFlags) Set(v string) error { *w = append(*w, v); return nil }

// tenantFlags collects repeated -tenant name=weight[:cell_budget] specs.
type tenantFlags []string

func (t *tenantFlags) String() string     { return strings.Join(*t, ",") }
func (t *tenantFlags) Set(v string) error { *t = append(*t, v); return nil }

func main() {
	var workers workerFlags
	flag.Var(&workers, "worker", "fleet member as name=url (repeatable)")
	var (
		addr   = flag.String("addr", ":8090", "listen address")
		logFmt = flag.String("log", "text", "log format: text or json")
	)
	var tenantSpecs tenantFlags
	flag.Var(&tenantSpecs, "tenant", "tenant config as name=weight[:cell_budget] (repeatable)")
	flag.Parse()

	tenants, err := tenantq.ParseTenants(tenantSpecs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "espcoord:", err)
		os.Exit(2)
	}

	var handler slog.Handler
	switch *logFmt {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "espcoord: unknown -log format %q (text or json)\n", *logFmt)
		os.Exit(2)
	}
	log := slog.New(handler)

	if len(workers) == 0 {
		fmt.Fprintln(os.Stderr, "espcoord: at least one -worker name=url is required")
		os.Exit(2)
	}
	fleet := make([]cluster.Worker, 0, len(workers))
	for _, spec := range workers {
		name, url, ok := strings.Cut(spec, "=")
		if !ok || name == "" || url == "" {
			fmt.Fprintf(os.Stderr, "espcoord: -worker %q is not name=url\n", spec)
			os.Exit(2)
		}
		fleet = append(fleet, cluster.NewHTTPWorker(name, url, nil))
	}

	coord, err := cluster.New(cluster.Options{
		Workers: fleet,
		Tenants: tenants,
		Logger:  log,
	})
	if err != nil {
		log.Error("espcoord: assembling fleet", "err", err.Error())
		os.Exit(1)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           cluster.NewServer(coord),
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Info("espcoord listening", "addr", *addr, "workers", len(fleet))
	if err := httpSrv.ListenAndServe(); err != nil {
		log.Error("espcoord: serve", "err", err.Error())
		os.Exit(1)
	}
}
