package cluster

// HTTPWorker is the only Worker the espcoord binary builds: these tests
// run it against real espd handlers behind loopback HTTP servers.

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"

	"espsim/internal/fault"
	"espsim/internal/serve"
	"espsim/internal/sim"
)

// httpWorker serves a fresh espd behind a loopback HTTP server and
// returns both ends; the server closes with the test.
func httpWorker(t *testing.T, name string) (*serve.Server, *httptest.Server, *HTTPWorker) {
	t.Helper()
	srv := serve.New(serve.Options{Name: name, Workers: 2, Logger: quietLogger()})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, NewHTTPWorker(name, ts.URL+"/", nil)
}

func runFleet(t *testing.T, workers []Worker, req serve.SweepRequest) (serve.SweepResponse, Snapshot) {
	t.Helper()
	c, err := New(Options{Workers: workers, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, c.Metrics()
}

// TestHTTPWorkerFleetMatchesLocal: a coordinator over two HTTPWorkers
// returns the same cells as the same fleet over LocalWorkers.
func TestHTTPWorkerFleetMatchesLocal(t *testing.T) {
	req := serve.SweepRequest{Apps: gridApps, Configs: []string{"base", "ESP+NL"}, MaxEvents: goldenMaxEvents}
	_, _, h0 := httpWorker(t, "w0")
	_, _, h1 := httpWorker(t, "w1")
	got, snap := runFleet(t, []Worker{h0, h1}, req)
	want, _ := runFleet(t, []Worker{
		newWorker("w0", serve.Options{Workers: 2}),
		newWorker("w1", serve.Options{Workers: 2}),
	}, req)

	if len(got.Cells) != len(gridApps)*len(req.Configs) {
		t.Fatalf("HTTP fleet answered %d cells, want %d", len(got.Cells), len(gridApps)*len(req.Configs))
	}
	for _, cell := range got.Cells {
		if cell.Result == nil {
			t.Fatalf("cell %s/%s has no result: %s (%s)", cell.App, cell.Config, cell.Error, cell.ErrorKind)
		}
	}
	if !reflect.DeepEqual(got.Cells, want.Cells) {
		t.Fatal("HTTPWorker fleet cells deviate from the same fleet over LocalWorkers")
	}
	if snap.Shards.Done != int64(len(gridApps)) || snap.Shards.Failed != 0 || snap.NetFaults != 0 {
		t.Fatalf("shards done %d failed %d net faults %d, want %d/0/0",
			snap.Shards.Done, snap.Shards.Failed, snap.NetFaults, len(gridApps))
	}
}

// TestHTTPWorkerProbeAndDown: a Sweep to a closed daemon fails with
// ErrWorkerDown, classified net. (A draining one answers 503; see
// TestDrainingWorkerRoutedAround.)
func TestHTTPWorkerProbeAndDown(t *testing.T) {
	_, ts, hw := httpWorker(t, "w0")
	ts.Close()
	req := serve.SweepRequest{Apps: []string{"amazon"}, Configs: []string{"base"}, MaxEvents: goldenMaxEvents}
	_, err := hw.Sweep(context.Background(), req)
	if !errors.Is(err, ErrWorkerDown) {
		t.Errorf("Sweep on a closed server: %v, want ErrWorkerDown", err)
	}
	if k := fault.Classify(err); k != fault.KindNet {
		t.Errorf("Sweep on a closed server classifies as %q, want %q", k, fault.KindNet)
	}
}

// TestHTTPWorkerShedBodyMerges: a worker's 504 whose body holds every
// cell of the shard is a deadline shed to merge, not a failed shard.
func TestHTTPWorkerShedBodyMerges(t *testing.T) {
	_, _, h0 := httpWorker(t, "w0")
	_, _, h1 := httpWorker(t, "w1")
	req := serve.SweepRequest{Apps: gridApps, Configs: gridConfigs, MaxEvents: goldenMaxEvents, DeadlineMs: -1}
	resp, snap := runFleet(t, []Worker{h0, h1}, req)

	cells := len(gridApps) * len(gridConfigs)
	if len(resp.Cells) != cells {
		t.Fatalf("shed sweep answered %d cells, want %d", len(resp.Cells), cells)
	}
	for _, cell := range resp.Cells {
		if cell.ErrorKind != string(fault.KindShed) || cell.Result != nil {
			t.Fatalf("cell %s/%s: kind %q result %v, want a shed cell", cell.App, cell.Config, cell.ErrorKind, cell.Result != nil)
		}
	}
	if snap.Shards.Failed != 0 || snap.Shards.Reschedules != 0 {
		t.Fatalf("shed shards counted as failures: failed %d, reschedules %d", snap.Shards.Failed, snap.Shards.Reschedules)
	}
	if snap.Overload.CellsShed != int64(cells) {
		t.Fatalf("cells_shed %d, want %d", snap.Overload.CellsShed, cells)
	}
}

// TestNetFaultsCountDeadWorkers: net_faults counts every shard attempt
// lost to a dead worker, whichever kind of worker it was: a killed
// LocalWorker and an HTTPWorker whose server is gone both fail with
// ErrWorkerDown, and the healthy worker completes the grid.
func TestNetFaultsCountDeadWorkers(t *testing.T) {
	golden := readGoldenCorpus(t)
	healthy := newWorker("w1", serve.Options{Workers: 2})
	killed := newWorker("w0", serve.Options{Workers: 2})
	killed.Kill()
	_, ts, closed := httpWorker(t, "w2")
	ts.Close()

	resp, snap := runFleet(t, []Worker{killed, healthy, closed}, gridRequest(""))
	assertGridParity(t, golden, resp)
	if snap.Shards.Reschedules == 0 {
		t.Fatal("no shard was rescheduled off the dead workers")
	}
	if snap.NetFaults != snap.Shards.Reschedules+snap.Shards.Failed {
		t.Errorf("net_faults %d, want one per failed attempt (%d rescheduled, %d failed)",
			snap.NetFaults, snap.Shards.Reschedules, snap.Shards.Failed)
	}
}

// TestCanceledSweepIsNoNodeFailure: a client that cancels its sweep
// while every worker has a shard in flight leaves the fleet as it was.
// A canceled HTTPWorker attempt fails with ErrWorkerDown and a canceled
// LocalWorker attempt answers canceled cells; either way the
// coordinator discards it, so two canceled sweeps record no breaker
// outcome, net fault, reschedule or finished shard.
func TestCanceledSweepIsNoNodeFailure(t *testing.T) {
	names := []string{"w0", "w1"}
	owned := map[string]bool{}
	for _, w := range placeFleet(t, names, gridRequest("")) {
		owned[w] = true
	}
	if len(owned) != len(names) {
		t.Fatalf("placement gives shards to %d of %d workers, want every worker a shard", len(owned), len(names))
	}
	fleets := map[string]func(name string, opt serve.Options) Worker{
		"local": func(name string, opt serve.Options) Worker { return newWorker(name, opt) },
		"http": func(name string, opt serve.Options) Worker {
			opt.Name = name
			opt.Logger = quietLogger()
			ts := httptest.NewServer(serve.New(opt))
			t.Cleanup(ts.Close)
			return NewHTTPWorker(name, ts.URL, nil)
		},
	}
	for kind, mkWorker := range fleets {
		t.Run(kind, func(t *testing.T) {
			// Each worker runs one cell of each sweep, which stalls until
			// the client's cancellation reaches it.
			const sweeps = 2
			running := make(chan struct{}, sweeps*len(names))
			opt := serve.Options{Workers: 1, FaultHook: func(pt sim.FaultPoint) error {
				if pt.Op == "run" {
					running <- struct{}{}
					<-pt.Done
				}
				return nil
			}}
			var workers []Worker
			for _, name := range names {
				workers = append(workers, mkWorker(name, opt))
			}
			c, err := New(Options{Workers: workers, Logger: quietLogger()})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < sweeps; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					for range names {
						<-running
					}
					cancel()
				}()
				if _, err := c.Run(ctx, gridRequest("")); !errors.Is(err, context.Canceled) {
					t.Fatalf("sweep %d: %v, want context.Canceled", i, err)
				}
			}
			snap := c.Metrics()
			if snap.NetFaults != 0 || snap.Shards.Reschedules != 0 || snap.Shards.Done != 0 || snap.Shards.Failed != 0 {
				t.Errorf("canceled sweeps counted net faults %d, reschedules %d, shards done %d, failed %d; want all 0",
					snap.NetFaults, snap.Shards.Reschedules, snap.Shards.Done, snap.Shards.Failed)
			}
			for _, ws := range snap.Workers {
				if ws.Breaker != "closed" {
					t.Errorf("worker %s breaker %s after canceled sweeps, want closed", ws.Name, ws.Breaker)
				}
			}
			if snap.Quarantine.Trips != 0 {
				t.Errorf("canceled sweeps tripped %d breakers", snap.Quarantine.Trips)
			}
		})
	}
}
