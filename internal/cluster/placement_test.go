package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"espsim/internal/serve"
	"espsim/internal/workload"
)

// TestPlacementAffinity pins the rendezvous-hash properties the
// cluster plane relies on: determinism (every coordinator computes
// the same owner), membership (the owner is a fleet member), spread
// (the suite does not all land on one node), and minimal disruption
// (removing a worker only moves the shards it owned).
func TestPlacementAffinity(t *testing.T) {
	fleet := []string{"w0", "w1", "w2"}
	var apps []string
	for _, p := range workload.Suite() {
		apps = append(apps, p.Name)
	}
	if len(apps) < 4 {
		t.Fatalf("suite has %d apps; placement spread needs a few", len(apps))
	}

	owners := make(map[string]string, len(apps))
	used := make(map[string]bool)
	for _, app := range apps {
		owner := Place(app, fleet)
		if owner != Place(app, fleet) {
			t.Fatalf("app %s: placement is not deterministic", app)
		}
		found := false
		for _, w := range fleet {
			if w == owner {
				found = true
			}
		}
		if !found {
			t.Fatalf("app %s placed on %q, not a fleet member", app, owner)
		}
		owners[app] = owner
		used[owner] = true
	}
	if len(used) < 2 {
		t.Fatalf("all %d apps landed on one worker; rendezvous spread is broken", len(apps))
	}

	// Worker order must not matter (no shared state, no config order
	// dependence between coordinator replicas).
	for _, app := range apps {
		if got := Place(app, []string{"w2", "w0", "w1"}); got != owners[app] {
			t.Errorf("app %s: owner %q under reordered fleet, want %q", app, got, owners[app])
		}
	}

	// Removing w1: every app w1 did not own keeps its owner.
	survivors := []string{"w0", "w2"}
	for _, app := range apps {
		moved := Place(app, survivors)
		if owners[app] != "w1" && moved != owners[app] {
			t.Errorf("app %s: owner moved %q -> %q though its worker survived", app, owners[app], moved)
		}
		if owners[app] == "w1" && moved == "w1" {
			t.Errorf("app %s: still placed on the removed worker", app)
		}
	}
}

// stubWorker answers every shard at once with result-less cells, and
// counts the shards it was sent.
type stubWorker struct {
	name   string
	shards atomic.Int64
}

func (s *stubWorker) Name() string { return s.name }

func (s *stubWorker) Sweep(_ context.Context, req serve.SweepRequest) (serve.SweepResponse, error) {
	s.shards.Add(1)
	var resp serve.SweepResponse
	for _, cfg := range req.Configs {
		resp.Cells = append(resp.Cells, serve.SweepCell{App: req.Shard, Config: cfg})
	}
	return resp, nil
}

func stubCoordinator(t *testing.T, names []string, logger *slog.Logger) *Coordinator {
	t.Helper()
	var workers []Worker
	for _, name := range names {
		workers = append(workers, &stubWorker{name: name})
	}
	c, err := New(Options{Workers: workers, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAssignBoundedLoad checks the bounded-load placement on random
// grids, fleets and size knobs: the owners ignore the order of the
// request's apps and of the fleet's workers, no worker's load exceeds
// the fleet mean plus the largest shard, and an app leaves its
// rendezvous owner only when that owner would pass the mean with it.
func TestAssignBoundedLoad(t *testing.T) {
	var pool []string
	for _, p := range append(workload.Suite(), workload.MobileSuite()...) {
		pool = append(pool, p.Name)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		var fleet []string
		for _, i := range rng.Perm(6)[:1+rng.Intn(5)] {
			fleet = append(fleet, fmt.Sprintf("w%d", i))
		}
		apps := append([]string(nil), pool...)
		rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
		apps = apps[:1+rng.Intn(len(apps))]
		req := serve.SweepRequest{
			Scale:     []float64{0, 0.5, 1, 3}[rng.Intn(4)],
			MaxEvents: []int{0, 1, 40, 100}[rng.Intn(4)],
		}
		label := fmt.Sprintf("trial %d: fleet %v apps %v scale %g max_events %d",
			trial, fleet, apps, req.Scale, req.MaxEvents)

		owners, err := stubCoordinator(t, fleet, quietLogger()).place(apps, req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		rApps := append([]string(nil), apps...)
		rng.Shuffle(len(rApps), func(i, j int) { rApps[i], rApps[j] = rApps[j], rApps[i] })
		rFleet := append([]string(nil), fleet...)
		rng.Shuffle(len(rFleet), func(i, j int) { rFleet[i], rFleet[j] = rFleet[j], rFleet[i] })
		again, err := stubCoordinator(t, rFleet, quietLogger()).place(rApps, req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !reflect.DeepEqual(owners, again) {
			t.Fatalf("%s: owners %v change to %v when apps and workers are reordered", label, owners, again)
		}

		n := int64(len(fleet))
		var total, largest int64
		cost := map[string]int64{}
		load := map[string]int64{}
		for _, app := range apps {
			c, err := shardCost(app, req)
			if err != nil {
				t.Fatal(err)
			}
			cost[app] = c
			total += c
			load[owners[app]] += c
			largest = max(largest, c)
		}
		for _, app := range apps {
			w := owners[app]
			if !slices.Contains(fleet, w) {
				t.Fatalf("%s: %s placed on %q, not a fleet member", label, app, w)
			}
			if head := Place(app, fleet); w != head && (load[head]+cost[app])*n <= total {
				t.Errorf("%s: %s moved off its rendezvous owner %s (load %d + %d within the mean %d/%d) to %s",
					label, app, head, load[head], cost[app], total, n, w)
			}
		}
		for _, w := range fleet {
			if load[w]*n > total+largest*n {
				t.Errorf("%s: %s carries %d, past the mean %d/%d plus the largest shard %d",
					label, w, load[w], total, n, largest)
			}
		}
	}
}

// TestAssignSingleAppKeepsOwner: a one-app sweep has nothing to balance
// against, so it lands on the app's rendezvous owner.
func TestAssignSingleAppKeepsOwner(t *testing.T) {
	for _, fleet := range [][]string{{"w0"}, {"w0", "w1"}, {"w0", "w1", "w2"}, {"a", "b", "c", "d", "e"}} {
		c := stubCoordinator(t, fleet, quietLogger())
		for _, p := range append(workload.Suite(), workload.MobileSuite()...) {
			owners, err := c.place([]string{p.Name}, serve.SweepRequest{})
			if err != nil {
				t.Fatal(err)
			}
			if want := Place(p.Name, fleet); owners[p.Name] != want {
				t.Errorf("fleet %v: one-app sweep of %s placed on %s, want its rendezvous owner %s", fleet, p.Name, owners[p.Name], want)
			}
		}
	}
}

// TestAssignFig9Balance: the Fig 9 suite over the benchmark's two
// workers leaves the heavier side within 5% of the mean by the cost
// estimate, where plain rendezvous put about two thirds on one worker.
func TestAssignFig9Balance(t *testing.T) {
	fleet := []string{"w0", "w1"}
	suite := suiteApps()
	req := serve.SweepRequest{}
	owners, err := stubCoordinator(t, fleet, quietLogger()).place(suite, req)
	if err != nil {
		t.Fatal(err)
	}
	load := map[string]int64{}
	var total int64
	for _, app := range suite {
		c, err := shardCost(app, req)
		if err != nil {
			t.Fatal(err)
		}
		load[owners[app]] += c
		total += c
	}
	heavier := max(load["w0"], load["w1"])
	t.Logf("owners %v, loads %v, heavier side %.3f of the mean", owners, load, float64(heavier)*2/float64(total))
	if heavier*2*100 > total*105 {
		t.Errorf("heavier worker carries %d of %d instructions, more than 5%% over the mean", heavier, total)
	}
}

// TestWorkersReportsSweepOwners: GET /workers reports the owners a
// default full-suite sweep places its shards on.
func TestWorkersReportsSweepOwners(t *testing.T) {
	// slog's handler serializes its writes, and Run joins its worker
	// goroutines before it returns, so the buffer needs no lock.
	var logs bytes.Buffer
	c := stubCoordinator(t, []string{"w0", "w1"}, slog.New(slog.NewJSONHandler(&logs, nil)))
	if _, err := c.Run(context.Background(), serve.SweepRequest{Configs: []string{"base"}}); err != nil {
		t.Fatal(err)
	}
	used := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec struct{ Msg, App, Worker string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec.Msg == "cluster placement" {
			used[rec.App] = rec.Worker
		}
	}

	rec := httptest.NewRecorder()
	NewServer(c).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/workers", nil))
	var view struct{ Placements []Placement }
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	reported := map[string]string{}
	for _, p := range view.Placements {
		reported[p.App] = p.Worker
	}
	if len(used) != len(suiteApps()) || !reflect.DeepEqual(reported, used) {
		t.Errorf("GET /workers reports %v; the sweep placed %v", reported, used)
	}
}

// TestRunRejectsDuplicateApps: a grid naming one app twice is an
// invalid request at the coordinator, for direct callers and over
// HTTP: two shards of one app would share one scoped journal, and a
// steal could run them on two workers at once.
func TestRunRejectsDuplicateApps(t *testing.T) {
	w0, w1 := &stubWorker{name: "w0"}, &stubWorker{name: "w1"}
	c, err := New(Options{Workers: []Worker{w0, w1}, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	req := serve.SweepRequest{Apps: []string{"pixlr", "amazon", "pixlr"}, Configs: []string{"base"}, SweepID: "dup"}
	_, err = c.Run(context.Background(), req)
	if !errors.Is(err, serve.ErrInvalid) || !strings.Contains(err.Error(), `"pixlr"`) {
		t.Fatalf("Run with pixlr twice: err %v, want serve.ErrInvalid naming pixlr", err)
	}

	body := `{"apps":["pixlr","pixlr"],"configs":["base"],"sweep_id":"dup"}`
	rec := httptest.NewRecorder()
	NewServer(c).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "pixlr") {
		t.Fatalf("POST /sweep with pixlr twice: status %d, want 400 naming pixlr: %s", rec.Code, rec.Body.String())
	}
	if got := w0.shards.Load() + w1.shards.Load(); got != 0 {
		t.Errorf("refused sweeps dispatched %d shards, want 0", got)
	}
}
