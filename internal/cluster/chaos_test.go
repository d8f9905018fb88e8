package cluster

// TestClusterChaos is the acceptance gate for the cluster plane: a
// seeded 4×4 sweep sharded over three in-process workers that share a
// checkpoint directory, where one worker is killed mid-shard (after
// journaling two cells) and another is dead from the start. The sweep
// must complete via journal handoff — the dying worker's two durable
// cells replay on the adopting peer, the rest recompute — and the
// merged grid must be bit-identical to the single-node golden corpus,
// with the coordinator's metrics, fed by shard attempts alone,
// accounting for every quarantine, reschedule, steal, and handoff.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"espsim/internal/fault"
	"espsim/internal/serve"
	"espsim/internal/sim"
)

func TestClusterChaos(t *testing.T) {
	golden := readGoldenCorpus(t)
	dir := t.TempDir() // the fleet-shared checkpoint volume

	// Roles come from the placement. The dying worker owns amazon, the
	// first app of the grid and so the first shard it takes, and one
	// more that must be stolen; the dead worker owns cnn; the survivor
	// owns the last and adopts the rest.
	names := []string{"w0", "w1", "w2"}
	owners := placeFleet(t, names, gridRequest("chaos"))
	dyingName, deadName, survivorName := owners["amazon"], owners["cnn"], owners["facebook"]
	if owners["bing"] != dyingName || len(map[string]bool{dyingName: true, deadName: true, survivorName: true}) != 3 {
		t.Fatalf("placement %v does not give amazon's owner bing too and the other two apps one worker each", owners)
	}

	// The dying worker's third simulated cell (and every one after,
	// retries included) fails as the process "loses power", with two
	// cells already durable in the shard journal.
	var dying *LocalWorker
	var dyingRuns atomic.Int64
	dyingOpt := serve.Options{Name: dyingName, Workers: 2, CheckpointDir: dir, Logger: quietLogger()}
	dyingOpt.FaultHook = func(pt sim.FaultPoint) error {
		if pt.Op != "run" {
			return nil
		}
		if dyingRuns.Add(1) > 2 {
			dying.Kill()
			return fmt.Errorf("%w: node lost power", fault.ErrInjected)
		}
		return nil
	}
	dying = NewLocalWorker(dyingName, serve.New(dyingOpt))
	dead := newWorker(deadName, serve.Options{Workers: 2, CheckpointDir: dir})
	dead.Kill()
	survivor := newWorker(survivorName, serve.Options{Workers: 2, CheckpointDir: dir})
	fleet := map[string]Worker{dyingName: dying, deadName: dead, survivorName: survivor}

	c, err := New(Options{
		Workers: []Worker{fleet["w0"], fleet["w1"], fleet["w2"]},
		Logger:  quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := c.Run(context.Background(), gridRequest("chaos"))
	if err != nil {
		t.Fatal(err)
	}

	// Bit-identical to a single node under this failure schedule.
	assertGridParity(t, golden, resp)

	// The dying worker's journal was adopted: exactly its two durable
	// cells replayed instead of re-simulating.
	resumed := 0
	for _, cell := range resp.Cells {
		if cell.Resumed {
			resumed++
			if cell.App != "amazon" {
				t.Errorf("cell %s/%s resumed; only the dying worker's amazon shard had a journal", cell.App, cell.Config)
			}
		}
	}
	if resumed != 2 {
		t.Errorf("%d cells resumed from the handoff journal, want the 2 %s journaled before dying", resumed, dyingName)
	}

	// The coordinator's /metrics tells the whole story (served over
	// the espcoord HTTP facade, as a fleet operator would read it).
	srv := NewServer(c)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("coordinator /metrics: status %d", rec.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}

	if snap.Shards.Done != 4 || snap.Shards.Failed != 0 {
		t.Fatalf("shards done=%d failed=%d, want 4/0", snap.Shards.Done, snap.Shards.Failed)
	}
	// Exactly two nodes were quarantined, each by its own failed
	// attempts: the dying one and the dead one, each tripping its
	// breaker once.
	if snap.Quarantine.Trips != 2 {
		t.Errorf("quarantine trips %d, want exactly 2 (dying %s, dead %s)", snap.Quarantine.Trips, dyingName, deadName)
	}
	states := map[string]string{}
	for _, ws := range snap.Workers {
		states[ws.Name] = ws.Breaker
	}
	if states[dyingName] != "open" || states[deadName] != "open" || states[survivorName] != "closed" {
		t.Errorf("breaker states %v, want %s/%s open and %s closed", states, dyingName, deadName, survivorName)
	}
	// Both lost shards were rescheduled at least once, and the
	// survivor stole every shard it completed beyond its own.
	if snap.Shards.Reschedules < 2 {
		t.Errorf("reschedules %d, want >= 2 (amazon off the dying node, cnn off the dead one)", snap.Shards.Reschedules)
	}
	if snap.Shards.Steals < 3 {
		t.Errorf("steals %d, want >= 3 (%s completed the other three shards for their owners)", snap.Shards.Steals, survivorName)
	}
	if snap.Handoff.Journals != 1 {
		t.Errorf("journal handoffs %d, want exactly 1 (the dying worker's amazon journal)", snap.Handoff.Journals)
	}
	if snap.Handoff.ResumedCells != 2 {
		t.Errorf("resumed cells %d, want 2", snap.Handoff.ResumedCells)
	}
	if snap.Handoff.DigestMismatches != 0 {
		t.Errorf("digest mismatches %d, want 0 — the handoff journal described this very sweep", snap.Handoff.DigestMismatches)
	}
	// Every failed attempt met a dead worker.
	if snap.NetFaults == 0 || snap.NetFaults != snap.Shards.Reschedules {
		t.Errorf("net faults %d, want one per rescheduled attempt (%d)", snap.NetFaults, snap.Shards.Reschedules)
	}
}

// TestHandoffDigestMismatch pins the safety side of handoff: a shard
// journal whose digest describes different work (here: a different
// grid scale journaled under the same sweep_id) must not be resumed.
// The worker refuses it with 409, and the coordinator, which has no
// checkpoint directory of its own, reruns the shard journal-less on the
// same worker: no node failure, reschedule or steal.
func TestHandoffDigestMismatch(t *testing.T) {
	golden := readGoldenCorpus(t)
	dir := t.TempDir()

	// Seed a journal for bing under the scoped id, but for a sweep
	// with different result-shaping knobs (MaxEvents 8, not 48).
	seeder := newWorker("seed", serve.Options{Workers: 1, CheckpointDir: dir, Logger: quietLogger()})
	seedReq := serve.SweepRequest{
		Apps: []string{"bing"}, Configs: gridConfigs,
		SweepID: "mix.bing", Shard: "bing", MaxEvents: 8,
	}
	if _, err := seeder.Sweep(context.Background(), seedReq); err != nil {
		t.Fatalf("seeding the conflicting journal: %v", err)
	}

	// The first attempt meets the conflicting journal (espd refuses to
	// splice sweeps), and the rerun drops it.
	owner := newWorker("owner", serve.Options{Workers: 2, CheckpointDir: dir})
	steady := newWorker("steady", serve.Options{Workers: 2, CheckpointDir: dir})

	c, err := New(Options{Workers: []Worker{owner, steady}, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}

	req := serve.SweepRequest{Apps: []string{"bing"}, Configs: gridConfigs, SweepID: "mix", MaxEvents: goldenMaxEvents}
	resp, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Cells) != len(gridConfigs) {
		t.Fatalf("merged sweep has %d cells, want %d", len(resp.Cells), len(gridConfigs))
	}
	for _, cell := range resp.Cells {
		key := cell.App + "/" + cell.Config
		if cell.Result == nil {
			t.Fatalf("cell %s has no result: %q", key, cell.Error)
		}
		if cell.Resumed {
			t.Errorf("cell %s resumed from a digest-mismatched journal — spliced grids", key)
		}
		if got, want := *cell.Result, golden[key]; !jsonEqual(got, want) {
			t.Errorf("cell %s deviates from the golden corpus", key)
		}
	}
	snap := c.Metrics()
	if snap.Handoff.DigestMismatches != 1 {
		t.Errorf("digest mismatches %d, want exactly 1", snap.Handoff.DigestMismatches)
	}
	if snap.Handoff.Journals != 0 {
		t.Errorf("journal handoffs %d, want 0 — the stale journal must not be adopted", snap.Handoff.Journals)
	}
	if snap.Quarantine.Trips != 0 || snap.Shards.Reschedules != 0 || snap.Shards.Steals != 0 {
		t.Errorf("trips %d, reschedules %d, steals %d; want 0/0/0 — a refused journal is no node failure",
			snap.Quarantine.Trips, snap.Shards.Reschedules, snap.Shards.Steals)
	}
}

// TestReusedSweepIDReruns: a client that resubmits a sweep_id for
// another grid (here max_events 8, then the corpus's 48) over two
// workers sharing a checkpoint directory gets every cell of the new
// grid. Each shard's worker refuses the old journal with 409 and reruns
// the shard without it, so no worker is blamed and no shard moves. Two
// configs per app keep every attempt far below stealAfter.
func TestReusedSweepIDReruns(t *testing.T) {
	golden := readGoldenCorpus(t)
	dir := t.TempDir()
	w0 := newWorker("w0", serve.Options{Workers: 2, CheckpointDir: dir})
	w1 := newWorker("w1", serve.Options{Workers: 2, CheckpointDir: dir})
	c, err := New(Options{Workers: []Worker{w0, w1}, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}

	req := serve.SweepRequest{Apps: gridApps, Configs: []string{"base", "ESP+NL"}, SweepID: "x", MaxEvents: 8}
	if _, err := c.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	req.MaxEvents = goldenMaxEvents
	resp, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(req.Apps) * len(req.Configs); len(resp.Cells) != want {
		t.Fatalf("resubmitted sweep has %d cells, want %d", len(resp.Cells), want)
	}
	for _, cell := range resp.Cells {
		key := cell.App + "/" + cell.Config
		switch {
		case cell.Result == nil:
			t.Errorf("cell %s has no result: %q", key, cell.Error)
		case cell.Resumed:
			t.Errorf("cell %s resumed from the other grid's journal", key)
		case !jsonEqual(*cell.Result, golden[key]):
			t.Errorf("cell %s deviates from the golden corpus", key)
		}
	}

	snap := c.Metrics()
	if snap.Handoff.DigestMismatches != int64(len(gridApps)) {
		t.Errorf("digest mismatches %d, want one per shard (%d)", snap.Handoff.DigestMismatches, len(gridApps))
	}
	if snap.Quarantine.Trips != 0 || snap.Shards.Reschedules != 0 || snap.Shards.Steals != 0 || snap.Shards.Failed != 0 {
		t.Errorf("trips %d, reschedules %d, steals %d, failed shards %d; want all 0",
			snap.Quarantine.Trips, snap.Shards.Reschedules, snap.Shards.Steals, snap.Shards.Failed)
	}
}

// jsonEqual compares two values by canonical JSON (the corpus and the
// wire both round-trip through encoding/json).
func jsonEqual(a, b any) bool {
	ra, _ := json.Marshal(a)
	rb, _ := json.Marshal(b)
	return string(ra) == string(rb)
}
