package serve

// The drain/handoff contract the cluster plane builds on: a drained
// (not killed) daemon leaves its sweep journals fsync'd, closed, and
// torn-tail free even when the drain deadline abandons a wedged
// handler, so a peer sharing the checkpoint directory can resume a
// dead worker's shard, and /journalz exposes a read-only peek of any
// journal.

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"espsim/internal/checkpoint"
	"espsim/internal/sim"
)

// smallSweep submits a sweep expected to succeed with wantCells cells
// (postSweep is pinned to the full chaos grid).
func smallSweep(t *testing.T, s *Server, req SweepRequest, wantCells int) SweepResponse {
	t.Helper()
	rec := post(t, s, "/sweep", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep status %d: %s", rec.Code, rec.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding sweep response: %v", err)
	}
	if len(resp.Cells) != wantCells {
		t.Fatalf("sweep returned %d cells, want %d", len(resp.Cells), wantCells)
	}
	return resp
}

// TestDrainThenResumeJournalIntact wedges a sweep's second cell inside
// the engine, drains past the deadline (the handler is abandoned), and
// closes the server. The journal on disk must already hold the first
// cell, intact and peekable; a successor daemon must replay it and
// recompute only the wedged cell, bit-identical to the golden corpus.
func TestDrainThenResumeJournalIntact(t *testing.T) {
	dir := t.TempDir()
	golden := readGoldenCorpus(t)

	gate := make(chan struct{})
	wedged := make(chan struct{})
	var runs atomic.Int64
	hook := func(pt sim.FaultPoint) error {
		if pt.Op == "run" && runs.Add(1) == 2 {
			close(wedged)
			<-gate
		}
		return nil
	}
	s := testServer(t, Options{Workers: 1, CheckpointDir: dir, FaultHook: hook})

	req := SweepRequest{
		Apps:      []string{"amazon"},
		Configs:   []string{"base", "ESP+NL"},
		SweepID:   "drain-resume",
		Shard:     "amazon",
		MaxEvents: goldenMaxEvents,
	}
	sweepDone := make(chan SweepResponse, 1)
	go func() {
		rec := post(t, s, "/sweep", req)
		var resp SweepResponse
		if rec.Code == http.StatusOK {
			_ = json.Unmarshal(rec.Body.Bytes(), &resp)
		}
		sweepDone <- resp
	}()
	<-wedged // cell 1 journaled, cell 2 stuck inside the engine

	// The drain deadline expires with the handler still wedged; Close
	// must fsync and release the journal anyway.
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("Drain returned clean with a wedged handler")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// What a successor (or coordinator) sees on disk: a complete,
	// untorn journal holding exactly the finished cell.
	meta, records, torn, err := checkpoint.Peek(filepath.Join(dir, req.SweepID+".espj"))
	if err != nil {
		t.Fatalf("peeking the drained journal: %v", err)
	}
	if torn {
		t.Fatal("drained journal has a torn tail; Close must leave it bit-complete")
	}
	if meta.SweepID != req.SweepID || meta.Shard != req.Shard || meta.Digest != sweepDigest(req.Apps, req) {
		t.Fatalf("journal meta %+v does not describe the sweep", meta)
	}
	if len(records) != 1 {
		t.Fatalf("journal holds %d records, want exactly the pre-wedge cell", len(records))
	}

	// Release the engine: the abandoned handler finishes; its append
	// lands on a closed journal and is counted, not silently dropped,
	// and the response still carries the computed result.
	close(gate)
	resp := <-sweepDone
	if len(resp.Cells) != 2 || resp.Cells[1].Result == nil {
		t.Fatalf("wedged sweep response incomplete: %+v", resp.Cells)
	}
	if got := s.met.JournalErrors.Load(); got != 1 {
		t.Fatalf("append after Close counted %d journal errors, want 1", got)
	}

	// A successor resumes the journaled cell and recomputes the other;
	// both match the golden corpus.
	s2 := testServer(t, Options{Workers: 1, CheckpointDir: dir})
	resumed := smallSweep(t, s2, req, 2)
	for _, cell := range resumed.Cells {
		key := cell.App + "/" + cell.Config
		if cell.Result == nil || !reflect.DeepEqual(*cell.Result, golden[key]) {
			t.Errorf("cell %s: deviates from golden corpus after handoff: %+v", key, cell)
		}
	}
	if !resumed.Cells[0].Resumed || resumed.Cells[1].Resumed {
		t.Errorf("want exactly the journaled cell replayed, got resumed=%v,%v",
			resumed.Cells[0].Resumed, resumed.Cells[1].Resumed)
	}
}

// TestJournalzPeek drives the handoff endpoint: a finished sweep's
// journal is readable over HTTP with the right meta and cell keys, and
// the error paths (missing id, bad id, unknown sweep, checkpointing
// disabled) are typed statuses, not 500s.
func TestJournalzPeek(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, Options{Name: "w7", Workers: 2, CheckpointDir: dir})

	req := SweepRequest{
		Apps:      []string{"amazon"},
		Configs:   []string{"base", "ESP+NL"},
		SweepID:   "peek-me",
		Shard:     "amazon",
		MaxEvents: goldenMaxEvents,
	}
	smallSweep(t, s, req, 2)

	rec := get(t, s, "/journalz?sweep_id=peek-me")
	if rec.Code != http.StatusOK {
		t.Fatalf("journalz: status %d: %s", rec.Code, rec.Body.String())
	}
	var jz journalzResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &jz); err != nil {
		t.Fatal(err)
	}
	if jz.Meta.SweepID != "peek-me" || jz.Meta.Shard != "amazon" || jz.Meta.Digest != sweepDigest(req.Apps, req) {
		t.Fatalf("journalz meta %+v does not describe the sweep", jz.Meta)
	}
	if jz.Torn {
		t.Fatal("journalz reports a torn tail on a cleanly closed journal")
	}
	want := map[string]bool{"amazon/base": true, "amazon/ESP+NL": true}
	if len(jz.Cells) != len(want) {
		t.Fatalf("journalz cells %v, want both grid cells", jz.Cells)
	}
	for _, c := range jz.Cells {
		if !want[c] {
			t.Fatalf("journalz yielded unknown cell %q", c)
		}
	}

	for path, wantCode := range map[string]int{
		"/journalz":                   http.StatusBadRequest, // no sweep_id
		"/journalz?sweep_id=a/b":      http.StatusBadRequest, // path separator
		"/journalz?sweep_id=no-sweep": http.StatusNotFound,
	} {
		if rec := get(t, s, path); rec.Code != wantCode {
			t.Errorf("GET %s: status %d, want %d", path, rec.Code, wantCode)
		}
	}
	noCkpt := testServer(t, Options{Workers: 1})
	if rec := get(t, noCkpt, "/journalz?sweep_id=peek-me"); rec.Code != http.StatusNotFound {
		t.Errorf("journalz without checkpointing: status %d, want 404", rec.Code)
	}

	snap := metricsSnapshot(t, s)
	if snap.Node != "w7" {
		t.Errorf("metrics node %q, want the -name label", snap.Node)
	}
	if snap.Requests.Shard != 1 {
		t.Errorf("shard-labeled sweeps counted %d, want 1", snap.Requests.Shard)
	}
	if snap.Requests.JournalPeeks < 1 {
		t.Error("journal peeks not counted")
	}
}

// TestResumeDigestsSched: the dispatch policy shapes results, so a
// sweep_id journaled under one policy is not resumed under another
// (409). FIFO stays out of the digest: a journal written with no
// "sched" resumes under "fifo", and keeps the digest it had before the
// policy was digested.
func TestResumeDigestsSched(t *testing.T) {
	s := testServer(t, Options{Workers: 1, CheckpointDir: t.TempDir()})
	req := SweepRequest{SweepID: "x", Apps: []string{"mobileheavy"}, Configs: []string{"ESP+NL"}, MaxEvents: 24}
	if got, want := sweepDigest(req.Apps, req), "722a193e1b6279f9ff0203a3ca25712241c078bbdfcf3feee8aca733eb933482"; got != want {
		t.Fatalf("FIFO digest %s, want the pre-policy digest %s", got, want)
	}
	first := smallSweep(t, s, req, 1)

	fifo := req
	fifo.Sched = "fifo"
	again := smallSweep(t, s, fifo, 1)
	if !again.Cells[0].Resumed || !reflect.DeepEqual(again.Cells[0].Result, first.Cells[0].Result) {
		t.Fatalf("\"fifo\" resubmission: %+v, want the journaled cell resumed", again.Cells[0])
	}

	prio := req
	prio.Sched = "prio"
	if rec := post(t, s, "/sweep", prio); rec.Code != http.StatusConflict {
		t.Fatalf("\"prio\" resubmission of a FIFO journal: status %d, want 409: %s", rec.Code, rec.Body.String())
	}
}

// TestUnresumableJournalConflicts: espd answers every journal it will
// not resume with 409, the status on which a coordinator reruns the
// shard without one: bad magic and a damaged header frame
// (checkpoint.ErrCorrupt) as well as a header that does not decode. The
// file is left as it was.
func TestUnresumableJournalConflicts(t *testing.T) {
	req := SweepRequest{SweepID: "bad", Apps: []string{"amazon"}, Configs: []string{"base"}, MaxEvents: 8}
	for _, tc := range []struct {
		name  string
		write func(path string) error
	}{
		{"bad magic", func(path string) error {
			return os.WriteFile(path, []byte("NOTAJRNLxxxxxxxx"), 0o644)
		}},
		{"damaged header frame", func(path string) error {
			return os.WriteFile(path, append([]byte("ESPJRNL1"), 0x09, 0, 0, 0, 0, 0, 0, 0, 'p'), 0o644)
		}},
		{"unreadable header", func(path string) error {
			j, _, _, err := checkpoint.Open(path, []byte("not a header"))
			if err != nil {
				return err
			}
			return j.Close()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, req.SweepID+".espj")
			if err := tc.write(path); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s := testServer(t, Options{Workers: 1, CheckpointDir: dir})
			if rec := post(t, s, "/sweep", req); rec.Code != http.StatusConflict {
				t.Fatalf("status %d, want 409: %s", rec.Code, rec.Body.String())
			}
			if after, err := os.ReadFile(path); err != nil || string(after) != string(before) {
				t.Fatalf("refused journal changed: %q -> %q (%v)", before, after, err)
			}
		})
	}
}
