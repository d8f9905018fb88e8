package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"

	esp "espsim"
	"espsim/internal/checkpoint"
)

// The journal header is a checkpoint.Meta: sweep identity, optional
// shard label, and a digest pinning every request knob that influences
// results; a journal whose digest does not match the resubmitted
// request must not be resumed from — it would splice cells from a
// different grid into this one.

// journalRecord is one completed cell, as journaled. Results travel as
// JSON exactly like the wire responses, so a resumed cell is
// bit-identical to the one originally returned (float64 round-trips
// exactly).
type journalRecord struct {
	App    string     `json:"app"`
	Config string     `json:"config"`
	Result esp.Result `json:"result"`
}

// sweepDigest hashes the result-shaping parameters of a sweep request.
// TimeoutMs, SweepID, and Shard are deliberately excluded: they change
// whether (or where) cells run, never what a finished cell contains.
// The dispatch policy "sched" resolves to is digested unless it is
// FIFO, so journals whose digest carries no policy still resume under
// no "sched" or "fifo".
func sweepDigest(apps []string, req SweepRequest) string {
	var sched string
	if p, _ := esp.SchedByName(req.Sched); p != esp.SchedFIFO {
		sched = p.String()
	}
	canonical, _ := json.Marshal(struct {
		Apps       []string `json:"apps"`
		Configs    []string `json:"configs"`
		Scale      float64  `json:"scale"`
		MaxEvents  int      `json:"max_events"`
		MaxPending int      `json:"max_pending"`
		Sched      string   `json:"sched,omitempty"`
	}{apps, req.Configs, req.Scale, req.MaxEvents, req.MaxPending, sched})
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}

// errSweepConflict marks a sweep ID whose journal this request may not
// resume — written for a different grid, corrupt, or already running;
// the handler maps it to 409, and a coordinator reruns the shard
// without a journal.
var errSweepConflict = errors.New("sweep conflict")

// sweepJournal is the per-sweep checkpoint: a serialized append handle
// plus the cells replayed at open.
type sweepJournal struct {
	mu   sync.Mutex
	j    *checkpoint.Journal
	done map[string]*esp.Result // "app/config" -> replayed result
}

// openSweepJournal opens (or creates) the journal for req under dir and
// replays completed cells. A journal it will not resume is an
// errSweepConflict: a header digest mismatch, an unreadable header, or
// a corrupt file (bad magic, damaged header frame). A record that fails
// to decode is skipped (the cell simply re-runs), because a journaled
// record is advisory — the simulator can always recompute it.
func openSweepJournal(dir string, apps []string, req SweepRequest, log *slog.Logger) (*sweepJournal, error) {
	want := checkpoint.Meta{Version: 1, SweepID: req.SweepID, Shard: req.Shard, Digest: sweepDigest(apps, req)}
	path := filepath.Join(dir, req.SweepID+".espj")
	j, storedHeader, records, err := checkpoint.Open(path, want.Encode())
	if errors.Is(err, checkpoint.ErrCorrupt) {
		return nil, fmt.Errorf("%w: %w", errSweepConflict, err)
	}
	if err != nil {
		return nil, err
	}
	stored, derr := checkpoint.DecodeMeta(storedHeader)
	if derr != nil || stored.Version != 1 {
		j.Close()
		return nil, fmt.Errorf("%w: journal %s has an unreadable header", errSweepConflict, path)
	}
	if stored.Digest != want.Digest || stored.SweepID != want.SweepID || stored.Shard != want.Shard {
		j.Close()
		return nil, fmt.Errorf("%w: sweep_id %q was journaled for a different grid (digest %s shard %q, this request %s shard %q)",
			errSweepConflict, req.SweepID, stored.Digest, stored.Shard, want.Digest, want.Shard)
	}

	done := make(map[string]*esp.Result, len(records))
	for i, raw := range records {
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			log.Warn("sweep journal: skipping undecodable record", "sweep_id", req.SweepID, "record", i, "err", err.Error())
			continue
		}
		res := rec.Result
		done[rec.App+"/"+rec.Config] = &res
	}
	return &sweepJournal{j: j, done: done}, nil
}

// resumed returns the journaled result for a cell, if any.
func (sj *sweepJournal) resumed(app, config string) *esp.Result {
	if sj == nil {
		return nil
	}
	sj.mu.Lock()
	defer sj.mu.Unlock()
	return sj.done[app+"/"+config]
}

// append journals one completed cell, serialized across the sweep's
// concurrent app batches.
func (sj *sweepJournal) append(app, config string, res esp.Result) error {
	if sj == nil {
		return nil
	}
	raw, err := json.Marshal(journalRecord{App: app, Config: config, Result: res})
	if err != nil {
		return err
	}
	sj.mu.Lock()
	defer sj.mu.Unlock()
	return sj.j.Append(raw)
}

// close fsyncs and releases the journal file; the final sync makes a
// drained shutdown's journal bit-complete for whoever resumes it.
func (sj *sweepJournal) close() error {
	if sj == nil {
		return nil
	}
	sj.mu.Lock()
	defer sj.mu.Unlock()
	return sj.j.Close()
}
