package cluster

import "sync/atomic"

// counters is the coordinator's observability plane: lock-free
// cumulative counters for the scheduling and failure machinery.
type counters struct {
	SweepsDone       atomic.Int64
	ShardsDone       atomic.Int64
	ShardsFailed     atomic.Int64 // terminally failed after maxShardAttempts
	Steals           atomic.Int64 // shard taken by a non-preferred worker
	Reschedules      atomic.Int64 // failed attempts put back on the queue
	NetFaults        atomic.Int64 // attempts lost to a dead or unreachable worker (KindNet)
	JournalHandoffs  atomic.Int64 // shards that failed an attempt, then came back with resumed cells
	DigestMismatches atomic.Int64 // shards rerun journal-less after a worker refused their journal (409)
	ResumedCells     atomic.Int64 // cells workers answered from a journal, adopted or resubmitted
	CellsShed        atomic.Int64 // cells workers shed as unfinishable within the deadline
}

// WorkerState is one fleet member's row in the snapshot.
type WorkerState struct {
	Name    string `json:"name"`
	Breaker string `json:"breaker"` // closed | open | half_open
}

// Snapshot is the GET /metrics document of espcoord.
type Snapshot struct {
	Workers []WorkerState `json:"workers"`

	Sweeps struct {
		Done int64 `json:"done"`
	} `json:"sweeps"`

	Shards struct {
		Done        int64 `json:"done"`
		Failed      int64 `json:"failed"`
		Steals      int64 `json:"steals"`
		Reschedules int64 `json:"reschedules"`
	} `json:"shards"`

	// Overload mirrors the fleet-facing degradation machinery: cells a
	// worker answered with a deadline shed instead of a simulation.
	Overload struct {
		CellsShed int64 `json:"cells_shed"`
	} `json:"overload"`

	// Quarantine mirrors the node breakers: trips is cumulative (how
	// many times any node was quarantined), open is the gauge.
	Quarantine struct {
		Trips int64 `json:"trips"`
		Skips int64 `json:"skips"`
		Open  int64 `json:"open"`
	} `json:"quarantine"`

	Handoff struct {
		Journals         int64 `json:"journals"`
		DigestMismatches int64 `json:"digest_mismatches"`
		ResumedCells     int64 `json:"resumed_cells"`
	} `json:"handoff"`

	NetFaults int64 `json:"net_faults"`
}

// snapshot renders the counters; the coordinator fills in the
// breaker-derived fields.
func (c *counters) snapshot() Snapshot {
	var s Snapshot
	s.Sweeps.Done = c.SweepsDone.Load()
	s.Shards.Done = c.ShardsDone.Load()
	s.Shards.Failed = c.ShardsFailed.Load()
	s.Shards.Steals = c.Steals.Load()
	s.Shards.Reschedules = c.Reschedules.Load()
	s.Overload.CellsShed = c.CellsShed.Load()
	s.Handoff.Journals = c.JournalHandoffs.Load()
	s.Handoff.DigestMismatches = c.DigestMismatches.Load()
	s.Handoff.ResumedCells = c.ResumedCells.Load()
	s.NetFaults = c.NetFaults.Load()
	return s
}
