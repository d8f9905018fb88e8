// Package metrics is the observability plane of the espd service: the
// counters that Sweep.Summary tracks per sweep (cells run, workload and
// machine reuse) promoted into one long-lived, concurrency-safe type,
// plus the request-layer counters (rejections, timeouts) and a
// per-cell latency histogram that only a daemon needs.
//
// Everything is lock-free atomics, so the hot path (one Observe per
// simulated cell, a few Adds per request) costs nanoseconds; Snapshot
// assembles a consistent-enough JSON view for GET /metrics.
package metrics

import (
	"sync/atomic"
	"time"

	"espsim/internal/tenantq"
)

// latencyBoundsMs are the histogram bucket upper bounds in milliseconds;
// the final implicit bucket is +Inf. They span a sub-millisecond golden
// cell to a multi-minute full-scale sweep cell.
var latencyBoundsMs = [15]int64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 30000, 60000}

// Histogram is a fixed-bucket latency histogram safe for concurrent
// Observe calls.
type Histogram struct {
	counts [len(latencyBoundsMs) + 1]atomic.Int64
	sumNs  atomic.Int64
	n      atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ms := d.Milliseconds()
	i := 0
	for i < len(latencyBoundsMs) && ms > latencyBoundsMs[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
	h.n.Add(1)
}

// HistogramSnapshot is the wire form of a Histogram: parallel bounds and
// counts (the last count is the +Inf bucket), plus count and mean.
type HistogramSnapshot struct {
	BoundsMs []int64 `json:"bounds_ms"`
	Counts   []int64 `json:"counts"`
	Count    int64   `json:"count"`
	MeanMs   float64 `json:"mean_ms"`
}

// Snapshot renders the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		BoundsMs: latencyBoundsMs[:],
		Counts:   make([]int64, len(h.counts)),
		Count:    h.n.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if s.Count > 0 {
		s.MeanMs = float64(h.sumNs.Load()) / float64(s.Count) / 1e6
	}
	return s
}

// Metrics holds every service counter. The zero value is not ready;
// use New.
type Metrics struct {
	start time.Time

	// Request layer.
	RunRequests   atomic.Int64
	SweepRequests atomic.Int64
	ShardRequests atomic.Int64 // sweeps carrying a coordinator shard label
	JournalPeeks  atomic.Int64 // GET /journalz handoff inspections
	BadRequests   atomic.Int64
	Rejected      atomic.Int64 // 429: queue full
	Draining      atomic.Int64 // 503: shutdown in progress
	Timeouts      atomic.Int64
	CellsOK       atomic.Int64
	CellErrors    atomic.Int64

	// Overload layer: per-tenant quota refusals (429), cells shed
	// because they provably could not meet their deadline (504), and
	// cells refused because their workload did not fit the memory
	// budget (503).
	QuotaRejected    atomic.Int64
	DeadlineShed     atomic.Int64
	BrownoutRejected atomic.Int64

	// Resilience layer: cells replayed from a sweep's checkpoint journal
	// instead of simulated, and journal appends that failed (the cell
	// still succeeded; only its crash-safety record is missing).
	ResumedCells  atomic.Int64
	JournalErrors atomic.Int64
	SweepConflict atomic.Int64 // 409: sweep_id reused for a different grid or still running

	// CellLatency observes simulated-cell wall times (recorded per cell
	// by the server's cell path, so batched sweep cells are measured
	// individually).
	CellLatency Histogram
}

// New returns a Metrics anchored at now (uptime accounting).
func New() *Metrics {
	return &Metrics{start: time.Now()}
}

// Engine mirrors sim.Perf on the wire: the reuse counters the sweep
// engine tracks, reported cumulatively for the daemon's lifetime.
type Engine struct {
	Cells          int64 `json:"cells"`
	WorkloadBuilds int64 `json:"workload_builds"`
	WorkloadReuses int64 `json:"workload_cache_hits"`
	WorkloadEvicts int64 `json:"workload_evictions"`
	// LiveBytes is the accounted footprint of live workloads, cached or
	// held by a running cell (a gauge); LivePeakBytes is its high-water
	// mark.
	LiveBytes     int64 `json:"workload_live_bytes"`
	LivePeakBytes int64 `json:"workload_live_peak_bytes"`
	MachineBuilds int64 `json:"machine_builds"`
	MachineReuses int64 `json:"machine_reuses"`
	BuildWallMs   int64 `json:"build_wall_ms"`
	SimWallMs     int64 `json:"sim_wall_ms"`

	// Sched aggregates responsiveness across every cell that ran under
	// a materialized dispatch schedule; omitted until one has.
	Sched *SchedEngine `json:"sched,omitempty"`
}

// SchedEngine mirrors the runner's scheduled-cell aggregates: deadline
// outcomes, priority inversions, and per-class latency summaries
// (event-weighted means of per-cell percentiles).
type SchedEngine struct {
	Cells              int64              `json:"cells"`
	Events             int64              `json:"events"`
	Deadlined          int64              `json:"deadlined"`
	DeadlineMisses     int64              `json:"deadline_misses"`
	MissRate           float64            `json:"miss_rate"`
	PriorityInversions int64              `json:"priority_inversions"`
	Classes            []SchedEngineClass `json:"classes,omitempty"`
}

// SchedEngineClass is one event class's aggregate responsiveness.
type SchedEngineClass struct {
	Class     string  `json:"class"`
	Events    int64   `json:"events"`
	Deadlined int64   `json:"deadlined"`
	Misses    int64   `json:"misses"`
	P50       float64 `json:"p50"`
	P95       float64 `json:"p95"`
	P99       float64 `json:"p99"`
}

// Snapshot is the GET /metrics document. Node is the worker's
// self-reported name (espd -name), so a coordinator scraping a fleet
// can label each snapshot without tracking URLs out of band.
type Snapshot struct {
	UptimeMs int64  `json:"uptime_ms"`
	Node     string `json:"node,omitempty"`

	Requests struct {
		Run          int64 `json:"run"`
		Sweep        int64 `json:"sweep"`
		Shard        int64 `json:"shard"`
		JournalPeeks int64 `json:"journal_peeks"`
		Bad          int64 `json:"bad"`
		Rejected     int64 `json:"rejected"`
		Draining     int64 `json:"draining"`
	} `json:"requests"`

	Cells struct {
		Completed int64 `json:"completed"`
		Errors    int64 `json:"errors"`
		Timeouts  int64 `json:"timeouts"`
	} `json:"cells"`

	Queue struct {
		Depth    int64 `json:"depth"`
		Capacity int   `json:"capacity"`
		Workers  int   `json:"workers"`
	} `json:"queue"`

	// Resilience reports the recovery machinery: retry and breaker
	// activity (filled by the server from its executor), plus
	// checkpoint/resume traffic. BreakerOpen is a gauge; the rest are
	// cumulative.
	Resilience struct {
		Retries       int64 `json:"retries"`
		BreakerTrips  int64 `json:"breaker_trips"`
		BreakerSkips  int64 `json:"breaker_skips"`
		BreakerOpen   int64 `json:"breaker_open"`
		ResumedCells  int64 `json:"resumed_cells"`
		JournalErrors int64 `json:"journal_errors"`
		SweepConflict int64 `json:"sweep_conflicts"`
	} `json:"resilience"`

	// Overload reports the tenant-scale robustness layer in cells:
	// quota refusals, deadline sheds, and memory-budget refusals.
	Overload struct {
		QuotaRejected    int64 `json:"quota_rejected"`
		DeadlineShed     int64 `json:"deadline_shed"`
		BrownoutRejected int64 `json:"brownout_rejected"`
	} `json:"overload"`

	// Tenants is the per-tenant breakdown: gauges (queue depth,
	// in-flight cells) and cumulative admission/completion/refusal
	// counters, sorted by tenant name. Filled by the server.
	Tenants []tenantq.TenantSnapshot `json:"tenants,omitempty"`

	Engine Engine `json:"engine"`

	CellLatency HistogramSnapshot `json:"cell_latency"`
}

// Snapshot renders the request-layer counters; the caller fills in
// Engine (from sim.Perf) and the Queue gauges.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	s.UptimeMs = time.Since(m.start).Milliseconds()
	s.Requests.Run = m.RunRequests.Load()
	s.Requests.Sweep = m.SweepRequests.Load()
	s.Requests.Shard = m.ShardRequests.Load()
	s.Requests.JournalPeeks = m.JournalPeeks.Load()
	s.Requests.Bad = m.BadRequests.Load()
	s.Requests.Rejected = m.Rejected.Load()
	s.Requests.Draining = m.Draining.Load()
	s.Cells.Completed = m.CellsOK.Load()
	s.Cells.Errors = m.CellErrors.Load()
	s.Cells.Timeouts = m.Timeouts.Load()
	s.Overload.QuotaRejected = m.QuotaRejected.Load()
	s.Overload.DeadlineShed = m.DeadlineShed.Load()
	s.Overload.BrownoutRejected = m.BrownoutRejected.Load()
	s.Resilience.ResumedCells = m.ResumedCells.Load()
	s.Resilience.JournalErrors = m.JournalErrors.Load()
	s.Resilience.SweepConflict = m.SweepConflict.Load()
	s.CellLatency = m.CellLatency.Snapshot()
	return s
}
