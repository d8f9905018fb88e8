// Package sim is the simulation engine behind the esp facade. It splits
// the simulator into two planes:
//
//   - the workload plane: a Workload is one application session
//     materialized once — every event's normal and speculative
//     instruction stream encoded back to back on one compact tape
//     (trace.Tape) — and immutable afterwards, so it can be replayed and
//     shared across goroutines freely;
//
//   - the machine plane: a Machine assembles the core, memory hierarchy
//     and branch predictor once, is fit to a Config by attaching the
//     prefetchers and stall-window assist it names (each built on first
//     use and kept), and Reset() restores all of them to cold state
//     without reallocating their tables, so one Machine replays many
//     workloads under many configurations with an allocation-flat hot
//     loop.
//
// A Runner joins the planes for sweeps: workloads are materialized once
// per application and shared across every configuration, one machine
// per cell in flight is recycled and fit to each cell, and per-cell
// timing/allocation counters record what the reuse saved. Errors keep
// the "esp:" prefix because this package is the engine behind the
// public esp API.
package sim

import (
	"fmt"

	"espsim/internal/core"
	"espsim/internal/cpu"
	"espsim/internal/energy"
	"espsim/internal/eventq"
	"espsim/internal/mem"
	"espsim/internal/runahead"
)

// AssistKind selects the stall-window consumer.
type AssistKind uint8

const (
	// AssistNone: the core idles through LLC-miss stalls (baseline).
	AssistNone AssistKind = iota
	// AssistRunahead: runahead execution pre-executes the same event.
	AssistRunahead
	// AssistESP: Event Sneak Peek pre-executes queued future events.
	AssistESP
)

// Config is a complete machine configuration, and a comparable value.
// Every design point shares the Figure 7 core, hierarchy and predictor;
// the fields pick the idealized structures, the prefetchers and the
// assist a Machine is fit to, or label results and bound a replay. A
// Config is read as set: no zero sub-config is swapped for defaults.
type Config struct {
	// Name labels the configuration in tables and memoization keys.
	Name string

	// NLI enables the next-line instruction prefetcher; NLD the
	// DCU-style next-line data prefetcher; StridePF the stride
	// prefetcher.
	NLI      bool
	NLD      bool
	StridePF bool

	// EFetch and PIF enable the §7 comparison instruction prefetchers
	// (mutually exclusive).
	EFetch bool
	PIF    bool

	// Assist selects none / runahead / ESP; RA and ESP configure them.
	// The zero RA is Figure 9's full runahead; an ESP assist needs its
	// options set (start from core.DefaultOptions()).
	Assist AssistKind
	RA     runahead.Config
	ESP    core.Options

	// PerfectL1I, PerfectL1D, PerfectBP idealize structures (Figure 3).
	PerfectL1I bool
	PerfectL1D bool
	PerfectBP  bool

	// MaxEvents truncates the session (0: run everything); MaxPending
	// widens the queue view past 2 for the Figure 13 study.
	MaxEvents  int
	MaxPending int

	// Sched selects the event-queue dispatch policy the workload is
	// scheduled under (zero: FIFO, the paper's drain order). The policy
	// is baked into the workload at build time; it never touches the
	// replay loop.
	Sched eventq.SchedPolicy
}

// Result is the outcome of one simulation.
type Result struct {
	App    string
	Config string

	Insts  int64
	Cycles int64
	IPC    float64

	// IMPKI is L1-I misses per kilo-instruction (Figure 11a); DMissRate
	// the L1-D miss rate (Figure 11b); MispredictRate the branch
	// misprediction rate (Figure 12).
	IMPKI          float64
	DMissRate      float64
	MispredictRate float64

	// ExtraInstPct is the percentage of additional (pre-executed)
	// instructions over the committed ones (Figure 14 annotations).
	ExtraInstPct float64

	CPU cpu.Stats
	L1I mem.CacheStats
	L1D mem.CacheStats
	L2  mem.CacheStats

	// ESPStats / RAStats are present when the corresponding assist ran.
	ESPStats *core.Stats
	RAStats  *runahead.Stats

	// Energy is the absolute Figure 14 breakdown (relative plots divide
	// by a baseline's Total).
	Energy energy.Breakdown

	// Study holds Figure 13 working-set samples when
	// ESP.MeasureWorkingSets was set.
	Study *core.WorkingSetStudy

	// Sched is the responsiveness summary of the dispatch schedule the
	// workload ran under (per-class latency percentiles, deadline-miss
	// rate, priority inversions); nil for classic FIFO cells of untimed
	// workloads.
	Sched *eventq.SchedStats `json:"sched,omitempty"`
}

// Speedup returns how much faster r is than base (base.Cycles/r.Cycles).
func (r Result) Speedup(base Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// Validate reports whether the configuration can be simulated, with a
// wrapped, actionable error naming the offending field. It checks the
// bounds, the assist selection and the ESP options (including cachelet
// geometry), and the mutually exclusive instruction prefetchers. All
// run paths call it, so an invalid configuration yields an error, never
// a panic.
func (c Config) Validate() error {
	fail := func(err error) error {
		return fmt.Errorf("esp: config %q: %w", c.Name, err)
	}
	switch {
	case c.MaxEvents < 0:
		return fail(fmt.Errorf("MaxEvents must be non-negative, got %d", c.MaxEvents))
	case c.MaxPending < 0:
		return fail(fmt.Errorf("MaxPending must be non-negative, got %d", c.MaxPending))
	case !c.Sched.Valid():
		return fail(fmt.Errorf("unknown scheduler policy %d (have %v)", uint8(c.Sched), eventq.SchedNames()))
	}
	if c.EFetch && c.PIF {
		return fail(fmt.Errorf("EFetch and PIF are mutually exclusive instruction prefetchers; enable at most one"))
	}
	switch c.Assist {
	case AssistNone, AssistRunahead:
	case AssistESP:
		if c.ESP == (core.Options{}) {
			return fail(fmt.Errorf("the ESP assist has zero options; start from core.DefaultOptions()"))
		}
		if err := c.ESP.Validate(); err != nil {
			return fail(err)
		}
	default:
		return fail(fmt.Errorf("unknown AssistKind %d", c.Assist))
	}
	return nil
}
