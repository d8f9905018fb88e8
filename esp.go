// Package esp is the public facade of the Event Sneak Peek (ESP)
// reproduction: a trace-driven microarchitectural simulator for
// asynchronous programs, implementing the architecture of
//
//	Chadha, Mahlke, Narayanasamy — "Accelerating Asynchronous Programs
//	through Event Sneak Peek", ISCA 2015.
//
// A simulation runs one application workload (the seven Web 2.0 sessions
// of Figure 6, or a custom workload.Profile) through a configured core:
//
//	res, err := esp.Run(workload.Amazon(), esp.ESPNLConfig())
//
// Config presets correspond to the machine configurations in the paper's
// figures; the Harness in experiments.go regenerates every figure.
//
// The engine behind this facade (internal/sim) is split into two planes.
// The workload plane materializes a session once into an immutable,
// arena-backed Workload that any number of goroutines may replay. The
// machine plane assembles a Machine once per Config and resets it to
// cold state between replays without reallocating its tables. Run and
// RunSource build both planes per call; when simulating many cells,
// materialize the workload once and reuse a Machine (or use the Harness,
// which pools both):
//
//	w, _ := esp.NewWorkload(prof, 0)
//	m, _ := esp.NewMachine(cfg)
//	for i := 0; i < laps; i++ {
//		res := m.Run(w) // resets, then replays; no reallocation
//	}
//
// Every entry point builds a workload the same way: a session or trace
// whose executed events carry timing (the mobile profiles, ESPT v2
// traces) is laid out in dispatch order, so m.Run(w) above reads what
// Run(prof, cfg) reads when cfg is FIFO and sets no MaxEvents,
// Result.Sched included.
package esp

import (
	"espsim/internal/eventq"
	"espsim/internal/sim"
	"espsim/internal/workload"
)

// AssistKind selects the stall-window consumer.
type AssistKind = sim.AssistKind

const (
	// AssistNone: the core idles through LLC-miss stalls (baseline).
	AssistNone = sim.AssistNone
	// AssistRunahead: runahead execution pre-executes the same event.
	AssistRunahead = sim.AssistRunahead
	// AssistESP: Event Sneak Peek pre-executes queued future events.
	AssistESP = sim.AssistESP
)

// SchedPolicy selects the event-queue dispatch order a workload is
// scheduled under. The policy is baked into the immutable workload at
// build time (eventq.BuildSchedule); replay stays allocation-zero.
type SchedPolicy = eventq.SchedPolicy

const (
	// SchedFIFO drains the queue in arrival order (the paper's model,
	// and the zero value).
	SchedFIFO = eventq.SchedFIFO
	// SchedPriority dispatches the most urgent ready event first.
	SchedPriority = eventq.SchedPriority
	// SchedEDF dispatches the earliest-deadline ready event first.
	SchedEDF = eventq.SchedEDF
	// NumSchedPolicies is the number of defined policies.
	NumSchedPolicies = eventq.NumSchedPolicies
	// SchedSlack is the PES-style deadline-aware policy (least slack
	// first).
	SchedSlack = eventq.SchedSlack
)

// SchedStats is the responsiveness summary of a scheduled cell:
// per-class latency percentiles, deadline-miss rate, and priority
// inversions (Result.Sched).
type SchedStats = eventq.SchedStats

// SchedByName resolves a scheduler policy name ("fifo", "prio", "edf",
// "slack"; empty means FIFO).
func SchedByName(name string) (SchedPolicy, error) { return eventq.SchedByName(name) }

// Config is a complete machine configuration: what the paper's design
// points vary on the one Figure 7 core. It is read as set. The zero RA
// is Figure 9's full runahead; an ESP assist needs its options set
// (start from a preset, or core.DefaultOptions()), and Validate rejects
// zero ones.
type Config = sim.Config

// Result is the outcome of one simulation.
type Result = sim.Result

// Workload is one application session materialized once — every event's
// normal and speculative instruction stream encoded back to back on one
// compact tape — and immutable afterwards, so it can be replayed by any
// number of machines concurrently.
type Workload = sim.Workload

// Machine is one simulated core assembled from a Config. Machine.Run
// resets it to cold state (without reallocating) and replays a
// workload; results are bit-identical to a freshly built machine.
type Machine = sim.Machine

// Perf aggregates workload/machine reuse and timing counters across a
// sweep (see Sweep.Perf).
type Perf = sim.Perf

// NewWorkload materializes prof's session, truncated to maxEvents when
// positive (0: the whole session), under FIFO dispatch.
func NewWorkload(prof workload.Profile, maxEvents int) (*Workload, error) {
	return sim.NewWorkload(prof, maxEvents)
}

// NewMachine validates cfg and assembles a reusable machine.
func NewMachine(cfg Config) (*Machine, error) {
	return sim.NewMachine(cfg)
}

// Run simulates one application profile under one configuration. It is a
// convenience wrapper that materializes the workload and assembles a
// machine for a single replay; loops over profiles or configurations
// should reuse both planes (see the package example above, or Harness).
func Run(prof workload.Profile, cfg Config) (Result, error) {
	w, err := sim.NewWorkloadSched(prof, cfg.MaxEvents, cfg.Sched)
	if err != nil {
		return Result{}, err
	}
	m, err := sim.NewMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	return m.Run(w), nil
}

// RunSource simulates any event source (synthetic session or recorded
// trace) under one configuration. The configuration is validated first:
// a bad Config yields a wrapped error, never a panic, and so does a
// source whose queue view names an event outside it. When the source's
// executed events carry scheduling metadata (an ESPT v2 trace), the
// workload is materialized in dispatch order under cfg.Sched.
func RunSource(app string, src eventq.Source, cfg Config) (Result, error) {
	m, err := sim.NewMachine(cfg)
	if err != nil {
		return Result{}, err
	}
	w, err := sim.MaterializeSourceSched(app, src, cfg.MaxEvents, cfg.Sched)
	if err != nil {
		return Result{}, err
	}
	return m.Run(w), nil
}
