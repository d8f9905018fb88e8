package esp

import (
	"math"
	"testing"

	"espsim/internal/core"
	"espsim/internal/eventq"
	"espsim/internal/trace"
	"espsim/internal/workload"
)

// Metamorphic invariants: relations between configurations that must
// hold on every application regardless of the exact cycle counts. They
// catch modelling regressions the golden corpus cannot — a change that
// renumbers everything consistently passes -update but still has to
// keep ESP profitable, idealized structures beneficial, and deeper
// jump-ahead no worse than shallow.
//
// invariantTolerance absorbs second-order modelling noise (queue-view
// boundary effects at truncated session lengths). Empirically the
// relations hold with large margins; 1% keeps the test meaningful
// without flaking on a legitimate one-cycle wobble.
const invariantTolerance = 0.01

// invariantMaxEvents matches the golden corpus truncation: long enough
// for warm-up plus steady state, short enough to sweep every preset.
const invariantMaxEvents = 48

func invariantConfig(c Config) Config {
	c.MaxEvents = invariantMaxEvents
	return c
}

// runInvariantCell runs one cell through the shared harness so every
// subtest of one application reuses the materialized workload.
func runInvariantCell(t *testing.T, h *Harness, prof workload.Profile, c Config) Result {
	t.Helper()
	res, err := h.Run(prof, invariantConfig(c))
	if err != nil {
		t.Fatalf("Run(%s, %s): %v", prof.Name, c.Name, err)
	}
	return res
}

// atLeast asserts got >= want within the invariant tolerance.
func atLeast(t *testing.T, got, want float64, format string, args ...any) {
	t.Helper()
	if got < want*(1-invariantTolerance) {
		args = append(args, got, want)
		t.Errorf(format+": got %.4f, want >= %.4f", args...)
	}
}

// TestInvariantESPOrdering asserts the paper's central result as an
// ordering, per application: adding ESP never hurts the baseline, and
// adding next-line prefetching on top of ESP never hurts ESP
// (Figure 9's bars are ESP+NL >= ESP >= base everywhere).
func TestInvariantESPOrdering(t *testing.T) {
	h := NewHarness()
	for _, prof := range workload.Suite() {
		t.Run(prof.Name, func(t *testing.T) {
			base := runInvariantCell(t, h, prof, BaselineConfig())
			espRes := runInvariantCell(t, h, prof, ESPConfig())
			espNL := runInvariantCell(t, h, prof, ESPNLConfig())

			atLeast(t, espRes.Speedup(base), 1, "%s: ESP vs base", prof.Name)
			atLeast(t, espNL.Speedup(base), espRes.Speedup(base), "%s: ESP+NL vs ESP", prof.Name)
		})
	}
}

// TestInvariantPerfectStructures asserts the Figure 3 potential study's
// premise: idealizing the L1-I, L1-D, or branch predictor on top of the
// NL+S machine can only help, and idealizing all three is at least as
// good as any single idealization.
func TestInvariantPerfectStructures(t *testing.T) {
	h := NewHarness()
	singles := []Config{PerfectL1DConfig(), PerfectBPConfig(), PerfectL1IConfig()}
	for _, prof := range workload.Suite() {
		t.Run(prof.Name, func(t *testing.T) {
			nls := runInvariantCell(t, h, prof, NLSConfig())
			all := runInvariantCell(t, h, prof, PerfectAllConfig())
			for _, cfg := range singles {
				res := runInvariantCell(t, h, prof, cfg)
				atLeast(t, res.Speedup(nls), 1, "%s: %s vs NL+S", prof.Name, cfg.Name)
				atLeast(t, all.Speedup(nls), res.Speedup(nls), "%s: perfectAll vs %s", prof.Name, cfg.Name)
			}
		})
	}
}

// TestInvariantJumpDepth asserts the relation that justifies the
// paper's default jump-ahead depth of two: across the suite, peeking
// two events ahead must not regress the geometric-mean speedup of
// peeking one. Per application the relation is weaker — splitting a
// stall window across two pending events dilutes the per-event
// lookahead, so queue-occupancy-poor applications (facebook, gdocs,
// gmaps) legitimately lose a few percent — but no application may lose
// more than jumpDepthPerAppTolerance (empirically the worst is ~3.6%).
func TestInvariantJumpDepth(t *testing.T) {
	const jumpDepthPerAppTolerance = 0.05

	// Distinct names keep the depths' cell labels apart.
	depthCfg := func(depth int) Config {
		name := "ESP+NL-jd" + string(rune('0'+depth))
		return espVariant(name, func(o *core.Options) { o.JumpDepth = depth }, true)
	}
	h := NewHarness()
	geo1, geo2 := 1.0, 1.0
	for _, prof := range workload.Suite() {
		base := runInvariantCell(t, h, prof, BaselineConfig())
		d1 := runInvariantCell(t, h, prof, depthCfg(1)).Speedup(base)
		d2 := runInvariantCell(t, h, prof, depthCfg(2)).Speedup(base)
		geo1 *= d1
		geo2 *= d2
		if d2 < d1*(1-jumpDepthPerAppTolerance) {
			t.Errorf("%s: jump depth 2 loses %.1f%% over depth 1 (%.4f vs %.4f)",
				prof.Name, 100*(1-d2/d1), d2, d1)
		}
	}
	n := float64(len(workload.Suite()))
	g1, g2 := math.Pow(geo1, 1/n), math.Pow(geo2, 1/n)
	atLeast(t, g2, g1, "suite geomean: jump depth 2 vs 1")
}

// Scheduler laws: metamorphic relations over the scheduling dimension.
// Schedules are pure functions of event metadata, so these laws are
// checked on the full mobile sessions (no simulation needed) — the
// truncation that keeps the simulated invariants cheap would leave the
// deadline laws vacuous (nothing misses in the first 48 events).

// sessionSchedule materializes prof's full session and schedules it
// under policy.
func sessionSchedule(t *testing.T, prof workload.Profile, policy eventq.SchedPolicy) *eventq.Schedule {
	t.Helper()
	s, err := workload.NewSession(prof)
	if err != nil {
		t.Fatalf("session %s: %v", prof.Name, err)
	}
	sch, err := eventq.BuildSchedule(s.Events, policy)
	if err != nil {
		t.Fatalf("schedule %s/%v: %v", prof.Name, policy, err)
	}
	return sch
}

// classP95 returns the named class's p95 latency under st, or NaN when
// the class never ran.
func classP95(st eventq.SchedStats, class string) float64 {
	for _, cl := range st.Classes {
		if cl.Class == class {
			return cl.P95
		}
	}
	return math.NaN()
}

// TestInvariantSchedulerDeadlines asserts the deadline laws on both
// mobile profiles: the deadline-aware policies (EDF, slack) never miss
// more deadlines than FIFO dispatch, and strict priority never
// increases the most-urgent class's tail latency over FIFO. These are
// not theorems for non-preemptive dispatch in general, but they are
// exactly what the mobile-web deadline distributions were shaped to
// exhibit — a scheduler change that breaks one has changed dispatch
// semantics, not wobbled a cycle count.
func TestInvariantSchedulerDeadlines(t *testing.T) {
	for _, prof := range workload.MobileSuite() {
		t.Run(prof.Name, func(t *testing.T) {
			fifo := sessionSchedule(t, prof, eventq.SchedFIFO).Stats
			prio := sessionSchedule(t, prof, eventq.SchedPriority).Stats
			edf := sessionSchedule(t, prof, eventq.SchedEDF).Stats
			slack := sessionSchedule(t, prof, eventq.SchedSlack).Stats

			if fifo.Deadlined == 0 {
				t.Fatalf("%s: no deadlined events — the deadline laws are vacuous", prof.Name)
			}
			for _, aware := range []eventq.SchedStats{edf, slack} {
				if aware.DeadlineMisses > fifo.DeadlineMisses {
					t.Errorf("%s: %s misses %d deadlines, FIFO only %d",
						prof.Name, aware.Policy, aware.DeadlineMisses, fifo.DeadlineMisses)
				}
			}
			if prio.PriorityInversions != 0 {
				t.Errorf("%s: strict priority reports %d inversions", prof.Name, prio.PriorityInversions)
			}
			urgent := trace.ClassInput.String()
			pf, pp := classP95(fifo, urgent), classP95(prio, urgent)
			if math.IsNaN(pf) || math.IsNaN(pp) {
				t.Fatalf("%s: input class absent from stats", prof.Name)
			}
			if pp > pf*(1+invariantTolerance) {
				t.Errorf("%s: strict priority raises input p95 latency: %.0f vs FIFO %.0f",
					prof.Name, pp, pf)
			}
		})
	}
}

// TestInvariantSlackMonotone asserts the metamorphic slack law: giving
// every deadline more room (a constant DeadlineSlack added at session
// build time) never increases the miss count, under any policy. A
// constant shift preserves each policy's dispatch order, so misses can
// only be forgiven, never created.
func TestInvariantSlackMonotone(t *testing.T) {
	const extraSlack = 20000
	for _, prof := range workload.MobileSuite() {
		relaxed := prof
		relaxed.DeadlineSlack += extraSlack
		for p := eventq.SchedPolicy(0); p.Valid(); p++ {
			tight := sessionSchedule(t, prof, p).Stats
			loose := sessionSchedule(t, relaxed, p).Stats
			if loose.DeadlineMisses > tight.DeadlineMisses {
				t.Errorf("%s/%v: adding %d slack raised misses %d -> %d",
					prof.Name, p, extraSlack, tight.DeadlineMisses, loose.DeadlineMisses)
			}
		}
	}
}

// TestInvariantESPOrderingScheduled asserts that the paper's central
// ordering survives the scheduling dimension: under every dispatch
// policy, on both mobile profiles, ESP never hurts the baseline and
// ESP+NL never hurts ESP. Scheduling reorders the queue the looper
// drains; it must not change what sneak-peek is worth relative to the
// machine it runs on.
func TestInvariantESPOrderingScheduled(t *testing.T) {
	h := NewHarness()
	for _, prof := range workload.MobileSuite() {
		for p := SchedPolicy(0); p.Valid(); p++ {
			base := runInvariantCell(t, h, prof, SchedConfig(BaselineConfig(), p))
			espRes := runInvariantCell(t, h, prof, SchedConfig(ESPConfig(), p))
			espNL := runInvariantCell(t, h, prof, SchedConfig(ESPNLConfig(), p))

			atLeast(t, espRes.Speedup(base), 1, "%s@%v: ESP vs base", prof.Name, p)
			atLeast(t, espNL.Speedup(base), espRes.Speedup(base), "%s@%v: ESP+NL vs ESP", prof.Name, p)

			if base.Sched == nil {
				t.Fatalf("%s@%v: scheduled cell returned no responsiveness stats", prof.Name, p)
			}
			if base.Sched.Policy != p.String() {
				t.Errorf("%s@%v: stats report policy %q", prof.Name, p, base.Sched.Policy)
			}
		}
	}
}
