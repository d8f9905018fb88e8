package esp

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// NamedFigure pairs a figure identifier with its generator, so sweeps
// can be composed from any subset of the standard figures (or custom
// ones).
type NamedFigure struct {
	ID  string
	Gen func(*Harness) (Figure, error)
}

// StandardFigures lists every paper figure the harness regenerates, in
// paper order.
func StandardFigures() []NamedFigure {
	return []NamedFigure{
		{"fig3", (*Harness).Fig3},
		{"fig6", (*Harness).Fig6},
		{"fig8", (*Harness).Fig8},
		{"fig9", (*Harness).Fig9},
		{"fig10", (*Harness).Fig10},
		{"fig11a", (*Harness).Fig11a},
		{"fig11b", (*Harness).Fig11b},
		{"fig12", (*Harness).Fig12},
		{"fig13", (*Harness).Fig13},
		{"fig14", (*Harness).Fig14},
		{"related", (*Harness).FigRelated},
		{"eventlen", (*Harness).FigEventLen},
	}
}

// Sweep is the outcome of RunAll: the figures that were produced, the
// ones that failed outright, and the individual simulation cells that
// degraded inside otherwise-healthy figures.
type Sweep struct {
	// Figures holds the successfully produced figures in request order
	// (a figure with some failed cells still counts as produced).
	Figures []Figure
	// Failed maps a figure ID to the error that prevented producing it.
	Failed map[string]error
	// Cells aggregates per-cell failures across all produced figures,
	// keyed "figureID/app/config".
	Cells map[string]error
	// Perf snapshots the engine's reuse and timing counters at the end
	// of the sweep: cells run, workloads and machines reused versus
	// rebuilt, and the wall-clock split between building and simulating.
	Perf Perf
}

// OK reports whether every requested figure was produced with no
// degraded cells.
func (s *Sweep) OK() bool { return len(s.Failed) == 0 && len(s.Cells) == 0 }

// Summary renders a human-readable account of the sweep: the engine
// performance counters, plus what was skipped when the sweep degraded.
// It is never empty — check OK() for health, not Summary(). Keys are
// sorted so the summary is deterministic.
func (s *Sweep) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: %s\n", s.Perf)
	if sched := s.Perf.SchedString(); sched != "" {
		fmt.Fprintf(&b, "sched: %s\n", sched)
	}
	if len(s.Failed) > 0 {
		ids := make([]string, 0, len(s.Failed))
		for id := range s.Failed {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Fprintf(&b, "%d figure(s) not produced:\n", len(ids))
		for _, id := range ids {
			fmt.Fprintf(&b, "  %s: %v\n", id, s.Failed[id])
		}
	}
	if len(s.Cells) > 0 {
		keys := make([]string, 0, len(s.Cells))
		for k := range s.Cells {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "%d cell(s) degraded (NaN in figure):\n", len(keys))
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s: %v\n", k, s.Cells[k])
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// RunAll produces the requested figures (all standard figures when figs
// is empty) concurrently with at most parallelism figure generators in
// flight (parallelism < 1 means 1). It is the fault-tolerant sweep
// entry point: a figure that fails — even by panicking — is recorded in
// Sweep.Failed and does not stop the others, and cells that degraded
// inside produced figures are aggregated into Sweep.Cells. The
// underlying simulations are memoized and deduplicated across
// concurrent figures by Harness.Run.
func (h *Harness) RunAll(parallelism int, figs ...NamedFigure) *Sweep {
	if len(figs) == 0 {
		figs = StandardFigures()
	}
	if parallelism < 1 {
		parallelism = 1
	}
	type slot struct {
		fig Figure
		err error
	}
	results := make([]slot, len(figs))
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for i, nf := range figs {
		wg.Add(1)
		go func(i int, nf NamedFigure) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					results[i].err = fmt.Errorf("esp: figure %s: panic: %v", nf.ID, r)
				}
			}()
			results[i].fig, results[i].err = nf.Gen(h)
		}(i, nf)
	}
	wg.Wait()

	sweep := &Sweep{Failed: make(map[string]error), Cells: make(map[string]error), Perf: h.Perf()}
	for i, nf := range figs {
		if results[i].err != nil {
			sweep.Failed[nf.ID] = results[i].err
			continue
		}
		fig := results[i].fig
		sweep.Figures = append(sweep.Figures, fig)
		for cell, err := range fig.CellErrors {
			sweep.Cells[fig.ID+"/"+cell] = err
		}
	}
	return sweep
}
