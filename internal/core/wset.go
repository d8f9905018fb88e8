package core

import (
	"math"
	"sort"

	"espsim/internal/mem"
)

// WorkingSetStudy aggregates per-event, per-mode reuse profiles of
// pre-executions, reproducing the cachelet-sizing analysis of §6.6 and
// Figure 13: the maximum working set of events in each ESP mode, and the
// capacity needed to capture a given fraction of reuse in a given
// fraction of events.
type WorkingSetStudy struct {
	// samples[mode] collects one entry per (event, mode) pre-execution.
	samples [][]wsSample
}

type wsSample struct {
	iUnique int
	// Lines needed to capture 95/85/75% of reuse.
	i95, i85, i75 int
}

// NewWorkingSetStudy returns a study for the given jump-ahead depth.
func NewWorkingSetStudy(depth int) *WorkingSetStudy {
	return &WorkingSetStudy{samples: make([][]wsSample, depth)}
}

// Merge folds another study's samples into st (mode-wise). Used to
// aggregate the Figure 13 data across the benchmark suite.
func (st *WorkingSetStudy) Merge(other *WorkingSetStudy) {
	if other == nil {
		return
	}
	for len(st.samples) < len(other.samples) {
		st.samples = append(st.samples, nil)
	}
	for m, ss := range other.samples {
		st.samples[m] = append(st.samples[m], ss...)
	}
}

// AddSample folds one (event, mode) pre-execution profile of the
// instruction side into the study.
func (st *WorkingSetStudy) AddSample(mode int, i *mem.WorkingSet) {
	if mode < 0 || mode >= len(st.samples) {
		return
	}
	st.samples[mode] = append(st.samples[mode], wsSample{
		iUnique: i.Unique(),
		i95:     i.LinesFor(0.95), i85: i.LinesFor(0.85), i75: i.LinesFor(0.75),
	})
}

// ModeReport is one Figure 13 series entry for a single ESP mode.
type ModeReport struct {
	Mode   int // 1-based: ESP-1, ESP-2, ...
	Events int
	// MaxLines is the largest working set observed (the "Max" series);
	// Lines95/85/75 the capacity capturing that reuse fraction in 95% of
	// events (the sizing rule of §6.6).
	MaxLines int
	Lines95  int
	Lines85  int
	Lines75  int
}

// ReportI returns the instruction-side Figure 13 report.
func (st *WorkingSetStudy) ReportI() []ModeReport {
	out := make([]ModeReport, 0, len(st.samples))
	for mode, ss := range st.samples {
		r := ModeReport{Mode: mode + 1, Events: len(ss)}
		if len(ss) > 0 {
			var uniq, l95, l85, l75 []int
			for _, s := range ss {
				uniq = append(uniq, s.iUnique)
				l95, l85, l75 = append(l95, s.i95), append(l85, s.i85), append(l75, s.i75)
			}
			r.MaxLines = maxOf(uniq)
			r.Lines95 = percentileInt(l95, 0.95)
			r.Lines85 = percentileInt(l85, 0.95)
			r.Lines75 = percentileInt(l75, 0.95)
		}
		out = append(out, r)
	}
	return out
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// percentileInt returns the value at quantile q of xs (nearest rank).
func percentileInt(xs []int, q float64) int {
	if len(xs) == 0 {
		return 0
	}
	s := make([]int, len(xs))
	copy(s, xs)
	sort.Ints(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
