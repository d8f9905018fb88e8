package main

import (
	"math"
	"sort"
	"time"
)

// sortedMs returns the durations in milliseconds, ascending.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// median of ascending xs, interpolating between the middle pair.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// nearestRank is the p-th percentile of ascending xs by nearest rank.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	r := int(math.Ceil(p / 100 * float64(len(xs))))
	return xs[min(max(r, 1), len(xs))-1]
}

// tailPercentile is the highest percentile, at most 95, that leaves at
// least ten samples beyond it: 100·(1 − 10/n). Below 100 samples that
// percentile falls under p90 and says little about the tail, so the
// tail is the maximum instead (reported as 100). The cap is p95, not
// p99, because on a shared 2-vCPU host run-open's p99 spread by 30%
// across seeds, more than the benchmark's 0.25 bound.
func tailPercentile(n int) float64 {
	if n < 100 {
		return 100
	}
	return math.Min(95, 100*(1-10/float64(n)))
}

// tail returns the tail percentile of ascending xs and its value.
func tail(xs []float64) (p, v float64) {
	p = tailPercentile(len(xs))
	if p == 100 {
		if len(xs) == 0 {
			return p, math.NaN()
		}
		return p, xs[len(xs)-1]
	}
	return p, nearestRank(xs, p)
}

// hmeanImprovementPct is the paper's summary statistic: the harmonic
// mean of speedups, as a percentage improvement.
func hmeanImprovementPct(speedups []float64) float64 {
	if len(speedups) == 0 {
		return math.NaN()
	}
	var inv float64
	for _, s := range speedups {
		inv += 1 / s
	}
	return (float64(len(speedups))/inv - 1) * 100
}
