package esp

// Benchmark harness: one benchmark per paper table/figure (DESIGN.md §4).
// Each benchmark regenerates its figure from scratch and reports the
// figure's headline quantities as custom metrics; -v additionally logs
// the full table, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's evaluation end to end. Absolute numbers differ
// from the paper (synthetic workloads on a penalty-based timing model);
// the shapes — who wins, by roughly what factor — are the deliverable,
// and EXPERIMENTS.md records both sides.

import (
	"testing"

	"espsim/internal/workload"
)

// benchFigure runs a figure generator b.N times, logging the table once.
func benchFigure(b *testing.B, gen func(h *Harness) (Figure, error), metrics func(f Figure, b *testing.B)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := NewHarness()
		f, err := gen(h)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s\n%s", f.Table, f.PaperNote)
			if metrics != nil {
				metrics(f, b)
			}
		}
	}
}

func BenchmarkFig03PerfectPotential(b *testing.B) {
	benchFigure(b, (*Harness).Fig3, func(f Figure, b *testing.B) {
		b.ReportMetric(f.Summary["perfectAll"], "perfectAll-%")
		b.ReportMetric(f.Summary["perfectL1I"], "perfectL1I-%")
	})
}

func BenchmarkFig06Benchmarks(b *testing.B) {
	benchFigure(b, (*Harness).Fig6, nil)
}

func BenchmarkFig08HardwareBudget(b *testing.B) {
	benchFigure(b, (*Harness).Fig8, nil)
}

func BenchmarkFig09MainResult(b *testing.B) {
	benchFigure(b, (*Harness).Fig9, func(f Figure, b *testing.B) {
		b.ReportMetric(f.Summary["ESP+NL"], "ESP+NL-%")
		b.ReportMetric(f.Summary["Runahead+NL"], "Runahead+NL-%")
		b.ReportMetric(f.Summary["NL"], "NL-%")
	})
}

func BenchmarkFig10Sources(b *testing.B) {
	benchFigure(b, (*Harness).Fig10, func(f Figure, b *testing.B) {
		b.ReportMetric(f.Summary["ESP-I+NL"], "ESP-I+NL-%")
		b.ReportMetric(f.Summary["ESP-I,B,D+NL"], "ESP-I,B,D+NL-%")
	})
}

func BenchmarkFig11aICache(b *testing.B) {
	benchFigure(b, (*Harness).Fig11a, func(f Figure, b *testing.B) {
		b.ReportMetric(f.Summary["base"], "base-MPKI")
		b.ReportMetric(f.Summary["ESP-I+NL-I"], "ESP-MPKI")
	})
}

func BenchmarkFig11bDCache(b *testing.B) {
	benchFigure(b, (*Harness).Fig11b, func(f Figure, b *testing.B) {
		b.ReportMetric(f.Summary["base"], "base-Dmiss-%")
		b.ReportMetric(f.Summary["ESP-D+NL-D"], "ESP-Dmiss-%")
	})
}

func BenchmarkFig12Branch(b *testing.B) {
	benchFigure(b, (*Harness).Fig12, func(f Figure, b *testing.B) {
		b.ReportMetric(f.Summary["NL+S"], "base-mispredict-%")
		b.ReportMetric(f.Summary["BP-esp"], "ESP-mispredict-%")
	})
}

func BenchmarkFig13WorkingSet(b *testing.B) {
	benchFigure(b, (*Harness).Fig13, func(f Figure, b *testing.B) {
		if s, ok := f.Series["ESP1"]; ok && len(s) >= 2 {
			b.ReportMetric(s[1], "ESP1-95%-lines")
		}
		if s, ok := f.Series["ESP2"]; ok && len(s) >= 2 {
			b.ReportMetric(s[1], "ESP2-95%-lines")
		}
	})
}

func BenchmarkFig14Energy(b *testing.B) {
	benchFigure(b, (*Harness).Fig14, func(f Figure, b *testing.B) {
		b.ReportMetric(f.Summary["relative-energy"], "rel-energy")
		b.ReportMetric(f.Summary["extra-inst%"], "extra-inst-%")
	})
}

func BenchmarkFigRelatedWork(b *testing.B) {
	benchFigure(b, (*Harness).FigRelated, func(f Figure, b *testing.B) {
		b.ReportMetric(f.Summary["ESP"], "ESP-%")
		b.ReportMetric(f.Summary["EFetch"], "EFetch-%")
		b.ReportMetric(f.Summary["PIF"], "PIF-%")
	})
}

func BenchmarkAblations(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := NewHarness()
		abls, err := h.AllAblations(workload.Amazon())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, a := range abls {
				b.Logf("\n%s", a.Table)
			}
		}
	}
}

func BenchmarkHeadline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := NewHarness()
		t, err := h.Headline()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", t)
		}
	}
}

// Raw simulator throughput: simulated instructions per wall-clock second.

func benchSimulate(b *testing.B, cfg Config) {
	prof := workload.Amazon()
	prof.Events = 120
	b.ReportAllocs()
	var insts int64
	for i := 0; i < b.N; i++ {
		r, err := Run(prof, cfg)
		if err != nil {
			b.Fatal(err)
		}
		insts = r.Insts
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

func BenchmarkSimulateBaseline(b *testing.B) { benchSimulate(b, BaselineConfig()) }

func BenchmarkSimulateNLS(b *testing.B) { benchSimulate(b, NLSConfig()) }

func BenchmarkSimulateRunahead(b *testing.B) { benchSimulate(b, RunaheadNLConfig()) }

func BenchmarkSimulateESP(b *testing.B) { benchSimulate(b, ESPNLConfig()) }

// The two-plane engine's reason for existing: sweepConfigs×one profile,
// either materializing the workload once and resetting pooled machines
// (Reuse — the Runner's hot loop), or rebuilding the session and machine
// for every cell (Rebuild — what Run does). allocs/op of Reuse must stay
// flat as the cell count grows; `go test -bench 'Sweep(Reuse|Rebuild)'
// -benchmem` prints the ratio, and `make flame` profiles Reuse.

func sweepConfigs() []Config {
	return []Config{
		BaselineConfig(), NLConfig(), NLSConfig(),
		RunaheadNLConfig(), ESPNLConfig(), ESPIBDNLConfig(),
	}
}

func BenchmarkSweepReuse(b *testing.B) {
	prof := workload.Amazon()
	prof.Events = 120
	cfgs := sweepConfigs()
	w, err := NewWorkload(prof, 0)
	if err != nil {
		b.Fatal(err)
	}
	machines := make([]*Machine, len(cfgs))
	for i, cfg := range cfgs {
		if machines[i], err = NewMachine(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range machines {
			if r := m.Run(w); r.Cycles == 0 {
				b.Fatal("empty result")
			}
		}
	}
	b.ReportMetric(float64(len(cfgs))*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

func BenchmarkSweepRebuild(b *testing.B) {
	prof := workload.Amazon()
	prof.Events = 120
	cfgs := sweepConfigs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			if _, err := Run(prof, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(cfgs))*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}
