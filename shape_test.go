package esp

// Shape tests: lock in the paper's qualitative results (who wins, in
// what order) at reduced scale, so regressions in any component surface
// as broken orderings rather than silent drift. EXPERIMENTS.md records
// the full-scale numbers.

import (
	"fmt"
	"math"
	"testing"

	"espsim/internal/stats"
)

// shapeHarness runs the suite at reduced scale; memoization makes the
// whole file cost roughly one full sweep.
var shared *Harness

func shapeHarness() *Harness {
	if shared == nil {
		shared = NewHarness()
		shared.Scale = 0.5
	}
	return shared
}

// mustFig adapts a (Figure, error) figure generator for tests: the
// curried form lets the two-value call expand into the argument list.
func mustFig(t *testing.T) func(Figure, error) Figure {
	return func(f Figure, err error) Figure {
		if err != nil {
			t.Helper()
			t.Fatalf("figure generation: %v", err)
		}
		return f
	}
}

func TestShapeFig9Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config sweep")
	}
	f := mustFig(t)(shapeHarness().Fig9())
	get := func(name string) float64 {
		v, ok := f.Summary[name]
		if !ok || math.IsNaN(v) {
			t.Fatalf("missing series %q", name)
		}
		return v
	}
	espNL, raNL, nls, nl, ra, espOnly :=
		get("ESP+NL"), get("Runahead+NL"), get("NL+S"), get("NL"), get("Runahead"), get("ESP")
	// The paper's Figure 9 ordering.
	if !(espNL > raNL) {
		t.Errorf("ESP+NL (%.1f) must beat Runahead+NL (%.1f)", espNL, raNL)
	}
	if !(raNL > nls) {
		t.Errorf("Runahead+NL (%.1f) must beat NL+S (%.1f)", raNL, nls)
	}
	if !(nls >= nl) {
		t.Errorf("NL+S (%.1f) must be at least NL (%.1f)", nls, nl)
	}
	if !(nl > ra) {
		t.Errorf("NL (%.1f) must beat bare runahead (%.1f)", nl, ra)
	}
	if ra <= 0 || espOnly <= 0 {
		t.Errorf("both assists must improve on the bare baseline: RA %.1f, ESP %.1f", ra, espOnly)
	}
	// Stride adds almost nothing over NL (paper: 0.1%).
	if nls-nl > 3 {
		t.Errorf("stride adds %.1f points over NL; paper says ~0.1", nls-nl)
	}
	// ESP+NL's margin over NL+S is the headline: it must be substantial.
	if espNL-nls < 4 {
		t.Errorf("ESP+NL margin over NL+S is only %.1f points", espNL-nls)
	}
}

func TestShapeFig10Sources(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config sweep")
	}
	f := mustFig(t)(shapeHarness().Fig10())
	i := f.Summary["ESP-I+NL"]
	ib := f.Summary["ESP-I,B+NL"]
	ibd := f.Summary["ESP-I,B,D+NL"]
	if !(i < ib && ib < ibd) {
		t.Errorf("each optimization must add benefit: I=%.1f I,B=%.1f I,B,D=%.1f", i, ib, ibd)
	}
	if f.Summary["NaiveESP+NL"] >= ibd {
		t.Errorf("naive ESP (%.1f) must not beat the full design (%.1f)",
			f.Summary["NaiveESP+NL"], ibd)
	}
}

func TestShapeFig11aICache(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config sweep")
	}
	f := mustFig(t)(shapeHarness().Fig11a())
	base, nli := f.Summary["base"], f.Summary["NL-I"]
	espI, espNL, ideal := f.Summary["ESP-I"], f.Summary["ESP-I+NL-I"], f.Summary["idealESP-I+NL-I"]
	if !(base > nli) {
		t.Errorf("NL-I must cut MPKI: %.1f vs %.1f", nli, base)
	}
	if !(nli > espNL) {
		t.Errorf("ESP-I+NL-I (%.1f) must beat NL-I alone (%.1f)", espNL, nli)
	}
	if !(espI < base) {
		t.Errorf("ESP-I alone (%.1f) must beat base (%.1f)", espI, base)
	}
	if !(ideal <= espNL) {
		t.Errorf("ideal (%.1f) must lower-bound real ESP (%.1f)", ideal, espNL)
	}
}

func TestShapeFig11bDCache(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config sweep")
	}
	f := mustFig(t)(shapeHarness().Fig11b())
	base := f.Summary["base"]
	raD := f.Summary["Runahead-D"]
	espD := f.Summary["ESP-D"]
	ideal := f.Summary["idealESP-D+NL-D"]
	if !(raD < base && espD < base) {
		t.Errorf("both techniques must cut the D miss rate: base %.2f, RA-D %.2f, ESP-D %.2f",
			base, raD, espD)
	}
	// Paper: runahead is at least as good as capacity-limited ESP on the
	// data side, and ideal ESP closes the gap.
	if raD > espD*1.15 {
		t.Errorf("runahead-D (%.2f) should not lose badly to ESP-D (%.2f)", raD, espD)
	}
	if !(ideal < espD) {
		t.Errorf("ideal ESP-D (%.2f) must beat real ESP-D (%.2f)", ideal, espD)
	}
}

func TestShapeFig12Branch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config sweep")
	}
	f := mustFig(t)(shapeHarness().Fig12())
	base := f.Summary["NL+S"]
	noextra := f.Summary["BP-noextra"]
	sepctx := f.Summary["BP-sepctx"]
	espBP := f.Summary["BP-esp"]
	// Paper: naive sharing does not help (it hurts slightly); the
	// separate context helps; the full design (context + B-list) wins.
	if noextra < base {
		t.Errorf("naive predictor sharing (%.2f) should not beat the baseline (%.2f)", noextra, base)
	}
	if !(sepctx < noextra) {
		t.Errorf("separate PIR (%.2f) must beat naive sharing (%.2f)", sepctx, noextra)
	}
	if !(espBP < sepctx) {
		t.Errorf("B-list training (%.2f) must improve on the bare context (%.2f)", espBP, sepctx)
	}
	if !(espBP < base) {
		t.Errorf("full ESP (%.2f) must beat the baseline rate (%.2f)", espBP, base)
	}
}

func TestShapeFig3Potential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config sweep")
	}
	f := mustFig(t)(shapeHarness().Fig3())
	all := f.Summary["perfectAll"]
	l1i := f.Summary["perfectL1I"]
	bp := f.Summary["perfectBP"]
	l1d := f.Summary["perfectL1D"]
	// Paper: perfect-everything roughly doubles performance.
	if all < 60 || all > 160 {
		t.Errorf("perfect-all improvement %.0f%%, paper says ~100%%", all)
	}
	// Each individual factor is meaningful but far from the combination.
	for name, v := range map[string]float64{"L1I": l1i, "BP": bp, "L1D": l1d} {
		if v <= 0 {
			t.Errorf("perfect %s shows no potential (%.1f)", name, v)
		}
		if v >= all {
			t.Errorf("perfect %s (%.1f) exceeds perfect-all (%.1f)", name, v, all)
		}
	}
	// The front end dominates the back end (the paper's motivation).
	if l1i < bp/2 {
		t.Errorf("I-cache potential (%.1f) implausibly small vs BP (%.1f)", l1i, bp)
	}
}

func TestShapeFig13WorkingSets(t *testing.T) {
	if testing.Short() {
		t.Skip("instrumented sweep")
	}
	f := mustFig(t)(shapeHarness().Fig13())
	esp1 := f.Series["ESP1"]
	esp2 := f.Series["ESP2"]
	if len(esp1) < 2 || len(esp2) < 2 {
		t.Fatal("missing mode series")
	}
	// Paper's provisioning: ESP-1's 95%-reuse working set fits 5.5 KB
	// (88 lines); ESP-2's fits 0.5 KB (8 lines), within a small factor.
	if esp1[1] > 110 {
		t.Errorf("ESP-1 95%%-reuse working set %v lines; paper provisions 88", esp1[1])
	}
	if esp2[1] > 30 {
		t.Errorf("ESP-2 95%%-reuse working set %v lines; paper provisions 8", esp2[1])
	}
	if !(esp2[1] < esp1[1]) {
		t.Error("ESP-2 working set must be smaller than ESP-1's")
	}
	// Deep modes see almost nothing (the reason the paper stops at 2).
	if deep, ok := f.Series["ESP6"]; ok && len(deep) >= 2 && deep[1] > esp2[1] {
		t.Errorf("ESP-6 working set (%v) larger than ESP-2's (%v)", deep[1], esp2[1])
	}
}

func TestShapeFig14Energy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config sweep")
	}
	f := mustFig(t)(shapeHarness().Fig14())
	rel := f.Summary["relative-energy"]
	extra := f.Summary["extra-inst%"]
	if rel <= 1.0 || rel > 1.25 {
		t.Errorf("relative energy %.3f; paper: ~1.08", rel)
	}
	if extra < 5 || extra > 40 {
		t.Errorf("extra instructions %.1f%%; paper: 21.2%%", extra)
	}
}

func TestShapeHeadlineTable(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config sweep")
	}
	tbl, err := shapeHarness().Headline()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("headline table has %d rows", len(tbl.Rows))
	}
}

func TestShapeRelatedWork(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config sweep")
	}
	f := mustFig(t)(shapeHarness().FigRelated())
	// The paper's §7 claim: ESP outperforms both event-aware
	// instruction prefetchers with a fraction of their hardware.
	if !(f.Summary["ESP"] > f.Summary["EFetch"]) {
		t.Errorf("ESP (%.1f) must beat EFetch (%.1f)", f.Summary["ESP"], f.Summary["EFetch"])
	}
	if !(f.Summary["ESP"] > f.Summary["PIF"]) {
		t.Errorf("ESP (%.1f) must beat PIF (%.1f)", f.Summary["ESP"], f.Summary["PIF"])
	}
	if f.Summary["EFetch"] <= 0 || f.Summary["PIF"] <= 0 {
		t.Errorf("comparison prefetchers show no benefit at all: EFetch %.1f, PIF %.1f",
			f.Summary["EFetch"], f.Summary["PIF"])
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config sweep")
	}
	h := NewHarness()
	p := fastProfile()
	abls, err := h.AllAblations(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range abls {
		if len(a.Rows) < 3 {
			t.Fatalf("ablation %q has %d rows", a.Parameter, len(a.Rows))
		}
		for _, r := range a.Rows {
			if r.ImprovementPct < -20 || r.ImprovementPct > 60 {
				t.Errorf("ablation %q setting %q implausible: %.1f%%",
					a.Parameter, r.Setting, r.ImprovementPct)
			}
		}
	}
	// Depth 2 must beat depth 1 (the paper's core provisioning claim).
	d, err := h.AblateJumpDepth(p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows[1].ImprovementPct <= d.Rows[0].ImprovementPct {
		t.Errorf("jump depth 2 (%.1f) should beat depth 1 (%.1f)",
			d.Rows[1].ImprovementPct, d.Rows[0].ImprovementPct)
	}
}

// TestShapeEventLength locks in deviation 1's cause: ESP+NL's gain over
// NL+S falls strictly as amazon's events grow x1 to x8, and stays
// positive.
func TestShapeEventLength(t *testing.T) {
	f := mustFig(t)(shapeHarness().FigEventLen())
	gain := f.Series["gain%"]
	for i, g := range gain {
		if !(g > 0) {
			t.Errorf("%s: gain %.1f%% is not positive", f.Apps[i], g)
		}
		if i > 0 && !(g < gain[i-1]) {
			t.Errorf("%s: gain %.1f%% does not fall below %s's %.1f%%", f.Apps[i], g, f.Apps[i-1], gain[i-1])
		}
	}
}

func TestHarnessMemoization(t *testing.T) {
	h := NewHarness()
	h.MaxEvents = 10
	p := fastProfile()
	a, err := h.Run(p, NLConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Run(p, NLConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("memoized results differ")
	}
}

func TestImprovementHelperAgreesWithSpeedup(t *testing.T) {
	if got := stats.Improvement(2.0); got != 100 {
		t.Fatalf("Improvement(2.0) = %v", got)
	}
}

func TestShapeSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	h := NewHarness()
	p := fastProfile()
	tbl, err := h.SeedStudy(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The min row must still show a clear improvement: the result is a
	// property of the workload statistics, not of one seed.
	var min float64
	_, err = fmt.Sscanf(tbl.Rows[0][1], "%f", &min)
	if err != nil {
		t.Fatalf("parsing seed table: %v", err)
	}
	if min < 2 {
		t.Fatalf("worst-seed improvement %.1f%%: not robust", min)
	}
}
