package esp

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"espsim/internal/core"
	"espsim/internal/mem"
	"espsim/internal/sim"
	"espsim/internal/stats"
	"espsim/internal/trace"
	"espsim/internal/workload"
)

// Harness regenerates the paper's evaluation figures (DESIGN.md §4). Each
// FigN method returns a Figure holding a rendered table plus the raw
// series, and results are memoized across figures — Figure 9's ESP+NL run
// is Figure 11's and Figure 14's too.
//
// The harness is safe for concurrent use: figure methods may run in
// parallel (see RunAll) and concurrent requests for the same
// (profile, config) cell share one simulation.
type Harness struct {
	// Scale multiplies every profile's event count (1 = default scaled
	// sessions; cmd/espbench -scale exposes it).
	Scale float64
	// MaxEvents truncates sessions when positive (fast unit tests).
	MaxEvents int
	// Timeout bounds the wall-clock time of one cell's replay; a cell
	// exceeding it stops at its next event and fails with an error
	// instead of hanging the sweep. Zero means no limit.
	Timeout time.Duration

	mu     sync.Mutex
	runner *sim.Runner
	cells  map[cellKey]*harnessCell
}

// cellKey identifies a memoized cell by value: a profile or config
// changed without being renamed is a different cell.
type cellKey struct {
	prof workload.Profile
	cfg  Config
}

// harnessCell memoizes one (profile, config) simulation. The sync.Once
// gives singleflight semantics: concurrent figure generators that need
// the same cell block on one computation instead of duplicating it.
type harnessCell struct {
	once sync.Once
	res  Result
	err  error
}

// NewHarness returns a harness at the default scale.
func NewHarness() *Harness {
	return &Harness{
		Scale:  1,
		runner: sim.NewRunner(),
		cells:  make(map[cellKey]*harnessCell),
	}
}

// Perf returns the engine's reuse and timing counters: how many cells
// ran, how often workloads and machines were reused instead of rebuilt,
// and the wall-clock split between building and simulating.
func (h *Harness) Perf() Perf {
	h.mu.Lock()
	r := h.runner
	h.mu.Unlock()
	if r == nil {
		return Perf{}
	}
	return r.Perf()
}

// Suite returns the benchmark profiles at the harness scale.
func (h *Harness) Suite() []workload.Profile {
	ps := workload.Suite()
	if h.Scale != 1 {
		for i := range ps {
			ps[i] = ps[i].Scale(h.Scale)
		}
	}
	return ps
}

// Run simulates (memoized) one profile under one configuration. All
// failure modes — invalid configuration, session build errors, a panic
// escaping the simulator, exceeding h.Timeout — come back as errors;
// the error is memoized like a result, so a failing cell is reported
// consistently by every figure that needs it.
func (h *Harness) Run(prof workload.Profile, cfg Config) (Result, error) {
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = h.MaxEvents
	}
	key := cellKey{prof, cfg}
	h.mu.Lock()
	if h.cells == nil {
		h.cells = make(map[cellKey]*harnessCell)
	}
	if h.runner == nil {
		h.runner = sim.NewRunner()
	}
	runner := h.runner
	cell, ok := h.cells[key]
	if !ok {
		cell = &harnessCell{}
		h.cells[key] = cell
	}
	h.mu.Unlock()
	cell.once.Do(func() {
		// The runner shares one materialized workload per profile,
		// MaxEvents, policy and queue depth (sim.Runner.WorkloadSched)
		// across every configuration and fits a pooled machine to each
		// cell instead of building one; it
		// also contains panics and stops the replay when ctx ends. The
		// memoized cell serves every caller, so only Timeout bounds it.
		ctx := context.Background()
		if h.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, h.Timeout)
			defer cancel()
		}
		cell.res, cell.err = runner.RunCell(ctx, prof.Name+"/"+cfg.Name, prof, cfg)
	})
	return cell.res, cell.err
}

// Figure is one regenerated paper figure: a rendered table plus the raw
// per-application series for programmatic checks.
type Figure struct {
	ID    string
	Title string
	// PaperNote states what the paper reports, for EXPERIMENTS.md.
	PaperNote string
	Apps      []string
	// Series maps a configuration label to per-application values in
	// Apps order; Summary holds the suite aggregate per label (the
	// paper's HMean bars). A cell whose simulation failed holds NaN and
	// is excluded from the aggregate.
	Series  map[string][]float64
	Summary map[string]float64
	// Order lists series labels in figure order.
	Order []string
	// CellErrors records failed (app, config) cells, keyed "app/config".
	// A figure with failed cells is still emitted: the healthy cells
	// stand, the failed ones are NaN-annotated here.
	CellErrors map[string]error
	Table      *stats.Table
}

// cellError annotates one failed (app, config) cell.
func (f *Figure) cellError(app, config string, err error) {
	if f.CellErrors == nil {
		f.CellErrors = make(map[string]error)
	}
	f.CellErrors[app+"/"+config] = err
}

// CellErrorKeys returns the failed-cell keys in sorted order (map
// iteration is randomized; summaries must be deterministic).
func (f *Figure) CellErrorKeys() []string {
	keys := make([]string, 0, len(f.CellErrors))
	for k := range f.CellErrors {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// hmeanValid aggregates the non-NaN values; NaN if none survived.
func hmeanValid(vals []float64) float64 {
	ok := vals[:0:0]
	for _, v := range vals {
		if !math.IsNaN(v) {
			ok = append(ok, v)
		}
	}
	if len(ok) == 0 {
		return math.NaN()
	}
	return stats.HarmonicMean(ok)
}

func appNames(ps []workload.Profile) []string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// improvementFigure runs base and each config per app and tabulates
// performance improvement (%) over base, with harmonic-mean summary.
// Failed cells degrade gracefully: they are NaN-annotated in the figure
// and excluded from the summary. An error is returned only when every
// cell failed (the figure would carry no information).
func (h *Harness) improvementFigure(id, title, note string, base Config, cfgs []Config) (Figure, error) {
	ps := h.Suite()
	fig := Figure{
		ID: id, Title: title, PaperNote: note,
		Apps:    appNames(ps),
		Series:  make(map[string][]float64),
		Summary: make(map[string]float64),
	}
	var firstErr error
	cells := 0
	for _, cfg := range cfgs {
		fig.Order = append(fig.Order, cfg.Name)
		var speedups []float64
		for _, p := range ps {
			cells++
			b, errB := h.Run(p, base)
			r, errR := h.Run(p, cfg)
			if err := firstOf(errB, errR); err != nil {
				fig.cellError(p.Name, cfg.Name, err)
				if firstErr == nil {
					firstErr = err
				}
				fig.Series[cfg.Name] = append(fig.Series[cfg.Name], math.NaN())
				speedups = append(speedups, math.NaN())
				continue
			}
			sp := r.Speedup(b)
			speedups = append(speedups, sp)
			fig.Series[cfg.Name] = append(fig.Series[cfg.Name], stats.Improvement(sp))
		}
		fig.Summary[cfg.Name] = stats.Improvement(hmeanValid(speedups))
	}
	if len(fig.CellErrors) == cells && cells > 0 {
		return fig, fmt.Errorf("esp: figure %s: every cell failed: %w", id, firstErr)
	}
	fig.Table = seriesTable(title+" — performance improvement (%) over "+base.Name, &fig, "%.1f")
	return fig, nil
}

func firstOf(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// metricFigure tabulates a per-result metric for each config and app,
// with the same graceful cell degradation as improvementFigure.
func (h *Harness) metricFigure(id, title, note string, cfgs []Config, metric func(Result) float64, format string) (Figure, error) {
	ps := h.Suite()
	fig := Figure{
		ID: id, Title: title, PaperNote: note,
		Apps:    appNames(ps),
		Series:  make(map[string][]float64),
		Summary: make(map[string]float64),
	}
	var firstErr error
	cells := 0
	for _, cfg := range cfgs {
		fig.Order = append(fig.Order, cfg.Name)
		var vals []float64
		for _, p := range ps {
			cells++
			r, err := h.Run(p, cfg)
			if err != nil {
				fig.cellError(p.Name, cfg.Name, err)
				if firstErr == nil {
					firstErr = err
				}
				vals = append(vals, math.NaN())
				fig.Series[cfg.Name] = append(fig.Series[cfg.Name], math.NaN())
				continue
			}
			v := metric(r)
			vals = append(vals, v)
			fig.Series[cfg.Name] = append(fig.Series[cfg.Name], v)
		}
		fig.Summary[cfg.Name] = hmeanValid(vals)
	}
	if len(fig.CellErrors) == cells && cells > 0 {
		return fig, fmt.Errorf("esp: figure %s: every cell failed: %w", id, firstErr)
	}
	fig.Table = seriesTable(title, &fig, format)
	return fig, nil
}

func seriesTable(title string, fig *Figure, format string) *stats.Table {
	t := stats.NewTable(title, append([]string{"config"}, append(fig.Apps, "HMean")...)...)
	for _, name := range fig.Order {
		row := append(fig.Series[name], fig.Summary[name])
		t.AddF(name, format, row...)
	}
	return t
}

// Fig3 regenerates Figure 3: performance potential with perfect
// structures, over the NL+S baseline machine.
func (h *Harness) Fig3() (Figure, error) {
	return h.improvementFigure("fig3",
		"Figure 3: performance potential in web applications",
		"Paper: perfect-all nearly doubles performance; perfect L1-I is the largest single factor.",
		NLSConfig(),
		[]Config{PerfectL1DConfig(), PerfectBPConfig(), PerfectL1IConfig(), PerfectAllConfig()})
}

// Fig6 regenerates Figure 6: the benchmark table (paper sessions and the
// scaled sessions simulated here).
func (h *Harness) Fig6() (Figure, error) {
	ps := h.Suite()
	fig := Figure{
		ID:        "fig6",
		Title:     "Figure 6: benchmark web applications",
		PaperNote: "Paper sessions: 465–13,409 events, 26M–2,722M instructions; simulated sessions preserve per-app ratios at reduced scale.",
		Apps:      appNames(ps),
	}
	t := stats.NewTable(fig.Title,
		"app", "actions performed", "paper events", "paper Minsts", "sim events", "sim insts", "insts/event")
	for _, p := range ps {
		sess, err := workload.NewSession(p)
		if err != nil {
			return fig, fmt.Errorf("esp: figure fig6: building session %s: %w", p.Name, err)
		}
		total := sess.TotalInsts()
		actions := p.Actions
		if len(actions) > 44 {
			actions = actions[:41] + "..."
		}
		t.Add(p.Name,
			actions,
			fmt.Sprintf("%d", p.PaperEvents),
			fmt.Sprintf("%.0f", float64(p.PaperInsts)/1e6),
			fmt.Sprintf("%d", len(sess.Events)),
			fmt.Sprintf("%d", total),
			fmt.Sprintf("%d", total/int64(len(sess.Events))))
	}
	fig.Table = t
	return fig, nil
}

// Fig8 regenerates Figure 8: ESP's hardware budget.
func (h *Harness) Fig8() (Figure, error) {
	rows := core.HardwareBudget(core.DefaultSizes())
	fig := Figure{
		ID:        "fig8",
		Title:     "Figure 8: ESP hardware configuration",
		PaperNote: "Paper: 12.6 KB for ESP-1, 1.2 KB for ESP-2 (13.8 KB total).",
	}
	t := stats.NewTable(fig.Title, "structure", "description", "ESP-1", "ESP-2")
	for _, r := range rows {
		t.Add(r.Structure, r.Description,
			fmt.Sprintf("%d B", r.ESP1Bytes), fmt.Sprintf("%d B", r.ESP2Bytes))
	}
	t.Add("All HW additions", "",
		fmt.Sprintf("%.1f KB", float64(core.BudgetTotal(rows, 0))/1024),
		fmt.Sprintf("%.1f KB", float64(core.BudgetTotal(rows, 1))/1024))
	fig.Table = t
	return fig, nil
}

// Fig9 regenerates Figure 9: ESP vs next-line vs runahead, normalized to
// the no-prefetching baseline.
func (h *Harness) Fig9() (Figure, error) {
	return h.improvementFigure("fig9",
		"Figure 9: performance of ESP, next-line and runahead",
		"Paper HMeans: NL 13.8%, NL+S ~13.9%, Runahead 12%, Runahead+NL 21%, ESP+NL 32% (16% over NL+S).",
		BaselineConfig(),
		[]Config{NLConfig(), NLSConfig(), RunaheadConfig(), RunaheadNLConfig(), ESPConfig(), ESPNLConfig()})
}

// Fig10 regenerates Figure 10: sources of performance in ESP.
func (h *Harness) Fig10() (Figure, error) {
	return h.improvementFigure("fig10",
		"Figure 10: sources of performance in ESP",
		"Paper: naive ESP gains almost nothing (hurts pixlr); I-lists add 9.1% over NL, B-lists 6%, D-lists 3.3%.",
		BaselineConfig(),
		[]Config{NaiveESPConfig(), NaiveESPNLConfig(), ESPIOnlyNLConfig(), ESPIBNLConfig(), ESPIBDNLConfig()})
}

// Fig11a regenerates Figure 11a: L1 I-cache MPKI.
func (h *Harness) Fig11a() (Figure, error) {
	return h.metricFigure("fig11a",
		"Figure 11a: L1-I cache misses per kilo-instruction",
		"Paper: base ~23.5, NL ~17.5, ESP-I+NL-I ~11.6, close to ideal.",
		[]Config{BaselineConfig(), NLIOnlyConfig(), ESPIOnlyConfig(), ESPIOnlyNLIConfig(), IdealESPINLIConfig()},
		func(r Result) float64 { return r.IMPKI }, "%.1f")
}

// Fig11b regenerates Figure 11b: L1 D-cache miss rate (%).
func (h *Harness) Fig11b() (Figure, error) {
	return h.metricFigure("fig11b",
		"Figure 11b: L1-D cache miss rate (%)",
		"Paper: base 4.4%, ESP-D+NL-D 1.8%, Runahead-D+NL-D 0.8%, ideal ESP-D comparable to runahead.",
		[]Config{BaselineConfig(), NLDOnlyConfig(), RunaheadDConfig(), RunaheadDNLDConfig(),
			ESPDOnlyConfig(), ESPDOnlyNLDConfig(), IdealESPDNLDConfig()},
		func(r Result) float64 { return r.DMissRate * 100 }, "%.2f")
}

// Fig12 regenerates Figure 12: branch misprediction rate (%) across the
// predictor design points.
func (h *Harness) Fig12() (Figure, error) {
	return h.metricFigure("fig12",
		"Figure 12: branch misprediction rate (%)",
		"Paper: base 9.9%, naive sharing ~base, replicated tables 7.4%, separate PIR + B-list (ESP) 6.1%.",
		[]Config{NLSConfig(), ESPBPNoExtraHWConfig(), ESPBPSeparateContextConfig(),
			ESPBPReplicatedConfig(), ESPBPFullConfig()},
		func(r Result) float64 { return r.MispredictRate * 100 }, "%.2f")
}

// Fig13 regenerates Figure 13: pre-execution working-set sizes per ESP
// mode, aggregated across the suite, plus the normal-mode working set.
// An application whose instrumented run fails is skipped from the
// aggregate and annotated; the figure is produced from the rest.
func (h *Harness) Fig13() (Figure, error) {
	ps := h.Suite()
	study := core.NewWorkingSetStudy(8)
	fig := Figure{
		ID:        "fig13",
		Title:     "Figure 13: I-cachelet working sets (cache lines)",
		PaperNote: "Paper: 95%-reuse sizing gives ~5.5 KB (88 lines) for ESP-1 and ~0.5 KB (8 lines) for ESP-2; modes beyond ESP-2 see almost no use; normal events are an order of magnitude larger.",
		Series:    make(map[string][]float64),
		Summary:   make(map[string]float64),
	}
	merged := 0
	var firstErr error
	for _, p := range ps {
		r, err := h.Run(p, WorkingSetStudyConfig())
		if err != nil {
			fig.cellError(p.Name, WorkingSetStudyConfig().Name, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		study.Merge(r.Study)
		merged++
	}
	if merged == 0 {
		return fig, fmt.Errorf("esp: figure fig13: every instrumented run failed: %w", firstErr)
	}
	normalMax, normal95, err := h.normalWorkingSet(ps)
	if err != nil {
		return fig, fmt.Errorf("esp: figure fig13: %w", err)
	}

	t := stats.NewTable(fig.Title, "mode", "events", "max lines", "95% reuse", "85% reuse", "75% reuse")
	t.Add("Normal", "-", fmt.Sprintf("%d", normalMax), fmt.Sprintf("%d", normal95), "-", "-")
	fig.Series["normal-max"] = []float64{float64(normalMax)}
	for _, m := range study.ReportI() {
		t.Add(fmt.Sprintf("ESP%d", m.Mode),
			fmt.Sprintf("%d", m.Events),
			fmt.Sprintf("%d", m.MaxLines),
			fmt.Sprintf("%d", m.Lines95),
			fmt.Sprintf("%d", m.Lines85),
			fmt.Sprintf("%d", m.Lines75))
		key := fmt.Sprintf("ESP%d", m.Mode)
		fig.Order = append(fig.Order, key)
		fig.Series[key] = []float64{float64(m.MaxLines), float64(m.Lines95), float64(m.Lines85), float64(m.Lines75)}
		fig.Summary[key] = float64(m.Lines95)
	}
	fig.Table = t
	return fig, nil
}

// normalWorkingSet profiles the instruction working sets of events
// executing normally (the "Normal" bar of Figure 13). It samples a bounded
// number of events per application.
func (h *Harness) normalWorkingSet(ps []workload.Profile) (maxLines, lines95 int, err error) {
	const perApp = 24
	var all95 []float64
	for _, p := range ps {
		sess, err := workload.NewSession(p)
		if err != nil {
			return 0, 0, fmt.Errorf("building session %s: %w", p.Name, err)
		}
		n := len(sess.Events)
		if n > perApp {
			n = perApp
		}
		for i := 0; i < n; i++ {
			ws := mem.NewWorkingSet()
			s := sess.Gen.Stream(sess.Events[i], false)
			last := uint64(0)
			for {
				in, ok := s.Next()
				if !ok {
					break
				}
				if l := trace.Line(in.PC); l != last {
					ws.Touch(in.PC)
					last = l
				}
			}
			if u := ws.Unique(); u > maxLines {
				maxLines = u
			}
			all95 = append(all95, float64(ws.LinesFor(0.95)))
		}
	}
	return maxLines, int(stats.Percentile(all95, 0.95)), nil
}

// Fig14 regenerates Figure 14: energy of ESP+NL relative to NL, with the
// paper's three-part breakdown and extra-instruction annotations.
func (h *Harness) Fig14() (Figure, error) {
	ps := h.Suite()
	fig := Figure{
		ID:        "fig14",
		Title:     "Figure 14: energy relative to NL",
		PaperNote: "Paper: ESP costs ~8% more energy, executing 21.2% more instructions on average.",
		Apps:      appNames(ps),
		Series:    make(map[string][]float64),
		Summary:   make(map[string]float64),
		Order:     []string{"relative-energy", "extra-inst%"},
	}
	t := stats.NewTable(fig.Title,
		"app", "NL", "ESP+NL", "mispredict", "static", "dynamic", "extra insts %")
	var rels, extras []float64
	var firstErr error
	for _, p := range ps {
		nl, errNL := h.Run(p, NLConfig())
		e, errE := h.Run(p, ESPNLConfig())
		if err := firstOf(errNL, errE); err != nil {
			fig.cellError(p.Name, ESPNLConfig().Name, err)
			if firstErr == nil {
				firstErr = err
			}
			fig.Series["relative-energy"] = append(fig.Series["relative-energy"], math.NaN())
			fig.Series["extra-inst%"] = append(fig.Series["extra-inst%"], math.NaN())
			t.Add(p.Name, "1.00", "error", "-", "-", "-", "-")
			continue
		}
		rel := e.Energy.RelativeTo(nl.Energy)
		rels = append(rels, rel.Total())
		extras = append(extras, e.ExtraInstPct)
		fig.Series["relative-energy"] = append(fig.Series["relative-energy"], rel.Total())
		fig.Series["extra-inst%"] = append(fig.Series["extra-inst%"], e.ExtraInstPct)
		t.Add(p.Name, "1.00",
			fmt.Sprintf("%.2f", rel.Total()),
			fmt.Sprintf("%.2f", rel.Mispredict),
			fmt.Sprintf("%.2f", rel.Static),
			fmt.Sprintf("%.2f", rel.Dynamic),
			fmt.Sprintf("%.1f", e.ExtraInstPct))
	}
	if len(rels) == 0 {
		return fig, fmt.Errorf("esp: figure fig14: every cell failed: %w", firstErr)
	}
	fig.Summary["relative-energy"] = stats.Mean(rels)
	fig.Summary["extra-inst%"] = stats.Mean(extras)
	t.Add("Mean", "1.00",
		fmt.Sprintf("%.2f", fig.Summary["relative-energy"]), "", "", "",
		fmt.Sprintf("%.1f", fig.Summary["extra-inst%"]))
	fig.Table = t
	return fig, nil
}

// FigRelated regenerates the §7 related-work comparison: ESP against the
// event-aware instruction prefetchers EFetch and PIF, with their hardware
// budgets. The paper reports ESP attaining 6% more performance than
// EFetch at 3× less hardware and 10% more than PIF at 15× less.
func (h *Harness) FigRelated() (Figure, error) {
	fig, err := h.improvementFigure("related",
		"Section 7: ESP vs event-aware instruction prefetchers",
		"Paper: ESP beats EFetch by 6% with 3x less hardware, and PIF by 10% with 15x less; §7 also argues an idle helper core could do ESP's job but costs a core plus live-in/list transfer overheads.",
		BaselineConfig(),
		[]Config{NLIOnlyConfig(), EFetchConfig(), PIFConfig(), IdleCoreConfig(), ESPConfig(), ESPNLConfig()})
	if err != nil {
		return fig, err
	}
	budgets := map[string]string{
		"NL-I": "~0 KB", "EFetch": "~39 KB", "PIF": "~190 KB",
		"IdleCore": "a full core", "ESP": "13.8 KB", "ESP+NL": "13.8 KB",
	}
	t := stats.NewTable(fig.Title, "config", "HW budget", "improvement % over base (HMean)")
	for _, name := range fig.Order {
		t.Add(name, budgets[name], fmt.Sprintf("%.1f", fig.Summary[name]))
	}
	fig.Table = t
	return fig, nil
}

// FigEventLen re-derives deviation 1 of EXPERIMENTS.md: amazon with
// events 1, 2, 4 and 8 times as long and as many times fewer (at least
// 4), under NL+S and ESP+NL. The generator's code working set grows only
// as len^0.8 (DESIGN.md §6), so a long event warms the L1-I for itself:
// ESP's gain falls with event length while its coverage barely moves.
func (h *Harness) FigEventLen() (Figure, error) {
	var prof workload.Profile
	for _, p := range h.Suite() {
		if p.Name == "amazon" {
			prof = p
		}
	}
	fig := Figure{
		ID:        "eventlen",
		Title:     "Event length: amazon with longer, fewer events",
		PaperNote: "Not a paper figure: the cause of deviation 1. Longer events leave ESP fewer L1-I misses to cover (NL+S MPKI), so its gain falls while its coverage of an event stays nearly flat.",
		Apps:      []string{"x1", "x2", "x4", "x8"},
		Series:    make(map[string][]float64),
		Order:     []string{"gain%", "coverage%", "NL+S I-MPKI", "ESP+NL I-MPKI"},
	}
	t := stats.NewTable(fig.Title,
		"event length", "ESP+NL gain % over NL+S", "coverage %", "NL+S L1-I MPKI", "ESP+NL L1-I MPKI")
	var firstErr error
	for i, label := range fig.Apps {
		mult := 1 << i
		p := prof
		p.MeanEventLen *= mult
		p.Events = max(p.Events/mult, 4)
		base, errB := h.Run(p, NLSConfig())
		e, errE := h.Run(p, ESPNLConfig())
		row := []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}
		if err := firstOf(errB, errE); err != nil {
			fig.cellError(label, ESPNLConfig().Name, err)
			if firstErr == nil {
				firstErr = err
			}
			t.Add(label, "error", "-", "-", "-")
		} else {
			cov := float64(e.ESPStats.PreExecInsts) / float64(e.Insts)
			row = []float64{stats.Improvement(e.Speedup(base)), cov * 100, base.IMPKI, e.IMPKI}
			t.Add(label, fmt.Sprintf("%.1f", row[0]), fmt.Sprintf("%.0f", row[1]),
				fmt.Sprintf("%.1f", row[2]), fmt.Sprintf("%.1f", row[3]))
		}
		for k, name := range fig.Order {
			fig.Series[name] = append(fig.Series[name], row[k])
		}
	}
	if len(fig.CellErrors) == len(fig.Apps) {
		return fig, fmt.Errorf("esp: figure eventlen: every cell failed: %w", firstErr)
	}
	fig.Table = t
	return fig, nil
}

// Headline computes the abstract's summary metrics: ESP+NL speedup over
// the NL+S baseline (paper: 16%), I-MPKI (17.5 → 11.6), L1-D miss rate,
// and misprediction rate (9.9% → 6.1%).
func (h *Harness) Headline() (*stats.Table, error) {
	ps := h.Suite()
	var spESP, spRA []float64
	var mpkiNL, mpkiESP, dNL, dESP, bNL, bESP []float64
	for _, p := range ps {
		base, err := h.Run(p, NLSConfig())
		if err != nil {
			return nil, fmt.Errorf("esp: headline: %w", err)
		}
		e, err := h.Run(p, ESPNLConfig())
		if err != nil {
			return nil, fmt.Errorf("esp: headline: %w", err)
		}
		ra, err := h.Run(p, RunaheadNLConfig())
		if err != nil {
			return nil, fmt.Errorf("esp: headline: %w", err)
		}
		spESP = append(spESP, e.Speedup(base))
		spRA = append(spRA, ra.Speedup(base))
		mpkiNL = append(mpkiNL, base.IMPKI)
		mpkiESP = append(mpkiESP, e.IMPKI)
		dNL = append(dNL, base.DMissRate*100)
		dESP = append(dESP, e.DMissRate*100)
		bNL = append(bNL, base.MispredictRate*100)
		bESP = append(bESP, e.MispredictRate*100)
	}
	t := stats.NewTable("Headline (abstract) metrics", "metric", "paper", "measured")
	t.Add("ESP+NL speedup over NL+S (HMean %)", "16",
		fmt.Sprintf("%.1f", stats.Improvement(stats.HarmonicMean(spESP))))
	t.Add("Runahead+NL speedup over NL+S (HMean %)", "6.4",
		fmt.Sprintf("%.1f", stats.Improvement(stats.HarmonicMean(spRA))))
	t.Add("L1-I MPKI: NL+S -> ESP+NL", "17.5 -> 11.6",
		fmt.Sprintf("%.1f -> %.1f", stats.HarmonicMean(mpkiNL), stats.HarmonicMean(mpkiESP)))
	t.Add("L1-D miss rate %: NL+S -> ESP+NL", "3.2 -> 1.8",
		fmt.Sprintf("%.1f -> %.1f", stats.HarmonicMean(dNL), stats.HarmonicMean(dESP)))
	t.Add("Branch mispredict %: NL+S -> ESP+NL", "9.9 -> 6.1",
		fmt.Sprintf("%.1f -> %.1f", stats.HarmonicMean(bNL), stats.HarmonicMean(bESP)))
	return t, nil
}

// SeedStudy re-runs one application's headline comparison across
// perturbed workload seeds: the sessions are deterministic, so this is
// the robustness check that the measured speedups are properties of the
// workload's statistics rather than of one lucky seed.
func (h *Harness) SeedStudy(prof workload.Profile, n int) (*stats.Table, error) {
	if n < 1 {
		return nil, fmt.Errorf("esp: seed study needs at least one seed, got %d", n)
	}
	var imps []float64
	for k := 0; k < n; k++ {
		p := prof
		p.Seed = workload.Hash2(prof.Seed, uint64(k))
		p.Name = fmt.Sprintf("%s#%d", prof.Name, k)
		base, err := h.Run(p, NLSConfig())
		if err != nil {
			return nil, fmt.Errorf("esp: seed study: %w", err)
		}
		e, err := h.Run(p, ESPNLConfig())
		if err != nil {
			return nil, fmt.Errorf("esp: seed study: %w", err)
		}
		imps = append(imps, stats.Improvement(e.Speedup(base)))
	}
	min, max := imps[0], imps[0]
	for _, v := range imps {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	t := stats.NewTable(
		fmt.Sprintf("Seed robustness: ESP+NL over NL+S on %s (%d seeds)", prof.Name, n),
		"statistic", "improvement %")
	t.AddF("min", "%.1f", min)
	t.AddF("mean", "%.1f", stats.Mean(imps))
	t.AddF("max", "%.1f", max)
	return t, nil
}
