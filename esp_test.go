package esp

import (
	"strings"
	"testing"

	"espsim/internal/eventq"
	"espsim/internal/trace"
	"espsim/internal/workload"
)

// fastProfile returns a reduced session for quick integration tests.
func fastProfile() workload.Profile {
	p := workload.Amazon()
	p.Events = 80
	return p
}

// mustRun simulates or fails the test: the known-good configurations
// used below must never error.
func mustRun(t *testing.T, prof workload.Profile, cfg Config) Result {
	t.Helper()
	r, err := Run(prof, cfg)
	if err != nil {
		t.Fatalf("Run(%s, %s): %v", prof.Name, cfg.Name, err)
	}
	return r
}

func TestRunProducesSaneResult(t *testing.T) {
	r, err := Run(fastProfile(), ESPNLConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Insts <= 0 || r.Cycles <= 0 {
		t.Fatalf("empty result: %+v", r)
	}
	if r.IPC <= 0 || r.IPC > 4 {
		t.Fatalf("IPC %v outside (0, width]", r.IPC)
	}
	if r.IMPKI <= 0 || r.DMissRate <= 0 || r.MispredictRate <= 0 {
		t.Fatalf("metrics missing: %+v", r)
	}
	if r.ESPStats == nil || r.ESPStats.PreExecInsts == 0 {
		t.Fatal("ESP stats missing")
	}
	if r.ExtraInstPct <= 0 {
		t.Fatal("ESP should execute extra instructions")
	}
	if r.Energy.Total() <= 0 {
		t.Fatal("no energy computed")
	}
}

func TestRunRejectsInvalidProfile(t *testing.T) {
	p := fastProfile()
	p.Events = 0
	if _, err := Run(p, BaselineConfig()); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	a := mustRun(t, fastProfile(), ESPNLConfig())
	b := mustRun(t, fastProfile(), ESPNLConfig())
	if a.Cycles != b.Cycles || a.Insts != b.Insts || a.CPU != b.CPU {
		t.Fatalf("simulation not deterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestConfigNamesUnique(t *testing.T) {
	cfgs := []Config{
		BaselineConfig(), NLConfig(), NLSConfig(), NLIOnlyConfig(), NLDOnlyConfig(),
		RunaheadConfig(), RunaheadNLConfig(), RunaheadDConfig(), RunaheadDNLDConfig(),
		ESPConfig(), ESPNLConfig(), NaiveESPConfig(), NaiveESPNLConfig(),
		ESPIOnlyNLConfig(), ESPIBNLConfig(), ESPIBDNLConfig(), ESPIOnlyConfig(),
		ESPIOnlyNLIConfig(), IdealESPINLIConfig(), ESPDOnlyConfig(), ESPDOnlyNLDConfig(),
		IdealESPDNLDConfig(), ESPBPNoExtraHWConfig(), ESPBPSeparateContextConfig(),
		ESPBPReplicatedConfig(), ESPBPFullConfig(), PerfectL1DConfig(), PerfectBPConfig(),
		PerfectL1IConfig(), PerfectAllConfig(), WorkingSetStudyConfig(),
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		if c.Name == "" {
			t.Fatal("config with empty name")
		}
		if seen[c.Name] {
			t.Fatalf("duplicate config name %q", c.Name)
		}
		seen[c.Name] = true
	}
}

// TestConfigByNameTable: every preset resolves, under every policy
// name and alias, to what SchedConfig builds, a hit allocates nothing,
// and names that are not a preset, or a preset scheduled twice, fail.
func TestConfigByNameTable(t *testing.T) {
	aliases := map[SchedPolicy][]string{
		SchedFIFO: {"", "@", "@fifo"}, SchedPriority: {"@prio", "@priority"},
		SchedEDF: {"@edf"}, SchedSlack: {"@slack", "@pes"},
	}
	for _, c := range NamedConfigs() {
		for p, suffixes := range aliases {
			want := SchedConfig(c, p)
			for _, suffix := range suffixes {
				got, err := ConfigByName(c.Name + suffix)
				if err != nil || got != want {
					t.Fatalf("ConfigByName(%q) = %+v, %v; want %+v", c.Name+suffix, got, err, want)
				}
			}
		}
	}
	for _, name := range []string{"nope", "ESP+NL@edf@edf", "ESP+NL@bogus", "esp+nl"} {
		if _, err := ConfigByName(name); err == nil {
			t.Errorf("ConfigByName(%q) resolved", name)
		}
	}
	got, _ := ConfigByName("ESP+NL")
	got.NLI = false
	if again, _ := ConfigByName("ESP+NL"); again != ESPNLConfig() {
		t.Fatal("changing a returned config changed the table")
	}
	var sink Config
	if allocs := testing.AllocsPerRun(100, func() { sink, _ = ConfigByName("ESP+NL@edf") }); allocs != 0 {
		t.Fatalf("a preset lookup allocates %.0f times, want 0", allocs)
	}
	if sink.Name != "ESP+NL@edf" {
		t.Fatalf("looked up %q", sink.Name)
	}
}

func TestPerfectStructuresAlwaysFaster(t *testing.T) {
	p := fastProfile()
	base := mustRun(t, p, NLSConfig())
	for _, cfg := range []Config{PerfectL1DConfig(), PerfectBPConfig(), PerfectL1IConfig(), PerfectAllConfig()} {
		r := mustRun(t, p, cfg)
		if r.Cycles >= base.Cycles {
			t.Errorf("%s (%d cycles) not faster than NL+S (%d)", cfg.Name, r.Cycles, base.Cycles)
		}
	}
	all := mustRun(t, p, PerfectAllConfig())
	one := mustRun(t, p, PerfectL1IConfig())
	if all.Cycles >= one.Cycles {
		t.Fatal("perfect-all should beat perfect-L1I alone")
	}
}

func TestPerfectBPZeroMispredicts(t *testing.T) {
	r := mustRun(t, fastProfile(), PerfectBPConfig())
	if r.CPU.Mispredicts != 0 {
		t.Fatalf("perfect BP mispredicted %d times", r.CPU.Mispredicts)
	}
}

func TestESPImprovesOnEveryApp(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite comparison")
	}
	for _, p := range workload.Suite() {
		p := p.Scale(0.4)
		base := mustRun(t, p, NLSConfig())
		e := mustRun(t, p, ESPNLConfig())
		if e.Cycles >= base.Cycles {
			t.Errorf("%s: ESP+NL (%d cycles) not faster than NL+S (%d)", p.Name, e.Cycles, base.Cycles)
		}
	}
}

func TestESPReducesFrontEndMetrics(t *testing.T) {
	p := fastProfile()
	base := mustRun(t, p, NLSConfig())
	e := mustRun(t, p, ESPNLConfig())
	if e.IMPKI >= base.IMPKI {
		t.Errorf("ESP did not reduce I-MPKI: %.2f vs %.2f", e.IMPKI, base.IMPKI)
	}
	if e.MispredictRate >= base.MispredictRate {
		t.Errorf("ESP did not reduce mispredicts: %.3f vs %.3f", e.MispredictRate, base.MispredictRate)
	}
	if e.DMissRate >= base.DMissRate {
		t.Errorf("ESP did not reduce D misses: %.4f vs %.4f", e.DMissRate, base.DMissRate)
	}
}

func TestIdealESPBeatsRealESP(t *testing.T) {
	p := fastProfile()
	real := mustRun(t, p, ESPIOnlyNLIConfig())
	ideal := mustRun(t, p, IdealESPINLIConfig())
	if ideal.IMPKI > real.IMPKI {
		t.Fatalf("ideal ESP-I MPKI %.2f worse than real %.2f", ideal.IMPKI, real.IMPKI)
	}
}

func TestRunaheadBetweenBaselineAndESP(t *testing.T) {
	p := fastProfile()
	base := mustRun(t, p, BaselineConfig())
	ra := mustRun(t, p, RunaheadConfig())
	if ra.Cycles >= base.Cycles {
		t.Fatal("runahead slower than doing nothing")
	}
	if ra.RAStats == nil || ra.RAStats.Episodes == 0 {
		t.Fatal("runahead never ran")
	}
}

func TestEnergyESPCostsMore(t *testing.T) {
	p := fastProfile()
	nl := mustRun(t, p, NLConfig())
	e := mustRun(t, p, ESPNLConfig())
	rel := e.Energy.RelativeTo(nl.Energy).Total()
	if rel <= 1.0 {
		t.Fatalf("ESP relative energy %.3f; extra instructions must cost something", rel)
	}
	if rel > 1.35 {
		t.Fatalf("ESP relative energy %.3f implausibly high (paper: ~1.08)", rel)
	}
}

func TestSpeedupHelper(t *testing.T) {
	a := Result{Cycles: 100}
	b := Result{Cycles: 200}
	if a.Speedup(b) != 2 {
		t.Fatalf("Speedup = %v", a.Speedup(b))
	}
	var zero Result
	if zero.Speedup(b) != 0 {
		t.Fatal("zero-cycle result should not divide by zero")
	}
}

func TestWorkingSetStudyRun(t *testing.T) {
	p := fastProfile()
	p.Events = 60
	r := mustRun(t, p, WorkingSetStudyConfig())
	if r.Study == nil {
		t.Fatal("study missing")
	}
	reports := r.Study.ReportI()
	if len(reports) != 8 {
		t.Fatalf("%d mode reports, want 8", len(reports))
	}
	if reports[0].Events == 0 {
		t.Fatal("no ESP-1 samples")
	}
	// Deeper modes see monotonically fewer events (§6.6).
	for i := 1; i < len(reports); i++ {
		if reports[i].Events > reports[i-1].Events {
			t.Fatalf("mode %d saw more events than mode %d", i+1, i)
		}
	}
}

func TestEFetchAndPIFConfigsRun(t *testing.T) {
	p := fastProfile()
	base := mustRun(t, p, BaselineConfig())
	for _, cfg := range []Config{EFetchConfig(), PIFConfig()} {
		r := mustRun(t, p, cfg)
		if r.Cycles >= base.Cycles {
			t.Errorf("%s (%d cycles) not faster than bare baseline (%d)", cfg.Name, r.Cycles, base.Cycles)
		}
	}
	bad := EFetchConfig()
	bad.PIF = true
	if _, err := Run(p, bad); err == nil {
		t.Fatal("EFetch+PIF should be rejected")
	}
}

func TestMultiQueueThroughFacade(t *testing.T) {
	a := workload.Pixlr()
	a.Events = 16
	b := workload.Bing()
	b.Events = 16
	sa, err := workload.NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := workload.NewSession(b)
	if err != nil {
		t.Fatal(err)
	}
	src, err := eventq.NewMultiQueueSource([]*workload.Session{sa, sb}, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunSource("mq", src, ESPNLConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Insts == 0 || r.ESPStats == nil {
		t.Fatal("multi-queue run empty")
	}
	if r.ESPStats.SlotMismatches == 0 {
		t.Fatal("20% runtime mispredictions should surface as slot mismatches")
	}
}

// TestRunSourceRejectsViewOutsideTrace: a recorded trace whose queue
// view names an event outside it is refused with an error naming the
// event and the ID, not replayed until ESP indexes past the workload.
func TestRunSourceRejectsViewOutsideTrace(t *testing.T) {
	prof := workload.Amazon()
	sess, err := workload.NewSession(prof)
	if err != nil {
		t.Fatal(err)
	}
	events := make([]trace.EventTrace, 12)
	for i, ev := range sess.Events[:len(events)] {
		events[i] = trace.EventTrace{Event: ev, Insts: trace.Record(sess.Gen.Stream(ev, false), ev.Len)}
	}
	events[2].Event.ID = 1000
	_, err = RunSource("trace", &eventq.TraceSource{Events: events}, ESPNLConfig())
	if err == nil || !strings.Contains(err.Error(), "event 0's queue view names event 1000") {
		t.Fatalf("err = %v, want the out-of-range view refused", err)
	}
}

func TestIdleCoreDesignPoint(t *testing.T) {
	p := fastProfile()
	espOnly := mustRun(t, p, ESPConfig())
	idle := mustRun(t, p, IdleCoreConfig())
	// A dedicated helper core pre-executes continuously, so it covers
	// more than stall-window-bound ESP — the §7 trade-off: better
	// performance, at the cost of an entire core.
	if idle.Cycles >= espOnly.Cycles {
		t.Fatalf("idle-core (%d cycles) should beat stall-bound ESP (%d)", idle.Cycles, espOnly.Cycles)
	}
	if idle.ESPStats.PreExecInsts <= espOnly.ESPStats.PreExecInsts {
		t.Fatal("idle core should pre-execute more deeply")
	}
	// The main pipeline is never disturbed: no exit-flush charges.
	if idle.CPU.AssistPenalty != 0 {
		t.Fatalf("idle core charged %d assist-penalty cycles to the main pipeline", idle.CPU.AssistPenalty)
	}
	if idle.CPU.StallsUsed != 0 {
		t.Fatal("idle core must not consume main-core stall windows")
	}
}
