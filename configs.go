package esp

import (
	"fmt"
	"sort"
	"strings"

	"espsim/internal/core"
	"espsim/internal/eventq"
	"espsim/internal/runahead"
)

// The named configurations below are the machine design points that
// appear across the paper's figures.

// BaselineConfig is the Figure 7 core with no prefetching: the
// normalization baseline of Figure 9.
func BaselineConfig() Config {
	return Config{Name: "base"}
}

// NLConfig adds the next-line instruction and next-line (DCU) data
// prefetchers to the baseline ("NL" in Figure 9).
func NLConfig() Config {
	return Config{Name: "NL", NLI: true, NLD: true}
}

// NLSConfig adds the stride data prefetcher to NL ("NL + S"): the
// paper's primary baseline (Figure 7).
func NLSConfig() Config {
	return Config{Name: "NL+S", NLI: true, NLD: true, StridePF: true}
}

// NLIOnlyConfig enables only the next-line instruction prefetcher
// ("NL-I" in Figure 11a).
func NLIOnlyConfig() Config {
	return Config{Name: "NL-I", NLI: true}
}

// NLDOnlyConfig enables only the next-line data prefetcher ("NL-D" in
// Figure 11b).
func NLDOnlyConfig() Config {
	return Config{Name: "NL-D", NLD: true}
}

// EFetchConfig is the §7 comparison point: the event-signature
// instruction prefetcher of Chadha et al. (PACT 2014), standalone.
func EFetchConfig() Config {
	return Config{Name: "EFetch", EFetch: true}
}

// PIFConfig is the §7 comparison point: Proactive Instruction Fetch
// (Ferdman et al., MICRO 2011), standalone.
func PIFConfig() Config {
	return Config{Name: "PIF", PIF: true}
}

// RunaheadConfig is runahead execution with no prefetchers ("Runahead"):
// the zero RA, Figure 9's full runahead.
func RunaheadConfig() Config {
	return Config{Name: "Runahead", Assist: AssistRunahead}
}

// RunaheadNLConfig combines runahead with next-line prefetching
// ("Runahead + NL").
func RunaheadNLConfig() Config {
	c := RunaheadConfig()
	c.Name, c.NLI, c.NLD = "Runahead+NL", true, true
	return c
}

// RunaheadDConfig is the data-cache-only runahead of Figure 11b
// ("Runahead-D").
func RunaheadDConfig() Config {
	return Config{Name: "Runahead-D", Assist: AssistRunahead, RA: runahead.DataOnlyConfig()}
}

// RunaheadDNLDConfig is Runahead-D plus the next-line data prefetcher.
func RunaheadDNLDConfig() Config {
	c := RunaheadDConfig()
	c.Name, c.NLD = "Runahead-D+NL-D", true
	return c
}

// ESPConfig is the full Event Sneak Peek design with no baseline
// prefetchers ("ESP" in Figure 9).
func ESPConfig() Config {
	return Config{Name: "ESP", Assist: AssistESP, ESP: core.DefaultOptions()}
}

// ESPNLConfig is the paper's headline configuration: ESP combined with
// next-line prefetching ("ESP + NL", +32% over no prefetching, +16% over
// NL + S).
func ESPNLConfig() Config {
	c := ESPConfig()
	c.Name, c.NLI, c.NLD = "ESP+NL", true, true
	return c
}

// espVariant builds an ESP+NL configuration with modified options.
func espVariant(name string, mod func(*core.Options), nl bool) Config {
	opt := core.DefaultOptions()
	mod(&opt)
	c := Config{Name: name, Assist: AssistESP, ESP: opt}
	if nl {
		c.NLI, c.NLD = true, true
	}
	return c
}

// NaiveESPConfig is the hypothetical Figure 10 design with no cachelets
// or lists: pre-execution fetches into L1/L2 and trains the live
// predictor directly.
func NaiveESPConfig() Config {
	return espVariant("NaiveESP", func(o *core.Options) {
		o.Naive = true
		o.UseI, o.UseD, o.UseB = false, false, false
		o.BPMode = core.BPShared
	}, false)
}

// NaiveESPNLConfig is naive ESP plus next-line prefetching.
func NaiveESPNLConfig() Config {
	c := NaiveESPConfig()
	c.Name, c.NLI, c.NLD = "NaiveESP+NL", true, true
	return c
}

// ESPIOnlyNLConfig enables only the I-list benefit ("ESP-I + NL",
// Figure 10).
func ESPIOnlyNLConfig() Config {
	return espVariant("ESP-I+NL", func(o *core.Options) {
		o.UseD, o.UseB = false, false
	}, true)
}

// ESPIBNLConfig enables the I-list and B-list benefits ("ESP-I,B + NL").
func ESPIBNLConfig() Config {
	return espVariant("ESP-I,B+NL", func(o *core.Options) {
		o.UseD = false
	}, true)
}

// ESPIBDNLConfig is the full design ("ESP-I,B,D + NL") — identical to
// ESPNLConfig but named for the Figure 10 series.
func ESPIBDNLConfig() Config {
	c := ESPNLConfig()
	c.Name = "ESP-I,B,D+NL"
	return c
}

// ESPIOnlyConfig isolates instruction prefetching with no NL ("ESP-I",
// Figure 11a).
func ESPIOnlyConfig() Config {
	return espVariant("ESP-I", func(o *core.Options) {
		o.UseD, o.UseB = false, false
	}, false)
}

// ESPIOnlyNLIConfig is ESP-I plus only the next-line instruction
// prefetcher ("ESP-I + NL-I").
func ESPIOnlyNLIConfig() Config {
	c := espVariant("ESP-I+NL-I", func(o *core.Options) {
		o.UseD, o.UseB = false, false
	}, false)
	c.NLI = true
	return c
}

// IdealESPINLIConfig removes capacity and timeliness limits from ESP-I
// ("ideal ESP-I + NL-I").
func IdealESPINLIConfig() Config {
	c := espVariant("idealESP-I+NL-I", func(o *core.Options) {
		o.UseD, o.UseB = false, false
		o.Ideal = true
	}, false)
	c.NLI = true
	return c
}

// ESPDOnlyConfig isolates data prefetching ("ESP-D", Figure 11b).
func ESPDOnlyConfig() Config {
	return espVariant("ESP-D", func(o *core.Options) {
		o.UseI, o.UseB = false, false
	}, false)
}

// ESPDOnlyNLDConfig is ESP-D plus the next-line data prefetcher.
func ESPDOnlyNLDConfig() Config {
	c := espVariant("ESP-D+NL-D", func(o *core.Options) {
		o.UseI, o.UseB = false, false
	}, false)
	c.NLD = true
	return c
}

// IdealESPDNLDConfig removes capacity limits from ESP-D ("ideal ESP-D +
// NL-D").
func IdealESPDNLDConfig() Config {
	c := espVariant("idealESP-D+NL-D", func(o *core.Options) {
		o.UseI, o.UseB = false, false
		o.Ideal = true
	}, false)
	c.NLD = true
	return c
}

// Figure 12 branch-predictor design points, all on the full ESP cache
// machinery with next-line prefetching.

// ESPBPNoExtraHWConfig shares PIR and tables between modes and has no
// B-list ("no extra H/W").
func ESPBPNoExtraHWConfig() Config {
	return espVariant("BP-noextra", func(o *core.Options) {
		o.BPMode = core.BPShared
		o.UseB = false
	}, true)
}

// ESPBPSeparateContextConfig replicates only the PIR ("separate
// context").
func ESPBPSeparateContextConfig() Config {
	return espVariant("BP-sepctx", func(o *core.Options) {
		o.BPMode = core.BPSeparatePIR
		o.UseB = false
	}, true)
}

// ESPBPReplicatedConfig replicates the whole predictor per mode
// ("separate context and tables").
func ESPBPReplicatedConfig() Config {
	return espVariant("BP-septables", func(o *core.Options) {
		o.BPMode = core.BPReplicate
		o.UseB = false
	}, true)
}

// ESPBPFullConfig is the shipped design: separate PIR plus B-list
// just-in-time training ("separate context + B-list (ESP)").
func ESPBPFullConfig() Config {
	c := ESPNLConfig()
	c.Name = "BP-esp"
	return c
}

// Perfect-structure configurations for the Figure 3 potential study, all
// relative to the paper's NL+S baseline machine.

// PerfectL1DConfig idealizes the L1 data cache.
func PerfectL1DConfig() Config {
	c := NLSConfig()
	c.Name, c.PerfectL1D = "perfectL1D", true
	return c
}

// PerfectBPConfig idealizes the branch predictor.
func PerfectBPConfig() Config {
	c := NLSConfig()
	c.Name, c.PerfectBP = "perfectBP", true
	return c
}

// PerfectL1IConfig idealizes the L1 instruction cache.
func PerfectL1IConfig() Config {
	c := NLSConfig()
	c.Name, c.PerfectL1I = "perfectL1I", true
	return c
}

// PerfectAllConfig idealizes all three.
func PerfectAllConfig() Config {
	c := NLSConfig()
	c.Name = "perfectAll"
	c.PerfectL1I, c.PerfectL1D, c.PerfectBP = true, true, true
	return c
}

// WorkingSetStudyConfig is the Figure 13 instrumented run: jump-ahead
// depth 8, deep queue visibility, reuse profiling attached.
func WorkingSetStudyConfig() Config {
	c := espVariant("wset-study", func(o *core.Options) {
		o.JumpDepth = 8
		o.MeasureWorkingSets = true
	}, true)
	c.MaxPending = 8
	return c
}

// IdleCoreConfig is the §7 alternative: ESP's machinery driven by a
// dedicated helper core instead of the main core's stall windows. It
// needs no cachelets or pipeline drains — but it costs an entire core
// and pays live-in/list transfer latencies per event.
func IdleCoreConfig() Config {
	return Config{Name: "IdleCore", Assist: AssistESP, ESP: core.IdleCoreOptions()}
}

// IdleCoreNLConfig combines the idle-core design with next-line
// prefetching, for comparison with ESPNLConfig.
func IdleCoreNLConfig() Config {
	c := IdleCoreConfig()
	c.Name, c.NLI, c.NLD = "IdleCore+NL", true, true
	return c
}

// NamedConfigs returns every named preset configuration, in figure
// order. Names are unique; ConfigByName resolves them, which is how the
// espd service maps request strings onto machine design points.
func NamedConfigs() []Config {
	return []Config{
		BaselineConfig(), NLConfig(), NLSConfig(), NLIOnlyConfig(), NLDOnlyConfig(),
		EFetchConfig(), PIFConfig(),
		RunaheadConfig(), RunaheadNLConfig(), RunaheadDConfig(), RunaheadDNLDConfig(),
		ESPConfig(), ESPNLConfig(),
		NaiveESPConfig(), NaiveESPNLConfig(),
		ESPIOnlyNLConfig(), ESPIBNLConfig(), ESPIBDNLConfig(),
		ESPIOnlyConfig(), ESPIOnlyNLIConfig(), IdealESPINLIConfig(),
		ESPDOnlyConfig(), ESPDOnlyNLDConfig(), IdealESPDNLDConfig(),
		ESPBPNoExtraHWConfig(), ESPBPSeparateContextConfig(), ESPBPReplicatedConfig(), ESPBPFullConfig(),
		PerfectL1DConfig(), PerfectBPConfig(), PerfectL1IConfig(), PerfectAllConfig(),
		WorkingSetStudyConfig(),
		IdleCoreConfig(), IdleCoreNLConfig(),
	}
}

// ConfigNames returns the preset names, sorted, for error messages and
// service discovery.
func ConfigNames() []string {
	cfgs := NamedConfigs()
	names := make([]string, len(cfgs))
	for i, c := range cfgs {
		names[i] = c.Name
	}
	sort.Strings(names)
	return names
}

// SchedConfig returns cfg scheduled under policy. Non-FIFO policies get
// "@policy" appended to the name, so result labels and golden-corpus
// keys stay distinct per schedule.
func SchedConfig(cfg Config, policy SchedPolicy) Config {
	cfg.Sched = policy
	if policy != SchedFIFO {
		cfg.Name += "@" + policy.String()
	}
	return cfg
}

// presets maps each preset's name to it under every dispatch policy,
// indexed by policy, built once: every /run resolves its config here.
var presets = func() map[string]*[NumSchedPolicies]Config {
	m := make(map[string]*[NumSchedPolicies]Config)
	for _, c := range NamedConfigs() {
		var byPolicy [NumSchedPolicies]Config
		for p := range byPolicy {
			byPolicy[p] = SchedConfig(c, SchedPolicy(p))
		}
		m[c.Name] = &byPolicy
	}
	return m
}()

// ConfigByName returns the preset configuration with the given name, or
// an error listing the valid names. A "@policy" suffix schedules the
// preset under that dispatch policy ("ESP+NL@edf"); see SchedConfig.
// Configs are comparable values, so the caller owns the copy it gets.
func ConfigByName(name string) (Config, error) {
	baseName, policy := name, SchedFIFO
	if i := strings.LastIndex(name, "@"); i >= 0 {
		p, err := eventq.SchedByName(name[i+1:])
		if err != nil {
			return Config{}, fmt.Errorf("esp: config %q: %w", name, err)
		}
		baseName, policy = name[:i], p
	}
	if byPolicy, ok := presets[baseName]; ok {
		return byPolicy[policy], nil
	}
	return Config{}, fmt.Errorf("esp: unknown config %q (valid: %v)", name, ConfigNames())
}
