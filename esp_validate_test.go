package esp

import (
	"reflect"
	"strings"
	"testing"

	"espsim/internal/core"
	"espsim/internal/runahead"
	"espsim/internal/workload"
)

// TestConfigValidate is the table-driven contract for Config.Validate:
// every documented misconfiguration is rejected with an actionable
// message naming the offending field, and every preset is accepted.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring of the error; "" means valid
	}{
		// The zero Config is the baseline: with no assist there is no
		// sub-config to read.
		{"zero value resolves defaults", Config{Name: "zero"}, ""},
		{"baseline preset", BaselineConfig(), ""},
		{"esp preset", ESPNLConfig(), ""},
		{"runahead preset", RunaheadNLConfig(), ""},
		{"idle-core preset", IdleCoreConfig(), ""},
		{
			"negative MaxEvents",
			Config{Name: "bad", MaxEvents: -1},
			"MaxEvents",
		},
		{
			"negative MaxPending",
			Config{Name: "bad", MaxPending: -3},
			"MaxPending",
		},
		{
			"both EFetch and PIF",
			Config{Name: "bad", EFetch: true, PIF: true},
			"mutually exclusive",
		},
		{
			"unknown assist kind",
			Config{Name: "bad", Assist: AssistKind(99)},
			"unknown AssistKind",
		},
		{
			// The zero RA is the default, Figure 9's full runahead;
			// TestZeroRAIsFullRunahead checks it replays as the preset.
			"runahead all-zero config resolves defaults",
			func() Config {
				c := RunaheadNLConfig()
				c.RA = runahead.Config{}
				return c
			}(),
			"",
		},
		{
			// A Config is read as set: zero ESP options are not the
			// defaults.
			"esp zero options rejected",
			func() Config {
				c := ESPNLConfig()
				c.ESP = core.Options{}
				return c
			}(),
			"core.DefaultOptions()",
		},
		{
			"esp partial options rejected",
			func() Config {
				c := ESPNLConfig()
				c.ESP = core.Options{IdleCore: true} // JumpDepth etc. left zero
				return c
			}(),
			"JumpDepth",
		},
		{
			// A partial fill past JumpDepth is rejected by the first
			// field it leaves unset, named with the structure it sizes.
			"partial sub-config error is actionable",
			func() Config {
				c := ESPNLConfig()
				c.ESP = core.Options{JumpDepth: 2} // Sizes left zero
				return c
			}(),
			"ESP-1 I-cachelet",
		},
		{
			"esp jump depth out of range",
			func() Config {
				c := ESPNLConfig()
				c.ESP.JumpDepth = 9
				return c
			}(),
			"JumpDepth",
		},
		{
			"esp negative prefetch lead",
			func() Config {
				c := ESPNLConfig()
				c.ESP.PrefetchLead = -5
				return c
			}(),
			"prefetch windows",
		},
		{
			"esp unknown BP mode",
			func() Config {
				c := ESPNLConfig()
				c.ESP.BPMode = core.BPMode(7)
				return c
			}(),
			"BPMode",
		},
		{
			"cachelet bytes not divisible into ways",
			func() Config {
				c := ESPNLConfig()
				c.ESP.Sizes.ICacheletBytes[0] = 5000 // not ways*64B-aligned
				return c
			}(),
			"cachelet",
		},
		{
			"cachelet sets not a power of two",
			func() Config {
				c := ESPNLConfig()
				c.ESP.Sizes.DCacheletBytes[0] = 11 * 64 * 3 // 3 sets
				return c
			}(),
			"power of two",
		},
		{
			"list budget zero",
			func() Config {
				c := ESPNLConfig()
				c.ESP.Sizes.BListTgtBytes[1] = 0
				return c
			}(),
			"at least one record",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
			// Errors must be actionable: they name the config they reject.
			if !strings.Contains(err.Error(), tc.cfg.Name) {
				t.Fatalf("error %q does not name config %q", err, tc.cfg.Name)
			}
		})
	}
}

// TestZeroRAIsFullRunahead: a Runahead+NL config written with a zero
// RA replays bit-identically to the RunaheadNLConfig preset, and not to
// Runahead-D's data-only runahead.
func TestZeroRAIsFullRunahead(t *testing.T) {
	prof := fastProfile()
	lit := Config{Name: "Runahead+NL", NLI: true, NLD: true, Assist: AssistRunahead}
	dataOnly := lit
	dataOnly.RA = runahead.DataOnlyConfig()
	var res [3]Result
	for i, cfg := range []Config{RunaheadNLConfig(), lit, dataOnly} {
		r, err := Run(prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res[i] = r
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Fatalf("zero RA: %d cycles, RunaheadNLConfig: %d", res[1].Cycles, res[0].Cycles)
	}
	if res[2].Cycles == res[1].Cycles {
		t.Fatalf("zero RA replays like the data-only runahead (%d cycles)", res[1].Cycles)
	}
}

// TestRunRejectsInvalidConfig proves the no-panic contract end to end:
// Run returns the validation error instead of panicking mid-simulation.
func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := ESPNLConfig()
	cfg.ESP.Sizes.ICacheletBytes[0] = 5000
	if _, err := Run(fastProfile(), cfg); err == nil {
		t.Fatal("invalid cachelet geometry accepted by Run")
	}
}

// TestHarnessMemoizesErrors: a failing cell reports the same error on
// every use without re-running.
func TestHarnessMemoizesErrors(t *testing.T) {
	h := NewHarness()
	h.MaxEvents = 10
	bad := EFetchConfig()
	bad.PIF = true
	_, err1 := h.Run(fastProfile(), bad)
	_, err2 := h.Run(fastProfile(), bad)
	if err1 == nil || err2 == nil {
		t.Fatal("invalid config accepted")
	}
	if err1.Error() != err2.Error() {
		t.Fatalf("memoized errors differ: %v vs %v", err1, err2)
	}
}

// TestHarnessKeysCellsByValue: a profile or config changed without being
// renamed is a cell of its own, so each Harness result equals esp.Run of
// the same pair.
func TestHarnessKeysCellsByValue(t *testing.T) {
	h := NewHarness()
	h.MaxEvents = 6
	prof := workload.Amazon()
	long := prof
	long.MeanEventLen *= 4
	lead := ESPNLConfig()
	lead.ESP.PrefetchLead = 30
	for _, c := range []struct {
		prof workload.Profile
		cfg  Config
	}{
		{prof, NLSConfig()},
		{long, NLSConfig()},
		{prof, ESPNLConfig()},
		{prof, lead},
	} {
		got, err := h.Run(c.prof, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.cfg
		cfg.MaxEvents = h.MaxEvents
		want, err := Run(c.prof, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s (MeanEventLen %d, PrefetchLead %d): Harness reads %d cycles, esp.Run %d",
				c.prof.Name, cfg.Name, c.prof.MeanEventLen, cfg.ESP.PrefetchLead, got.Cycles, want.Cycles)
		}
	}
}
