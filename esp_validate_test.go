package esp

import (
	"reflect"
	"strings"
	"testing"

	"espsim/internal/core"
	"espsim/internal/cpu"
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
			"partial CPU config",
			func() Config {
				c := BaselineConfig()
				c.CPU.Width = 4 // everything else zero
				return c
			}(),
			"ROB",
		},
		{
			"negative CPU base CPI",
			func() Config {
				c := BaselineConfig()
				c.CPU = cpu.DefaultConfig()
				c.CPU.BaseCPI = -1
				return c
			}(),
			"BaseCPI",
		},
		{
			"runahead DepFrac out of range",
			func() Config {
				c := RunaheadNLConfig()
				c.RA.DepFrac = 1.5
				return c
			}(),
			"DepFrac",
		},
		{
			// A partially-filled sub-config used to be silently replaced
			// by the defaults whenever its magic sentinel field (BaseCPI)
			// was zero, discarding the fields the caller did set. Now only
			// the all-zero struct means "use defaults"; a partial fill is
			// an explicit error naming the missing field.
			"runahead partial config rejected",
			func() Config {
				c := RunaheadNLConfig()
				c.RA = runahead.Config{WarmD: true} // BaseCPI left zero
				return c
			}(),
			"BaseCPI",
		},
		{
			"runahead all-zero config resolves defaults",
			func() Config {
				c := RunaheadNLConfig()
				c.RA = runahead.Config{}
				return c
			}(),
			"",
		},
		{
			"partial sub-config error is actionable",
			func() Config {
				c := RunaheadNLConfig()
				c.RA = runahead.Config{WarmD: true}
				return c
			}(),
			"partially filled",
		},
		{
			"esp partial options rejected",
			func() Config {
				c := ESPNLConfig()
				c.ESP = core.Options{IdleCore: true} // JumpDepth etc. left zero
				return c
			}(),
			"partially filled",
		},
		{
			"esp all-zero options resolve defaults",
			func() Config {
				c := ESPNLConfig()
				c.ESP = core.Options{}
				return c
			}(),
			"",
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
