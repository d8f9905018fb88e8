package tenantq

import "testing"

// TestBrownoutEscalation: escalation is immediate to the highest level
// whose entry watermark the usage crosses; nothing waits on calm counts.
func TestBrownoutEscalation(t *testing.T) {
	b := NewBrownout(BrownoutConfig{Budget: 100})
	if got := b.Observe(50); got != BrownNormal {
		t.Fatalf("50%% usage → %v, want normal", got)
	}
	if got := b.Observe(80); got != BrownNoCache {
		t.Fatalf("80%% usage → %v, want no_cache", got)
	}
	if got := b.Observe(90); got != BrownHalfConcurrency {
		t.Fatalf("90%% usage → %v, want half_concurrency", got)
	}
	if got := b.Observe(97); got != BrownSmallOnly {
		t.Fatalf("97%% usage → %v, want small_only", got)
	}
	// Straight from normal to the top in one observation.
	b2 := NewBrownout(BrownoutConfig{Budget: 100})
	if got := b2.Observe(99); got != BrownSmallOnly {
		t.Fatalf("spike to 99%% → %v, want small_only", got)
	}
	if b2.Snapshot().Escalations != 1 {
		t.Fatalf("spike counted %d escalations, want 1", b2.Snapshot().Escalations)
	}
}

// TestBrownoutRecoveryHysteresis: stepping down takes RecoverAfter
// consecutive calm observations, one level at a time, and the band
// between exit and enter holds the level while resetting the calm run.
func TestBrownoutRecoveryHysteresis(t *testing.T) {
	b := NewBrownout(BrownoutConfig{Budget: 100, RecoverAfter: 2})
	b.Observe(99) // small_only
	if got := b.Observe(85); got != BrownSmallOnly {
		t.Fatalf("first calm observation stepped down early: %v", got)
	}
	if got := b.Observe(85); got != BrownHalfConcurrency {
		t.Fatalf("second calm observation → %v, want half_concurrency", got)
	}
	// Hysteresis band for level 2 is (80, 90): holds and resets calm.
	b.Observe(75)
	if got := b.Observe(85); got != BrownHalfConcurrency {
		t.Fatalf("band observation dropped the level: %v", got)
	}
	if got := b.Observe(75); got != BrownHalfConcurrency {
		t.Fatalf("calm run must restart after a band observation: %v", got)
	}
	if got := b.Observe(75); got != BrownNoCache {
		t.Fatalf("two calm observations → %v, want no_cache", got)
	}
	b.Observe(60)
	if got := b.Observe(60); got != BrownNormal {
		t.Fatalf("final recovery → %v, want normal", got)
	}
	snap := b.Snapshot()
	if snap.Recoveries != 3 {
		t.Fatalf("counted %d recoveries, want 3", snap.Recoveries)
	}
	if snap.Level != "normal" {
		t.Fatalf("snapshot level %q, want normal", snap.Level)
	}
}

// TestBrownoutReEscalationResetsCalm: pressure during recovery throws
// away the calm run.
func TestBrownoutReEscalationResetsCalm(t *testing.T) {
	b := NewBrownout(BrownoutConfig{Budget: 100, RecoverAfter: 2})
	b.Observe(85) // no_cache
	b.Observe(65) // calm 1
	b.Observe(92) // re-escalates to half_concurrency
	if got := b.Level(); got != BrownHalfConcurrency {
		t.Fatalf("re-escalation → %v", got)
	}
	b.Observe(70)
	if got := b.Observe(70); got != BrownNoCache {
		t.Fatalf("fresh calm run → %v, want no_cache", got)
	}
}

func TestBrownoutDisabledAndNil(t *testing.T) {
	b := NewBrownout(BrownoutConfig{Budget: 0})
	if got := b.Observe(1 << 40); got != BrownNormal {
		t.Fatalf("disabled controller browned out: %v", got)
	}
	if b.TrimTarget() != 0 {
		t.Fatalf("disabled TrimTarget = %d", b.TrimTarget())
	}
	var nilB *Brownout
	if nilB.Level() != BrownNormal || nilB.Observe(1) != BrownNormal {
		t.Fatal("nil controller must report normal")
	}
	if nilB.Snapshot().Level != "normal" {
		t.Fatal("nil snapshot must report normal")
	}
}

func TestBrownoutTrimTarget(t *testing.T) {
	b := NewBrownout(BrownoutConfig{Budget: 1000})
	if got := b.TrimTarget(); got != 700 {
		t.Fatalf("TrimTarget = %d, want 700 (brownExit[0] × Budget)", got)
	}
}

func TestBrownoutLevelStrings(t *testing.T) {
	want := map[BrownoutLevel]string{
		BrownNormal:          "normal",
		BrownNoCache:         "no_cache",
		BrownHalfConcurrency: "half_concurrency",
		BrownSmallOnly:       "small_only",
		BrownoutLevel(9):     "unknown",
	}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("level %d String() = %q, want %q", l, l.String(), s)
		}
	}
}
