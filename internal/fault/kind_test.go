package fault

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"espsim/internal/sim"
)

// TestEverySentinelMapsToExactlyOneKind is the drift guard the typed
// taxonomy exists for: every error sentinel the engine or resilience
// layer can produce classifies to exactly one ErrorKind, that kind is
// in Kinds(), and no two non-context sentinels share a kind.
func TestEverySentinelMapsToExactlyOneKind(t *testing.T) {
	sentinels := []struct {
		name string
		err  error
		want ErrorKind
	}{
		{"sim.ErrTimeout", sim.ErrTimeout, KindTimeout},
		{"sim.ErrPanic", sim.ErrPanic, KindPanic},
		{"sim.ErrBuild", sim.ErrBuild, KindBuild},
		{"fault.ErrInjected", ErrInjected, KindInjected},
		{"fault.ErrBreakerOpen", ErrBreakerOpen, KindBreakerOpen},
		{"context.Canceled", context.Canceled, KindCanceled},
		{"context.DeadlineExceeded", context.DeadlineExceeded, KindCanceled},
		{"sim.ErrMemory", sim.ErrMemory, KindBrownout},
		// The overload sentinels live in tenantq and the worker-down
		// sentinel in cluster (both import this package), so the table
		// exercises the kind-carrying constructor they are declared
		// with; their own packages' tests pin the exported variables.
		{"Sentinel(KindNet)", Sentinel("worker down", KindNet), KindNet},
		{"Sentinel(KindQuota)", Sentinel("tenant quota exhausted", KindQuota), KindQuota},
		{"Sentinel(KindShed)", Sentinel("deadline shed", KindShed), KindShed},
	}
	known := make(map[ErrorKind]bool)
	for _, k := range Kinds() {
		if known[k] {
			t.Fatalf("Kinds() lists %q twice", k)
		}
		known[k] = true
	}
	seen := make(map[ErrorKind]string)
	for _, tc := range sentinels {
		got := Classify(tc.err)
		if got != tc.want {
			t.Errorf("%s classifies as %q, want %q", tc.name, got, tc.want)
		}
		if got == KindError || got == KindNone {
			t.Errorf("%s fell through to %q: every sentinel needs its own kind", tc.name, got)
		}
		if !known[got] {
			t.Errorf("%s classifies to %q, which Kinds() does not list", tc.name, got)
		}
		// Wrapping must not change the classification.
		if wrapped := Classify(fmt.Errorf("outer: %w", tc.err)); wrapped != got {
			t.Errorf("%s wrapped classifies as %q, bare as %q", tc.name, wrapped, got)
		}
		if prev, dup := seen[got]; dup && got != KindCanceled {
			t.Errorf("%s and %s both classify as %q", tc.name, prev, got)
		}
		seen[got] = tc.name
	}
	if Classify(nil) != KindNone {
		t.Errorf("Classify(nil) = %q, want KindNone", Classify(nil))
	}
	if Classify(errors.New("mystery")) != KindError {
		t.Errorf("unclassified error = %q, want KindError", Classify(errors.New("mystery")))
	}
}

// TestClassifyPrecedence pins the documented order: the outermost
// meaningful sentinel wins when failures wrap each other.
func TestClassifyPrecedence(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want ErrorKind
	}{
		{"timeout wrapping injected", fmt.Errorf("%w: %w", sim.ErrTimeout, ErrInjected), KindTimeout},
		{"build wrapping injected", fmt.Errorf("%w: %w", sim.ErrBuild, ErrInjected), KindBuild},
		{"injected beside a net sentinel", fmt.Errorf("%w: %w", Sentinel("worker down", KindNet), ErrInjected), KindInjected},
		{"panic wrapping injected", fmt.Errorf("%w: %w", sim.ErrPanic, ErrInjected), KindPanic},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestRetryable pins which kinds are worth a same-node retry: node
// faults are not (the coordinator reschedules the shard instead).
func TestRetryable(t *testing.T) {
	if !Retryable(sim.ErrTimeout) || !Retryable(sim.ErrPanic) || !Retryable(sim.ErrBuild) || !Retryable(ErrInjected) {
		t.Error("timeout/panic/build/injected must be retryable")
	}
	if Retryable(Sentinel("worker down", KindNet)) || Retryable(context.Canceled) || Retryable(ErrBreakerOpen) || Retryable(errors.New("mystery")) {
		t.Error("net/canceled/breaker/unknown must not be retryable")
	}
}

// TestBreakerEscalation: consecutive trips double the quarantine up to
// the cap, and one success resets the ladder.
func TestBreakerEscalation(t *testing.T) {
	base := 10 * time.Second
	b := NewEscalatingBreakerSet(1, base, 40*time.Second)
	clock := time.Unix(1000, 0)
	b.now = func() time.Time { return clock }

	trip := func() {
		b.Record("node", false)
	}
	advance := func(d time.Duration) { clock = clock.Add(d) }

	trip() // trip 1: cooldown 10s
	if b.Allow("node") {
		t.Fatal("freshly tripped breaker admitted work")
	}
	advance(base)
	if !b.Allow("node") {
		t.Fatal("cooldown elapsed, probe not admitted")
	}
	trip() // probe failed → trip 2: cooldown 20s
	advance(base)
	if b.Allow("node") {
		t.Fatal("escalated breaker admitted a probe after only the base cooldown")
	}
	advance(base)
	if !b.Allow("node") {
		t.Fatal("doubled cooldown elapsed, probe not admitted")
	}
	trip() // trip 3: cooldown 40s (capped)
	advance(39 * time.Second)
	if b.Allow("node") {
		t.Fatal("escalated breaker admitted a probe before 40s")
	}
	advance(time.Second)
	if !b.Allow("node") {
		t.Fatal("capped cooldown elapsed, probe not admitted")
	}
	b.Record("node", true) // success resets the ladder
	if b.StateOf("node") != "closed" {
		t.Fatalf("state after recovery: %s", b.StateOf("node"))
	}
	trip()
	advance(base)
	if !b.Allow("node") {
		t.Fatal("escalation ladder did not reset on success")
	}
}

// TestBreakerStateOf: introspection reports the state without admitting
// probes or counting skips.
func TestBreakerStateOf(t *testing.T) {
	b := NewBreakerSet(2, time.Hour)
	if b.StateOf("k") != "closed" {
		t.Fatalf("unknown key state: %s", b.StateOf("k"))
	}
	b.Record("k", false)
	if b.StateOf("k") != "closed" {
		t.Fatalf("below-threshold state: %s", b.StateOf("k"))
	}
	b.Record("k", false)
	if b.StateOf("k") != "open" {
		t.Fatalf("tripped state: %s", b.StateOf("k"))
	}
	if got := b.Skips(); got != 0 {
		t.Fatalf("StateOf counted %d skips", got)
	}
}
