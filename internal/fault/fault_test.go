package fault

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"espsim/internal/sim"
)

// TestPlanDeterministic: two plans with the same seed assign identical
// faults; a different seed assigns a different pattern somewhere.
func TestPlanDeterministic(t *testing.T) {
	apps := []string{"amazon", "bing", "cnn", "gmaps", "pixlr", "facebook", "gdocs"}
	configs := []string{"base", "NL", "ESP+NL", "Runahead+NL"}
	a := &Plan{Seed: 42, RunRate: 0.5, BuildRate: 0.3}
	b := &Plan{Seed: 42, RunRate: 0.5, BuildRate: 0.3}
	c := &Plan{Seed: 43, RunRate: 0.5, BuildRate: 0.3}
	same, diff := true, false
	for _, app := range apps {
		if a.BuildFault(app) != b.BuildFault(app) {
			same = false
		}
		for _, cfg := range configs {
			if a.RunFault(app, cfg) != b.RunFault(app, cfg) {
				same = false
			}
			if a.RunFault(app, cfg) != c.RunFault(app, cfg) {
				diff = true
			}
		}
	}
	if !same {
		t.Fatal("equal seeds produced different fault assignments")
	}
	if !diff {
		t.Fatal("different seeds produced identical fault assignments (hash ignores seed?)")
	}
}

// TestPlanHookRecoversAfterFailFirst: a faulted cell fails exactly
// FailFirst attempts, then passes; an Always cell never recovers.
func TestPlanHookRecoversAfterFailFirst(t *testing.T) {
	p := &Plan{Seed: 1, RunRate: 1, FailFirst: 2}
	p.Always("stuck", "cfg", Error)
	hook := p.Hook()

	pt := sim.FaultPoint{Op: "run", App: "transient", Config: "cfg"}
	// RunRate 1: every cell faults; the kind depends on the hash, so
	// count failures rather than asserting the shape.
	fails := 0
	for i := 0; i < 5; i++ {
		err := callContained(hook, pt)
		if err != nil {
			fails++
			if !errors.Is(err, ErrInjected) && !errors.Is(err, errPanicked) {
				t.Fatalf("attempt %d: unexpected error %v", i, err)
			}
		}
	}
	if k := p.RunFault("transient", "cfg"); k == Slow {
		if fails != 0 {
			t.Fatalf("slow faults must not error, got %d failures", fails)
		}
	} else if fails != 2 {
		t.Fatalf("faulted cell failed %d attempts, want FailFirst=2", fails)
	}

	stuck := sim.FaultPoint{Op: "run", App: "stuck", Config: "cfg"}
	for i := 0; i < 4; i++ {
		if err := callContained(hook, stuck); err == nil {
			t.Fatalf("Always cell recovered on attempt %d", i)
		}
	}
}

// errPanicked distinguishes a contained panic in callContained.
var errPanicked = errors.New("panicked")

func callContained(hook sim.FaultHook, pt sim.FaultPoint) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v: %w", p, errPanicked)
		}
	}()
	return hook(pt)
}

// TestPlanSlowStalls: a Slow fault sleeps for SleepFor before letting
// the operation proceed.
func TestPlanSlowStalls(t *testing.T) {
	p := &Plan{Seed: 5, SleepFor: 30 * time.Millisecond, FailFirst: 1}
	p.Always("laggy", "cfg", Slow)
	hook := p.Hook()
	start := time.Now()
	if err := hook(sim.FaultPoint{Op: "run", App: "laggy", Config: "cfg"}); err != nil {
		t.Fatalf("slow fault errored: %v", err)
	}
	if elapsed := time.Since(start); elapsed < p.SleepFor {
		t.Fatalf("slow fault stalled %v, want >= %v", elapsed, p.SleepFor)
	}
}

// TestPlanSlowEndsWhenStopped: a Slow stall ends as soon as the cell's
// Done channel closes, so a stall longer than the cell's timeout
// returns at the timeout.
func TestPlanSlowEndsWhenStopped(t *testing.T) {
	p := &Plan{Seed: 5, SleepFor: 10 * time.Second}
	p.Always("laggy", "cfg", Slow)
	done := make(chan struct{})
	time.AfterFunc(10*time.Millisecond, func() { close(done) })
	start := time.Now()
	if err := p.Hook()(sim.FaultPoint{Op: "run", App: "laggy", Config: "cfg", Done: done}); err != nil {
		t.Fatalf("slow fault errored: %v", err)
	}
	if elapsed := time.Since(start); elapsed >= p.SleepFor/2 {
		t.Fatalf("stopped slow fault stalled %v, want it to end with Done", elapsed)
	}
}

// TestRetryPolicyBackoff: doubling, capping, and jitter bounds.
func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond, JitterFrac: 0.5}.WithDefaults()
	for retries, want := range map[int]time.Duration{1: 10 * time.Millisecond, 2: 20 * time.Millisecond, 3: 40 * time.Millisecond, 4: 40 * time.Millisecond} {
		if got := p.backoff(retries, nil); got != want {
			t.Fatalf("backoff(%d) without jitter = %v, want %v", retries, got, want)
		}
	}
}

// TestExecutorRetriesThenSucceeds: a cell that fails twice under a
// 3-attempt budget succeeds with 3 attempts and 2 counted retries.
func TestExecutorRetriesThenSucceeds(t *testing.T) {
	e := NewExecutor(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}, NewBreakerSet(5, time.Hour), nil, 1)
	calls := 0
	out := e.Run(context.Background(), "k", func(attempt int) error {
		calls++
		if attempt != calls {
			t.Fatalf("attempt %d on call %d", attempt, calls)
		}
		if attempt < 3 {
			return fmt.Errorf("transient")
		}
		return nil
	})
	if out.Err != nil || out.Attempts != 3 || out.Skipped {
		t.Fatalf("outcome %+v, want success on attempt 3", out)
	}
	if e.Retries() != 2 {
		t.Fatalf("retries %d, want 2", e.Retries())
	}
}

// TestExecutorRespectsBudgetAndClassifier: the budget bounds attempts,
// and a non-retryable error stops immediately.
func TestExecutorRespectsBudgetAndClassifier(t *testing.T) {
	permanent := errors.New("permanent")
	retryable := func(err error) bool { return !errors.Is(err, permanent) }
	e := NewExecutor(RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}, NewBreakerSet(5, time.Hour), retryable, 1)

	calls := 0
	out := e.Run(context.Background(), "k", func(int) error { calls++; return fmt.Errorf("always") })
	if out.Err == nil || out.Attempts != 4 || calls != 4 {
		t.Fatalf("budget: outcome %+v after %d calls", out, calls)
	}

	calls = 0
	out = e.Run(context.Background(), "k2", func(int) error { calls++; return permanent })
	if out.Attempts != 1 || calls != 1 || !errors.Is(out.Err, permanent) {
		t.Fatalf("non-retryable: outcome %+v after %d calls", out, calls)
	}
}

// TestExecutorStopsOnCanceledContext: no retries for a dead client.
func TestExecutorStopsOnCanceledContext(t *testing.T) {
	e := NewExecutor(RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}, NewBreakerSet(5, time.Hour), nil, 1)
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	out := e.Run(ctx, "k", func(int) error {
		calls++
		cancel()
		return fmt.Errorf("fails while client leaves")
	})
	if calls != 1 || out.Err == nil {
		t.Fatalf("canceled context still retried: %d calls, %+v", calls, out)
	}
}

// TestBreakerQuarantinesAndProbes walks the full state machine:
// threshold failures open the breaker, Allow then denies (skips
// counted), cooldown admits exactly one probe, a failed probe re-opens,
// a successful probe closes.
func TestBreakerQuarantinesAndProbes(t *testing.T) {
	b := NewBreakerSet(3, time.Hour)
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		if !b.Allow("cell") {
			t.Fatalf("closed breaker denied attempt %d", i)
		}
		b.Record("cell", false)
	}
	if b.OpenCount() != 1 || b.Trips() != 1 {
		t.Fatalf("after 3 failures: open %d trips %d, want 1/1", b.OpenCount(), b.Trips())
	}
	if b.Allow("cell") {
		t.Fatal("open breaker admitted work inside cooldown")
	}
	if b.Skips() != 1 {
		t.Fatalf("skips %d, want 1", b.Skips())
	}

	// Cooldown elapses: exactly one probe is admitted.
	now = now.Add(2 * time.Hour)
	if !b.Allow("cell") {
		t.Fatal("half-open breaker denied the probe")
	}
	if b.Allow("cell") {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.Record("cell", false) // probe fails: re-open for a fresh cooldown
	if b.Allow("cell") {
		t.Fatal("re-opened breaker admitted work")
	}

	now = now.Add(2 * time.Hour)
	if !b.Allow("cell") {
		t.Fatal("second probe denied")
	}
	b.Record("cell", true)
	if b.OpenCount() != 0 {
		t.Fatalf("successful probe left %d breakers open", b.OpenCount())
	}
	if !b.Allow("cell") {
		t.Fatal("closed breaker denies work")
	}

	// Unrelated keys are independent.
	if !b.Allow("other") {
		t.Fatal("independent key denied")
	}
}

// TestExecutorWithBreakerSkips: once the breaker opens, Run reports
// skipped without attempting.
func TestExecutorWithBreakerSkips(t *testing.T) {
	b := NewBreakerSet(2, time.Hour)
	e := NewExecutor(RetryPolicy{MaxAttempts: 1, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}, b, nil, 1)
	for i := 0; i < 2; i++ {
		if out := e.Run(context.Background(), "cell", func(int) error { return fmt.Errorf("down") }); out.Skipped {
			t.Fatalf("attempt %d skipped before threshold", i)
		}
	}
	calls := 0
	out := e.Run(context.Background(), "cell", func(int) error { calls++; return nil })
	if !out.Skipped || !errors.Is(out.Err, ErrBreakerOpen) || calls != 0 {
		t.Fatalf("quarantined cell still ran: %+v, %d calls", out, calls)
	}
}

// TestExecutorShedIsNotAnAttempt: a run that sheds reports zero
// attempts and never feeds the breaker, however often it sheds; a shed
// half-open probe hands its slot back instead of quarantining the key
// for good.
func TestExecutorShedIsNotAnAttempt(t *testing.T) {
	checkNotAnAttempt(t, Sentinel("shed", KindShed))
}

// TestExecutorCanceledIsNotAnAttempt: a run stopped because its client
// left is no evidence against the cell. It neither trips a threshold-1
// breaker nor keeps a half-open probe slot, so a client that hangs up
// cannot quarantine a cell.
func TestExecutorCanceledIsNotAnAttempt(t *testing.T) {
	checkNotAnAttempt(t, context.Canceled)
}

// TestExecutorMemoryRefusalIsNotAnAttempt: a cell refused because its
// workload does not fit the memory budget says nothing about the cell,
// so it is neither an attempt nor retried, and it never trips or holds
// a breaker.
func TestExecutorMemoryRefusalIsNotAnAttempt(t *testing.T) {
	checkNotAnAttempt(t, sim.ErrMemory)
}

// checkNotAnAttempt drives runs that fail with refused through a
// threshold-1 breaker: each reports zero attempts and feeds the breaker
// nothing, and a refused half-open probe hands its slot back.
func checkNotAnAttempt(t *testing.T, refused error) {
	t.Helper()
	b := NewBreakerSet(1, time.Hour)
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }
	e := NewExecutor(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}, b, nil, 1)
	refuses := func(int) error { return fmt.Errorf("late: %w", refused) }
	for i := 0; i < 3; i++ {
		out := e.Run(context.Background(), "cell", refuses)
		if out.Attempts != 0 || out.Skipped || !errors.Is(out.Err, refused) {
			t.Fatalf("refused run %d: %+v, want 0 attempts and the %v error", i, out, refused)
		}
	}
	if b.Trips() != 0 || !b.Allow("cell") {
		t.Fatalf("%v runs tripped the breaker", refused)
	}

	// Trip the breaker, let the cooldown pass, and refuse the probe.
	e.Run(context.Background(), "cell", func(int) error { return fmt.Errorf("down") })
	if b.Allow("cell") {
		t.Fatal("tripped breaker admitted work inside cooldown")
	}
	now = now.Add(2 * time.Hour)
	if out := e.Run(context.Background(), "cell", refuses); out.Skipped || out.Attempts != 0 {
		t.Fatalf("half-open %v run: %+v, want an unskipped run with 0 attempts", refused, out)
	}
	if b.StateOf("cell") != "half_open" || !b.Allow("cell") {
		t.Fatalf("%v probe kept the slot: state %s, next probe denied", refused, b.StateOf("cell"))
	}
}
