package tenantq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"espsim/internal/fault"
)

// drain waits until the queue reports n queued acquisitions.
func waitQueued(t *testing.T, q *Queue, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for q.QueuedAcquisitions() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queued acquisitions stuck at %d, want %d", q.QueuedAcquisitions(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// collectGrantOrder floods the queue with perTenant unit-cost
// acquisitions for each weighted tenant while one blocker holds the
// single slot, then releases the blocker and records the tenant name
// of every grant in order (each grantee releases immediately, so
// grants serialize through the one slot).
func collectGrantOrder(t *testing.T, weights map[string]float64, perTenant int) []string {
	t.Helper()
	tenants := make(map[string]TenantConfig, len(weights))
	for name, w := range weights {
		tenants[name] = TenantConfig{Weight: w}
	}
	q := New(Options{Slots: 1, Tenants: tenants})

	blockerRelease, err := q.Acquire(context.Background(), "blocker", 1)
	if err != nil {
		t.Fatalf("blocker acquire: %v", err)
	}

	total := perTenant * len(weights)
	order := make(chan string, total)
	var wg sync.WaitGroup
	for name := range weights {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				release, err := q.Acquire(context.Background(), name, 1)
				if err != nil {
					t.Errorf("acquire %s: %v", name, err)
					return
				}
				order <- name
				release()
			}(name)
		}
	}
	waitQueued(t, q, total)
	blockerRelease()
	wg.Wait()
	close(order)

	got := make([]string, 0, total)
	for name := range order {
		got = append(got, name)
	}
	return got
}

// TestDRRProportionality is the fairness property the ISSUE demands:
// dispatch order is a permutation of everything enqueued, and within
// any backlogged prefix each tenant's granted-cell count tracks its
// weight share to within one DRR round.
func TestDRRProportionality(t *testing.T) {
	weights := map[string]float64{"a": 1, "b": 2, "c": 4}
	const perTenant = 140
	order := collectGrantOrder(t, weights, perTenant)

	// Permutation: every acquisition granted exactly once.
	counts := map[string]int{}
	for _, name := range order {
		counts[name]++
	}
	if len(order) != perTenant*len(weights) {
		t.Fatalf("granted %d acquisitions, enqueued %d", len(order), perTenant*len(weights))
	}
	for name := range weights {
		if counts[name] != perTenant {
			t.Fatalf("tenant %s granted %d times, enqueued %d", name, counts[name], perTenant)
		}
	}

	// Weight-proportionality while every tenant is still backlogged:
	// with unit costs a full lap grants exactly quantum·weight_t cells
	// per tenant, so any prefix deviates from the ideal share by at
	// most one of that tenant's turns.
	var sumW float64
	for _, w := range weights {
		sumW += w
	}
	running := map[string]float64{}
	backlogged := func() bool {
		for name := range weights {
			if running[name] >= perTenant {
				return false
			}
		}
		return true
	}
	for n, name := range order {
		if !backlogged() {
			break
		}
		running[name]++
		for tn, w := range weights {
			ideal := float64(n+1) * w / sumW
			slack := quantum*w + 1 // one DRR turn of that tenant, plus rounding
			if diff := running[tn] - ideal; diff > slack || diff < -slack {
				t.Fatalf("after %d grants tenant %s has %v cells, ideal %.1f (slack %v): order unfair",
					n+1, tn, running[tn], ideal, slack)
			}
		}
	}
}

// TestDRRRandomizedNoStarvation: random weights, every acquisition is
// eventually granted exactly once and heavier tenants never complete
// fewer cells than lighter ones over the full run.
func TestDRRRandomizedNoStarvation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	weights := map[string]float64{}
	for i := 0; i < 5; i++ {
		weights[fmt.Sprintf("t%d", i)] = 1 + rng.Float64()*7
	}
	const perTenant = 60
	order := collectGrantOrder(t, weights, perTenant)
	counts := map[string]int{}
	for _, name := range order {
		counts[name]++
	}
	for name := range weights {
		if counts[name] != perTenant {
			t.Fatalf("tenant %s granted %d of %d acquisitions", name, counts[name], perTenant)
		}
	}
}

func mustQuota(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("expected ErrQuota, got nil")
	}
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("expected ErrQuota, got %v", err)
	}
	if k := fault.Classify(err); k != fault.KindQuota {
		t.Fatalf("quota error classifies as %q", k)
	}
}

func TestQuotaCellBudget(t *testing.T) {
	q := New(Options{Slots: 4, Tenants: map[string]TenantConfig{"t": {CellBudget: 3}}})
	rel, err := q.Acquire(context.Background(), "t", 2)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	_, err = q.Acquire(context.Background(), "t", 2)
	mustQuota(t, err) // 2 consumed + 2 > 3: the budget is cumulative
	if got := q.Snapshot()[0].RejectedQuota; got != 2 {
		t.Errorf("rejected_quota %d, want the refused acquisition's 2 cells", got)
	}
	rel, err = q.Acquire(context.Background(), "t", 1)
	if err != nil {
		t.Fatalf("within budget: %v", err)
	}
	rel()
}

// TestMaxTenantsCardinalityGuard: the queue tracks maxTenants distinct
// names and refuses the next new one.
func TestMaxTenantsCardinalityGuard(t *testing.T) {
	q := New(Options{Slots: 4})
	for i := 0; i < maxTenants; i++ {
		rel, err := q.Acquire(context.Background(), fmt.Sprintf("t%d", i), 1)
		if err != nil {
			t.Fatalf("tenant %d of %d: %v", i+1, maxTenants, err)
		}
		rel()
	}
	_, err := q.Acquire(context.Background(), "one-too-many", 1)
	mustQuota(t, err)
}

func TestAcquireCancelCleansUp(t *testing.T) {
	q := New(Options{Slots: 1})
	release, err := q.Acquire(context.Background(), "holder", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 1)
	go func() {
		_, err := q.Acquire(ctx, "t", 1)
		errs <- err
	}()
	waitQueued(t, q, 1)
	cancel()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled acquire returned %v", err)
	}
	if n := q.QueuedAcquisitions(); n != 0 {
		t.Fatalf("abandoned waiter leaked: %d queued", n)
	}
	release()
	if n := q.InFlightCells(); n != 0 {
		t.Fatalf("in-flight gauge leaked: %d", n)
	}
	for _, snap := range q.Snapshot() {
		if snap.QueueDepth != 0 || snap.InFlightCells != 0 {
			t.Fatalf("tenant %s gauges leaked: %+v", snap.Tenant, snap)
		}
	}
}

// TestSentinelKinds pins the wire classification of the two overload
// sentinels, wrapped and bare — the contract behind the distinct
// 429/504 statuses.
func TestSentinelKinds(t *testing.T) {
	cases := []struct {
		err  error
		want fault.ErrorKind
	}{
		{ErrQuota, fault.KindQuota},
		{ErrDeadlineShed, fault.KindShed},
	}
	for _, tc := range cases {
		if got := fault.Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %q, want %q", tc.err, got, tc.want)
		}
		wrapped := fmt.Errorf("outer: %w", tc.err)
		if got := fault.Classify(wrapped); got != tc.want {
			t.Errorf("Classify(wrapped %v) = %q, want %q", tc.err, got, tc.want)
		}
		if fault.Retryable(tc.err) {
			t.Errorf("%v must not be retryable: the work was refused by policy", tc.err)
		}
	}
}

// TestConcurrentChurn hammers the queue from many goroutines under
// -race and asserts every gauge drains to zero.
func TestConcurrentChurn(t *testing.T) {
	q := New(Options{Slots: 3})
	var wg sync.WaitGroup
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", g%4)
			for i := 0; i < 50; i++ {
				rel, err := q.Acquire(context.Background(), name, 1+i%3)
				if err != nil {
					t.Errorf("churn acquire: %v", err)
					return
				}
				rel()
			}
		}(g)
	}
	wg.Wait()
	if n := q.QueuedAcquisitions(); n != 0 {
		t.Fatalf("queued gauge leaked: %d", n)
	}
	if n := q.InFlightCells(); n != 0 {
		t.Fatalf("in-flight gauge leaked: %d", n)
	}
	var completed int64
	for _, snap := range q.Snapshot() {
		completed += snap.CompletedCells
		if snap.AdmittedCells != snap.CompletedCells {
			t.Fatalf("tenant %s admitted %d but completed %d", snap.Tenant, snap.AdmittedCells, snap.CompletedCells)
		}
	}
	if completed == 0 {
		t.Fatal("no cells completed")
	}
}
