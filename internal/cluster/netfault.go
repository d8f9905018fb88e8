package cluster

import (
	"context"
	"fmt"
	"time"

	"espsim/internal/fault"
	"espsim/internal/serve"
)

// FaultyWorker layers a deterministic network fault plan over a
// Worker: the same seed yields the same drops, stalls, and injected
// 5xx on every run, so cluster chaos tests replay exactly. A
// partitioned (or Always-faulted) worker fails every call until
// healed; hashed faults clear after the plan's FailFirst attempts,
// modelling a flaky-then-recovering link.
type FaultyWorker struct {
	inner Worker
	plan  *fault.NetPlan
}

// WithNetPlan wraps w; a nil plan returns w unchanged.
func WithNetPlan(w Worker, plan *fault.NetPlan) Worker {
	if plan == nil {
		return w
	}
	return &FaultyWorker{inner: w, plan: plan}
}

// Name implements Worker.
func (fw *FaultyWorker) Name() string { return fw.inner.Name() }

// Sweep implements Worker.
func (fw *FaultyWorker) Sweep(ctx context.Context, req serve.SweepRequest) (serve.SweepResponse, error) {
	if err := fw.cross(ctx, "sweep"); err != nil {
		return serve.SweepResponse{}, err
	}
	return fw.inner.Sweep(ctx, req)
}

// Probe implements Worker.
func (fw *FaultyWorker) Probe(ctx context.Context) error {
	if err := fw.cross(ctx, "probe"); err != nil {
		return err
	}
	return fw.inner.Probe(ctx)
}

// cross is one traversal of the faulty link: drops and injected
// errors fail immediately, a stall delays then lets the call through
// (unless the context gives up first — which is how a stall turns
// into a timeout), a partition fails until healed.
func (fw *FaultyWorker) cross(ctx context.Context, op string) error {
	name := fw.inner.Name()
	switch kind := fw.plan.Fault(name, op); kind {
	case fault.NetNone:
		return nil
	case fault.NetStall:
		stall := fw.plan.StallFor
		if stall <= 0 {
			stall = 50 * time.Millisecond
		}
		select {
		case <-time.After(stall):
			return nil
		case <-ctx.Done():
			return fmt.Errorf("%w: %s: %s stalled past the deadline: %v", fault.ErrNet, name, op, ctx.Err())
		}
	default:
		return fmt.Errorf("%w: %s: %s %s", fault.ErrNet, name, op, kind)
	}
}
