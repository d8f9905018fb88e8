package cluster

import (
	"context"
	"fmt"

	"espsim/internal/fault"
	"espsim/internal/serve"
)

// FaultyWorker layers a network fault plan over a Worker: a worker the
// plan registered fails every call with an injected 5xx, so cluster
// chaos tests replay exactly.
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
	if err := fw.cross("sweep"); err != nil {
		return serve.SweepResponse{}, err
	}
	return fw.inner.Sweep(ctx, req)
}

// Probe implements Worker.
func (fw *FaultyWorker) Probe(ctx context.Context) error {
	if err := fw.cross("probe"); err != nil {
		return err
	}
	return fw.inner.Probe(ctx)
}

// cross is one traversal of the faulty link: an injected fault fails
// the call before it reaches the worker.
func (fw *FaultyWorker) cross(op string) error {
	name := fw.inner.Name()
	if kind := fw.plan.Fault(name); kind != fault.NetNone {
		return fmt.Errorf("%w: %s: %s %s", fault.ErrNet, name, op, kind)
	}
	return nil
}
