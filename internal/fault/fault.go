// Package fault is the resilience layer of the simulation engine: a
// deterministic, seeded fault injector (Plan) that drives chaos tests
// byte-for-byte reproducibly through sim.Runner's FaultHook seam, plus
// the recovery machinery the espd service threads around every sweep
// cell — bounded retries with exponential backoff (RetryPolicy), a
// per-cell circuit breaker that quarantines persistently failing cells
// (BreakerSet), and an Executor combining the two.
//
// The paper's core move is speculation under failure: make forward
// progress while the primary path stalls, recover cleanly when the
// speculation was wasted. This package is the serving-layer analogue —
// a sweep keeps making forward progress while individual cells panic,
// stall, or fail to build, and recovers the wasted work by retrying,
// quarantining, or resuming from a checkpoint instead of aborting the
// grid.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"espsim/internal/sim"
)

// ErrInjected marks an error manufactured by a Plan, so tests and the
// service's error classifier can tell injected faults from organic
// ones: errors.Is(err, fault.ErrInjected).
var ErrInjected = errors.New("injected fault")

// Kind enumerates the fault shapes a Plan can inject into one cell.
type Kind uint8

const (
	// None leaves the operation untouched.
	None Kind = iota
	// Error fails the operation with an ErrInjected-wrapped error.
	Error
	// Panic panics inside the operation, exercising the runner's
	// containment (the machine is dropped, the error carries
	// sim.ErrPanic).
	Panic
	// Slow stalls the operation by the plan's SleepFor, or until the
	// cell is stopped, before letting it proceed, so a cell with a
	// tighter deadline times out.
	Slow
	// BuildFail fails the workload materialization ("build" ops) with an
	// ErrInjected-wrapped error; the runner drops the failed build from
	// its cache so a retry rebuilds.
	BuildFail
)

// String names a Kind for logs and test output.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Slow:
		return "slow"
	case BuildFail:
		return "build_fail"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Plan is a deterministic fault plan: which (app, config) cells fault,
// how, and for how many attempts, all derived from Seed by hashing —
// never from time or global randomness — so one seed reproduces one
// chaos run byte-for-byte. The zero value injects nothing; fill the
// exported knobs, then install Hook on a sim.Runner.
//
// A faulted cell fails its first FailFirst attempts and then behaves
// normally, which is exactly the shape retry machinery must recover
// from; cells registered with Always fail every attempt, which is
// exactly the shape a circuit breaker must quarantine.
type Plan struct {
	// Seed fixes every fault decision.
	Seed int64
	// RunRate is the fraction of distinct (app, config) replay cells
	// that fault, in [0, 1].
	RunRate float64
	// BuildRate is the fraction of distinct apps whose workload
	// materialization faults, in [0, 1].
	BuildRate float64
	// FailFirst is how many attempts of a faulted operation fail before
	// it recovers (minimum 1 once the plan decides to fault).
	FailFirst int
	// SleepFor is the stall duration for Slow faults.
	SleepFor time.Duration

	mu     sync.Mutex
	counts map[string]int
	always map[string]Kind
}

// Always registers a cell that faults with kind on every replay
// attempt, regardless of rates — the breaker-quarantine shape.
func (p *Plan) Always(app, config string, kind Kind) {
	p.mu.Lock()
	if p.always == nil {
		p.always = make(map[string]Kind)
	}
	p.always[app+"/"+config] = kind
	p.mu.Unlock()
}

// hashDecide derives the deterministic fault decision for one operation
// from the seed alone.
func (p *Plan) hashDecide(op, app, config string, rate float64) Kind {
	if rate <= 0 {
		return None
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%s", p.Seed, op, app, config)
	v := h.Sum64()
	if float64(v%10000) >= rate*10000 {
		return None
	}
	if op == "build" {
		return BuildFail
	}
	// Spread the run-fault kinds deterministically across faulted cells.
	switch (v / 10000) % 3 {
	case 0:
		return Error
	case 1:
		return Panic
	default:
		return Slow
	}
}

// RunFault reports the kind a replay of (app, config) is assigned —
// introspection for tests asserting fault coverage.
func (p *Plan) RunFault(app, config string) Kind {
	p.mu.Lock()
	k, ok := p.always[app+"/"+config]
	p.mu.Unlock()
	if ok {
		return k
	}
	return p.hashDecide("run", app, config, p.RunRate)
}

// BuildFault reports whether app's workload materialization faults.
func (p *Plan) BuildFault(app string) bool {
	return p.hashDecide("build", app, "", p.BuildRate) != None
}

// Hook adapts the plan to the runner's injection seam. The returned
// hook tracks per-operation attempt counts so a faulted operation
// recovers after FailFirst failures (Always cells never recover).
func (p *Plan) Hook() sim.FaultHook {
	return func(pt sim.FaultPoint) error {
		var kind Kind
		forever := false
		switch pt.Op {
		case "build":
			if p.BuildFault(pt.App) {
				kind = BuildFail
			}
		case "run":
			p.mu.Lock()
			k, ok := p.always[pt.App+"/"+pt.Config]
			p.mu.Unlock()
			if ok {
				kind, forever = k, true
			} else {
				kind = p.hashDecide("run", pt.App, pt.Config, p.RunRate)
			}
		}
		if kind == None {
			return nil
		}

		key := pt.Op + "|" + pt.App + "|" + pt.Config
		p.mu.Lock()
		if p.counts == nil {
			p.counts = make(map[string]int)
		}
		attempt := p.counts[key]
		p.counts[key]++
		p.mu.Unlock()
		failFirst := p.FailFirst
		if failFirst < 1 {
			failFirst = 1
		}
		if !forever && attempt >= failFirst {
			return nil
		}

		switch kind {
		case Error:
			return fmt.Errorf("fault: run %s/%s attempt %d: %w", pt.App, pt.Config, attempt+1, ErrInjected)
		case Panic:
			panic(fmt.Sprintf("fault: injected panic in %s/%s attempt %d", pt.App, pt.Config, attempt+1))
		case Slow:
			stall := time.NewTimer(p.SleepFor)
			select {
			case <-stall.C:
			case <-pt.Done:
			}
			stall.Stop()
			return nil
		case BuildFail:
			return fmt.Errorf("fault: build %s attempt %d: %w", pt.App, attempt+1, ErrInjected)
		}
		return nil
	}
}
