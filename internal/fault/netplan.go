package fault

import (
	"errors"
	"fmt"
	"sync"
)

// ErrNet marks a node-level network failure manufactured by a NetPlan
// (or a real transport error the cluster wraps): the worker was
// unreachable or answered a server error. Classify maps it to KindNet
// ahead of KindInjected, so an injected network fault still reads as a
// network fault.
var ErrNet = errors.New("network fault")

// NetKind enumerates the network faults a NetPlan can inject between
// the coordinator and one worker — the node-level analogue of Kind.
type NetKind uint8

const (
	// NetNone leaves the call untouched.
	NetNone NetKind = iota
	// NetErr makes the worker answer a 5xx-shaped server error.
	NetErr
)

// String names a NetKind for logs and test output.
func (k NetKind) String() string {
	switch k {
	case NetNone:
		return "none"
	case NetErr:
		return "5xx"
	default:
		return fmt.Sprintf("netkind(%d)", uint8(k))
	}
}

// NetPlan is a network fault plan, layered on the cell plan: the
// workers registered with Always fault on every call and never clear —
// the dead-node shape a breaker must quarantine. The zero value injects
// nothing.
type NetPlan struct {
	mu     sync.Mutex
	always map[string]NetKind
}

// Always registers a worker that faults with kind on every call.
func (p *NetPlan) Always(worker string, kind NetKind) {
	p.mu.Lock()
	if p.always == nil {
		p.always = make(map[string]NetKind)
	}
	p.always[worker] = kind
	p.mu.Unlock()
}

// Fault decides one call to worker's fate.
func (p *NetPlan) Fault(worker string) NetKind {
	if p == nil {
		return NetNone
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.always[worker]
}
