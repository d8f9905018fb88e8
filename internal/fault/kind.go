package fault

import (
	"context"
	"errors"

	"espsim/internal/sim"
	"espsim/internal/trace"
)

// ErrorKind is the typed, exhaustive classification of a failed
// operation — the wire value of a sweep cell's "error_kind" and the
// label the cluster coordinator attaches to a failed shard. Every
// sentinel the engine or the resilience layer can produce maps to
// exactly one kind (see Classify); the serving layers never invent
// ad-hoc strings.
type ErrorKind string

const (
	// KindNone classifies a nil error.
	KindNone ErrorKind = ""
	// KindTimeout: the cell blew its simulation deadline (sim.ErrTimeout).
	KindTimeout ErrorKind = "timeout"
	// KindPanic: the cell panicked and was contained (sim.ErrPanic).
	KindPanic ErrorKind = "panic"
	// KindBuild: workload materialization failed (sim.ErrBuild).
	KindBuild ErrorKind = "build"
	// KindNet: a node-level fault — a worker that is unreachable or no
	// longer a process (cluster.ErrWorkerDown).
	KindNet ErrorKind = "net"
	// KindInjected: a chaos plan manufactured the failure (ErrInjected).
	KindInjected ErrorKind = "injected"
	// KindBreakerOpen: the operation was never attempted because its
	// circuit breaker is quarantining it (ErrBreakerOpen).
	KindBreakerOpen ErrorKind = "breaker_open"
	// KindCanceled: the client went away or the deadline passed before
	// the work ran (context.Canceled / context.DeadlineExceeded).
	KindCanceled ErrorKind = "canceled"
	// KindConfig: the request named an unknown workload/configuration or
	// carried incoherent knobs; validation sites wrap a KindConfig
	// Sentinel, which Classify recovers.
	KindConfig ErrorKind = "config"
	// KindQuota: a tenant exhausted its cumulative cell budget, or the
	// queue refused yet another distinct tenant name
	// (tenantq.ErrQuota; espd maps it to 429).
	KindQuota ErrorKind = "quota"
	// KindBrownout: the cell was refused because its workload does not
	// fit the runner's live-byte memory budget, never attempted
	// (sim.ErrMemory; espd maps it to 503).
	KindBrownout ErrorKind = "brownout"
	// KindShed: the work was dropped because it provably could not
	// finish before its deadline — shed at admission or per cell, never
	// attempted (tenantq.ErrDeadlineShed; espd maps it to 504).
	KindShed ErrorKind = "deadline_shed"
	// KindError is the fallback for an unclassified failure.
	KindError ErrorKind = "error"
)

// Kinds enumerates every ErrorKind a cell or shard can report,
// KindNone excluded. Tests iterate this to keep the taxonomy closed:
// adding a kind without extending Classify (or vice versa) fails them.
func Kinds() []ErrorKind {
	return []ErrorKind{
		KindTimeout, KindPanic, KindBuild, KindNet, KindInjected,
		KindBreakerOpen, KindCanceled, KindConfig, KindQuota,
		KindBrownout, KindShed, KindError,
	}
}

// Classify maps an error to its ErrorKind. Order matters and is part
// of the contract: a timeout wrapping an injected stall is still a
// timeout, and a build failure wrapping an injected error is still a
// build failure.
func Classify(err error) ErrorKind {
	var ks *kindSentinel
	switch {
	case err == nil:
		return KindNone
	case errors.Is(err, sim.ErrTimeout):
		return KindTimeout
	case errors.Is(err, sim.ErrPanic):
		return KindPanic
	case errors.Is(err, sim.ErrBuild):
		return KindBuild
	case errors.Is(err, sim.ErrMemory):
		return KindBrownout
	case errors.Is(err, trace.ErrBadTrace):
		// A malformed trace is a materialization failure: the workload
		// never existed, exactly like a build error.
		return KindBuild
	case errors.Is(err, ErrInjected):
		return KindInjected
	case errors.Is(err, ErrBreakerOpen):
		return KindBreakerOpen
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return KindCanceled
	case errors.As(err, &ks):
		return ks.kind
	default:
		return KindError
	}
}

// Sentinel builds a package-level error that carries its own ErrorKind,
// for sentinels declared outside this package: Classify recovers the
// kind with errors.As, so the declaring package never needs an
// errors.Is case added here. The engine-priority cases above still win
// when they wrap one of these — a timeout wrapping a kind-carrying
// sentinel is still a timeout.
func Sentinel(msg string, k ErrorKind) error {
	return &kindSentinel{msg: msg, kind: k}
}

type kindSentinel struct {
	msg  string
	kind ErrorKind
}

func (e *kindSentinel) Error() string { return e.msg }

// Retryable reports whether a failure is worth another attempt on the
// same node: timeouts (a transient stall may clear), panics (the
// poisoned machine was dropped), build failures (the runner un-caches
// them so a retry rebuilds), and injected faults. Node faults are
// deliberately not retryable at cell granularity — the coordinator
// reschedules the whole shard on a peer instead. Validation errors,
// dead clients, and breaker skips are final.
func Retryable(err error) bool {
	switch Classify(err) {
	case KindTimeout, KindPanic, KindBuild, KindInjected:
		return true
	default:
		return false
	}
}
