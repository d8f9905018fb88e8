// Package trace defines the instruction-level currency of the simulator:
// dynamic instruction records, replayable instruction streams, and the
// event metadata that ties streams to the asynchronous runtime.
//
// The paper drives its evaluation with instruction traces of Chromium's
// renderer process (Section 5). We reproduce that pipeline with synthetic
// but statistically calibrated traces (package workload); everything above
// the generator consumes only the types defined here, so recorded traces
// and synthetic traces are interchangeable.
//
// Inst is the interchange record, 24 bytes wide. The workload plane
// stores streams as a Tape instead: an op byte per instruction plus
// 32-bit operand words, where an address is a 4-bit window index over a
// 28-bit offset into one of up to 15 windows of 256 MiB that the whole
// tape shares, an explicit PC is two words, and an address outside
// every window escapes to a 64-bit side array at 12 bytes. Synthetic
// sessions cost about 2.8 bytes per instruction that way, and the replay
// loops walk a tape in place through an inlined Cursor.
package trace

// Kind classifies a dynamic instruction. The timing model only needs to
// know whether an instruction touches memory, transfers control, or
// occupies an execution slot.
type Kind uint8

const (
	// ALU is any non-memory, non-control instruction.
	ALU Kind = iota
	// Load reads memory at Inst.Addr.
	Load
	// Store writes memory at Inst.Addr.
	Store
	// Branch is a control transfer; Taken/Target/Indirect describe it.
	Branch
)

// String returns a short mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case ALU:
		return "alu"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	default:
		return "unknown"
	}
}

// InstBytes is the fixed instruction size. A fixed-size RISC-like encoding
// keeps program-counter arithmetic trivial; the paper's traces are x86 but
// nothing in ESP depends on variable-length encoding.
const InstBytes = 4

// LineBytes is the cache line size used throughout (Figure 7).
const LineBytes = 64

// Inst is one dynamic instruction. The record is deliberately 24 bytes:
// workload planes hold millions of these and every replay streams them
// end-to-end, so record width is replay memory bandwidth.
type Inst struct {
	// PC is the instruction's virtual address.
	PC uint64
	// Addr is the instruction's data address: the effective memory
	// address for Load/Store, and the branch target for Branch. No
	// instruction kind carries both meanings, so they share one field.
	Addr uint64
	// Kind classifies the instruction.
	Kind Kind
	// Taken reports whether a Branch was taken.
	Taken bool
	// Indirect reports whether a Branch computed its target at run time
	// (indirect call/jump); such branches consult the iBTB.
	Indirect bool
	// Call marks a Branch that pushes a return address; Ret marks one
	// that returns through it. They drive the return address stack.
	Call bool
	Ret  bool
}

// NextPC returns the address of the instruction that follows i in the
// dynamic stream.
func (i Inst) NextPC() uint64 {
	if i.Kind == Branch && i.Taken {
		return i.Addr
	}
	return i.PC + InstBytes
}

// Line returns the cache line address (tag | index bits) containing addr.
func Line(addr uint64) uint64 { return addr &^ (LineBytes - 1) }

// Stream is a replayable sequence of dynamic instructions for one event.
// Next returns false when the event has retired its last instruction.
type Stream interface {
	Next() (Inst, bool)
}

// EventClass groups events by the kind of asynchronous work they carry.
// The classes mirror the mobile-web taxonomy from PES: user input, frame
// rendering, timer callbacks, and network completions. ClassNone marks
// events from untimed workloads that carry no class information.
type EventClass uint8

const (
	// ClassNone is the zero class: the event carries no class metadata.
	ClassNone EventClass = iota
	// ClassInput is a user-input handler (tap, scroll, key).
	ClassInput
	// ClassRender is a frame-rendering callback (rAF, style/layout).
	ClassRender
	// ClassTimer is a timer expiry (setTimeout/setInterval).
	ClassTimer
	// ClassNetwork is a network completion (XHR/fetch callback).
	ClassNetwork

	// NumEventClasses is the number of distinct EventClass values.
	NumEventClasses = 5
)

// String returns a short mnemonic for the class.
func (c EventClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassInput:
		return "input"
	case ClassRender:
		return "render"
	case ClassTimer:
		return "timer"
	case ClassNetwork:
		return "network"
	default:
		return "unknown"
	}
}

// Event is one unit of asynchronous work: a handler invocation posted to
// the software event queue.
type Event struct {
	// ID is the event's position in the session's execution order.
	ID int
	// Handler identifies the handler type (callback function) invoked.
	Handler int
	// Seed makes the event's dynamic behaviour reproducible.
	Seed uint64
	// Len is the approximate number of instructions the event retires.
	Len int
	// Diverge, when >= 0, is the instruction index at which a speculative
	// pre-execution of this event diverges from its eventual normal
	// execution (the event depended on an earlier, skipped event). A
	// value of -1 means pre-execution matches normal execution exactly.
	Diverge int
	// Class groups the event for scheduling and responsiveness metrics.
	// ClassNone (the zero value) marks events with no class metadata.
	Class EventClass
	// Prio is the event's scheduling priority; lower values are more
	// urgent. Only consulted by priority-aware schedulers.
	Prio uint8
	// Arrival is the virtual time (in instruction units) at which the
	// event was posted to the queue. Untimed workloads leave it zero.
	Arrival int64
	// Deadline is the virtual time by which the event should complete;
	// zero means the event carries no deadline.
	Deadline int64
}

// Timed reports whether the event carries any scheduling metadata
// (class, priority, arrival, or deadline).
func (e Event) Timed() bool {
	return e.Class != ClassNone || e.Prio != 0 || e.Arrival != 0 || e.Deadline != 0
}

// Record drains a stream into a slice, up to max instructions
// (max <= 0 means unbounded).
func Record(s Stream, max int) []Inst {
	var out []Inst
	for {
		if max > 0 && len(out) >= max {
			return out
		}
		in, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, in)
	}
}
