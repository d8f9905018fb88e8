package sim

import (
	"unsafe"

	"espsim/internal/eventq"
	"espsim/internal/trace"
)

// Bytes returns the workload's resident heap footprint: the tape (its
// arrays are sized exactly, so their capacity is what the allocator
// holds, and the operand table its views share counts once), the
// per-event tape views, the event list, the pending spans and table,
// and the baked schedule. Session-built workloads alias pendTab to
// events; the alias is detected and counted once. The count feeds the
// runner's cache byte budget, brownout and the sim.workload_mb probe;
// map headers and allocator rounding are ignored.
func (w *Workload) Bytes() int64 {
	const (
		tapeSize  = int64(unsafe.Sizeof(trace.Tape{}))
		eventSize = int64(unsafe.Sizeof(trace.Event{}))
		spanSize  = int64(unsafe.Sizeof(span{}))
	)
	b := int64(unsafe.Sizeof(Workload{}))
	b += w.tape.Bytes()
	b += int64(len(w.normal)+len(w.spec)) * tapeSize
	b += int64(len(w.events)) * eventSize
	b += int64(len(w.pend)) * spanSize
	pendTab, events := w.pendTab, w.events
	if len(pendTab) > 0 && !(len(events) > 0 && &pendTab[0] == &events[0]) {
		b += int64(len(pendTab)) * eventSize
	}
	if s := w.sched; s != nil {
		b += int64(unsafe.Sizeof(eventq.Schedule{}))
		b += int64(len(s.Order)) * int64(unsafe.Sizeof(int32(0)))
		b += int64(len(s.Dispatch)+len(s.Complete)) * 8
		b += int64(len(s.Stats.Classes)) * int64(unsafe.Sizeof(eventq.ClassLatency{}))
	}
	return b
}
