package core

import (
	"maps"
	"testing"

	"espsim/internal/branch"
	"espsim/internal/cpu"
	"espsim/internal/mem"
	"espsim/internal/trace"
)

// fakeSource serves hand-built speculative streams keyed by event ID.
type fakeSource struct {
	streams map[int][]trace.Inst
	calls   int
}

func (f *fakeSource) SpecTape(ev trace.Event) trace.Tape {
	f.calls++
	return trace.EncodeTape(f.streams[ev.ID])
}

// mkStream builds a stream with one cold line every lineEvery insts and a
// cold load every loadEvery insts.
func mkStream(n int, base uint64, loadEvery int) []trace.Inst {
	out := make([]trace.Inst, n)
	pc := base
	for i := range out {
		out[i] = trace.Inst{PC: pc, Kind: trace.ALU}
		if loadEvery > 0 && i%loadEvery == loadEvery/2 {
			out[i].Kind = trace.Load
			out[i].Addr = 0x8_0000_0000 + base + uint64(i)*trace.LineBytes
		}
		pc += trace.InstBytes
	}
	return out
}

func testESP(t *testing.T, opt Options) (*ESP, *fakeSource, *mem.Hierarchy, *branch.Predictor) {
	t.Helper()
	h := mem.DefaultHierarchy()
	bp := branch.New()
	src := &fakeSource{streams: map[int][]trace.Inst{}}
	e, err := New(opt, h, bp, src)
	if err != nil {
		t.Fatal(err)
	}
	return e, src, h, bp
}

func ev(id, n int) trace.Event { return trace.Event{ID: id, Handler: id % 4, Len: n, Diverge: -1} }

func TestOptionsValidate(t *testing.T) {
	bad := DefaultOptions()
	bad.JumpDepth = 9
	if _, err := New(bad, mem.DefaultHierarchy(), branch.New(), &fakeSource{}); err == nil {
		t.Fatal("JumpDepth 9 accepted")
	}
	bad = DefaultOptions()
	bad.BaseCPI = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero BaseCPI accepted")
	}
}

func TestHardwareBudgetMatchesFigure8(t *testing.T) {
	rows := HardwareBudget(DefaultSizes())
	esp1 := BudgetTotal(rows, 0)
	esp2 := BudgetTotal(rows, 1)
	// Paper: 12.6 KB and 1.2 KB.
	if esp1 < 12500 || esp1 > 13100 {
		t.Fatalf("ESP-1 budget %d B, want ~12.6 KB", esp1)
	}
	if esp2 < 1150 || esp2 > 1350 {
		t.Fatalf("ESP-2 budget %d B, want ~1.2 KB", esp2)
	}
}

func TestPreExecutionRecordsFills(t *testing.T) {
	e, src, _, _ := testESP(t, DefaultOptions())
	src.streams[1] = mkStream(400, 0x10000, 20)
	e.EventStart(ev(0, 100), []trace.Event{ev(1, 400)})
	if !e.OnStall(cpu.StallD, 0, trace.Cursor{}, 2000) {
		t.Fatal("stall not used despite a pending event")
	}
	if e.Stats.PreExecInsts == 0 || e.Stats.CacheletFills == 0 {
		t.Fatalf("nothing pre-executed: %+v", e.Stats)
	}
	if e.Stats.RecI == 0 || e.Stats.RecD == 0 {
		t.Fatalf("no records gathered: %+v", e.Stats)
	}
}

func TestNoPendingNoJump(t *testing.T) {
	e, _, _, _ := testESP(t, DefaultOptions())
	e.EventStart(ev(0, 100), nil)
	if e.OnStall(cpu.StallD, 0, trace.Cursor{}, 1000) {
		t.Fatal("jumped ahead with an empty queue")
	}
}

func TestReentrantPreExecution(t *testing.T) {
	e, src, _, _ := testESP(t, DefaultOptions())
	src.streams[1] = mkStream(4000, 0x10000, 25)
	e.EventStart(ev(0, 100), []trace.Event{ev(1, 4000)})
	e.OnStall(cpu.StallD, 0, trace.Cursor{}, 300)
	first := e.Stats.PreExecInsts
	if first == 0 {
		t.Fatal("first stall pre-executed nothing")
	}
	e.OnStall(cpu.StallD, 10, trace.Cursor{}, 300)
	if e.Stats.PreExecInsts <= first {
		t.Fatal("second stall did not resume pre-execution")
	}
	if src.calls != 1 {
		t.Fatalf("stream materialized %d times, want 1 (EU bit)", src.calls)
	}
}

func TestJumpEscalatesToESP2(t *testing.T) {
	e, src, _, _ := testESP(t, DefaultOptions())
	// Event 1 is one instruction long: ends immediately, forcing a jump
	// to event 2.
	src.streams[1] = mkStream(1, 0x10000, 0)
	src.streams[2] = mkStream(400, 0x20000, 20)
	e.EventStart(ev(0, 100), []trace.Event{ev(1, 1), ev(2, 400)})
	e.OnStall(cpu.StallD, 0, trace.Cursor{}, 2000)
	if e.Stats.ModeEntries[1] == 0 {
		t.Fatal("never entered ESP-2")
	}
}

func TestConsumptionIssuesPrefetches(t *testing.T) {
	e, src, h, _ := testESP(t, DefaultOptions())
	stream := mkStream(600, 0x10000, 30)
	src.streams[1] = stream
	// Pre-execute event 1 deeply during event 0.
	e.EventStart(ev(0, 100), []trace.Event{ev(1, 600)})
	for i := 0; i < 20; i++ {
		e.OnStall(cpu.StallD, i, trace.Cursor{}, 1000)
	}
	recs := e.Stats.RecI
	if recs == 0 {
		t.Fatal("no I records")
	}
	// Event 1 now runs normally.
	e.EventEnd(ev(0, 100))
	e.EventStart(ev(1, 600), []trace.Event{ev(2, 600)})
	for i := 0; i < 600; i++ {
		e.OnInst(i)
	}
	if e.Stats.PrefetchI == 0 || e.Stats.PrefetchD == 0 {
		t.Fatalf("no prefetches issued: %+v", e.Stats)
	}
	// The prefetched lines are exactly the recorded ones: they must be
	// resident now.
	if !h.L1I.Probe(0x10000) {
		t.Fatal("first code line of the pre-executed event not prefetched")
	}
	if e.Stats.EventsConsumed != 1 {
		t.Fatalf("EventsConsumed = %d", e.Stats.EventsConsumed)
	}
}

func TestPrefetchLeadRespected(t *testing.T) {
	e, src, h, _ := testESP(t, DefaultOptions())
	stream := mkStream(2000, 0x10000, 0)
	src.streams[1] = stream
	e.EventStart(ev(0, 100), []trace.Event{ev(1, 2000)})
	for i := 0; i < 30; i++ {
		e.OnStall(cpu.StallD, i, trace.Cursor{}, 1000)
	}
	e.EventEnd(ev(0, 100))
	e.EventStart(ev(1, 2000), nil)
	// Immediately after event start, only entries within the pre-event
	// window + lookahead should have been prefetched, not the deep tail.
	deepLine := trace.Line(stream[1900].PC)
	if h.L1I.Probe(deepLine) {
		t.Fatal("deep-tail line prefetched too early (ignores the 190-inst lookahead)")
	}
	e.OnInst(1900 - e.Opt.PrefetchLead + 1)
	if !h.L1I.Probe(deepLine) {
		t.Fatal("lookahead reached the entry but no prefetch was issued")
	}
}

func TestCorrectBranchMatchesRecordedMispredicts(t *testing.T) {
	opt := DefaultOptions()
	e, src, h, _ := testESP(t, opt)
	// A stream with an unpredictable branch pattern at a fixed PC.
	var stream []trace.Inst
	pc := uint64(0x10000)
	for i := 0; i < 300; i++ {
		if i%10 == 5 {
			taken := (i/10)%2 == 0
			stream = append(stream, trace.Inst{PC: pc, Kind: trace.Branch, Taken: taken, Addr: pc + 4})
		} else {
			stream = append(stream, trace.Inst{PC: pc, Kind: trace.ALU})
		}
		pc += 4
	}
	src.streams[1] = stream
	// Warm code so pre-execution runs deep.
	for _, in := range stream {
		h.L2.Install(in.PC, false)
	}
	e.EventStart(ev(0, 100), []trace.Event{ev(1, len(stream))})
	for i := 0; i < 10; i++ {
		e.OnStall(cpu.StallD, i, trace.Cursor{}, 2000)
	}
	if e.Stats.RecB == 0 {
		t.Fatal("no branch mispredictions recorded during pre-execution")
	}
	e.EventEnd(ev(0, 100))
	e.EventStart(ev(1, len(stream)), nil)
	corrected := 0
	for i, in := range stream {
		e.OnInst(i)
		if in.Kind == trace.Branch && e.CorrectBranch(i, in) {
			corrected++
		}
	}
	if corrected == 0 {
		t.Fatal("B-list corrections never fired")
	}
	if int64(corrected) != e.Stats.Corrections {
		t.Fatalf("corrections miscounted: %d vs %d", corrected, e.Stats.Corrections)
	}
}

func TestCorrectBranchRejectsUnrecorded(t *testing.T) {
	e, _, _, _ := testESP(t, DefaultOptions())
	e.EventStart(ev(0, 100), nil)
	if e.CorrectBranch(5, trace.Inst{PC: 0x1234, Kind: trace.Branch}) {
		t.Fatal("corrected a branch with no records at all")
	}
}

func TestDivergedRecordsDoNotMatch(t *testing.T) {
	e, src, h, _ := testESP(t, DefaultOptions())
	// Speculative stream differs from the normal one entirely (models a
	// dependent event: Diverge=0).
	spec := mkStream(300, 0x50000, 20)
	normal := mkStream(300, 0x90000, 20)
	src.streams[1] = spec
	for _, in := range spec {
		h.L2.Install(in.PC, false)
	}
	e.EventStart(ev(0, 100), []trace.Event{ev(1, 300)})
	for i := 0; i < 10; i++ {
		e.OnStall(cpu.StallD, i, trace.Cursor{}, 2000)
	}
	e.EventEnd(ev(0, 100))
	e.EventStart(ev(1, 300), nil)
	for i, in := range normal {
		e.OnInst(i)
		if in.Kind == trace.Branch && e.CorrectBranch(i, in) {
			t.Fatal("corrected a branch from a diverged pre-execution")
		}
	}
	// Prefetches were issued, but for the wrong lines.
	if h.L1I.Probe(0x90000) {
		t.Fatal("normal path line cannot have been prefetched from the diverged stream")
	}
}

func TestSlotMismatchDiscardsRecords(t *testing.T) {
	e, src, _, _ := testESP(t, DefaultOptions())
	src.streams[1] = mkStream(300, 0x10000, 20)
	e.EventStart(ev(0, 100), []trace.Event{ev(1, 300)})
	e.OnStall(cpu.StallD, 0, trace.Cursor{}, 2000)
	e.EventEnd(ev(0, 100))
	// A different event than predicted arrives (the §4.5 case).
	e.EventStart(ev(7, 300), nil)
	if e.cons != nil {
		t.Fatal("records consumed despite queue mispredict")
	}
	if e.Stats.SlotMismatches == 0 {
		t.Fatal("mismatch not counted")
	}
}

// TestEngineOwnsItsSlots: an engine holds the same JumpDepth+1 slots
// for its lifetime. Rotation, an event abandoned without its EventEnd,
// and Reset hand slots back; none is dropped or added.
func TestEngineOwnsItsSlots(t *testing.T) {
	e, src, _, _ := testESP(t, DefaultOptions())
	owned := func() map[*slot]bool {
		m := map[*slot]bool{e.spare: true}
		for _, s := range e.slots {
			m[s] = true
		}
		return m
	}
	want := owned()
	if len(want) != e.Opt.JumpDepth+1 {
		t.Fatalf("a new engine holds %d slots, want JumpDepth+1 = %d", len(want), e.Opt.JumpDepth+1)
	}
	for id := 0; id < 9; id++ {
		src.streams[id+1] = mkStream(300, uint64(id+1)<<16, 20)
		src.streams[id+2] = mkStream(300, uint64(id+2)<<16, 20)
		e.EventStart(ev(id, 100), []trace.Event{ev(id+1, 300), ev(id+2, 300)})
		e.OnStall(cpu.StallD, 0, trace.Cursor{}, 2000)
		if id%3 != 2 { // every third event is abandoned mid-run
			e.EventEnd(ev(id, 100))
		}
		if !maps.Equal(owned(), want) {
			t.Fatalf("after event %d the engine's slots changed", id)
		}
	}
	if e.Stats.EventsConsumed == 0 {
		t.Fatal("no event consumed its records: the rotation went untested")
	}
	e.Reset()
	if !maps.Equal(owned(), want) {
		t.Fatal("Reset changed the engine's slots")
	}
}

func TestCacheletIsolation(t *testing.T) {
	e, src, h, _ := testESP(t, DefaultOptions())
	// Pre-executed stores go to the D-cachelet only.
	stream := []trace.Inst{
		{PC: 0x10000, Kind: trace.Store, Addr: 0x8_0000_1000},
		{PC: 0x10004, Kind: trace.ALU},
	}
	src.streams[1] = stream
	e.EventStart(ev(0, 100), []trace.Event{ev(1, 2)})
	e.OnStall(cpu.StallD, 0, trace.Cursor{}, 1000)
	if h.L1D.Probe(0x8_0000_1000) {
		t.Fatal("pre-executed store leaked into L1D")
	}
	if h.L2.Probe(0x8_0000_1000) {
		t.Fatal("pre-executed store leaked into L2")
	}
}

func TestNaiveModePollutesSharedCaches(t *testing.T) {
	opt := DefaultOptions()
	opt.Naive = true
	opt.UseI, opt.UseD, opt.UseB = false, false, false
	opt.BPMode = BPShared
	e, src, h, _ := testESP(t, opt)
	stream := mkStream(200, 0x30000, 10)
	src.streams[1] = stream
	e.EventStart(ev(0, 100), []trace.Event{ev(1, 200)})
	e.OnStall(cpu.StallD, 0, trace.Cursor{}, 3000)
	if e.Stats.PreExecInsts == 0 {
		t.Fatal("naive mode did not pre-execute")
	}
	if !h.L1I.Probe(0x30000) {
		t.Fatal("naive mode should fetch straight into L1I")
	}
	if e.Stats.RecI != 0 {
		t.Fatal("naive mode has no lists")
	}
}

func TestPromotionKeepsRecords(t *testing.T) {
	e, src, h, _ := testESP(t, DefaultOptions())
	src.streams[2] = mkStream(300, 0x20000, 20)
	for _, in := range src.streams[2] {
		h.L2.Install(in.PC, false)
	}
	// Event 2 is pre-executed while it is second in the queue (ESP-2).
	src.streams[1] = mkStream(1, 0x10000, 0) // tiny: forces escalation
	e.EventStart(ev(0, 100), []trace.Event{ev(1, 1), ev(2, 300)})
	e.OnStall(cpu.StallD, 0, trace.Cursor{}, 3000)
	if e.Stats.ModeEntries[1] == 0 {
		t.Fatal("test setup: ESP-2 never entered")
	}
	recs := e.Stats.RecI
	// Event 1 runs (event 2 promotes to ESP-1), then event 2 runs.
	e.EventEnd(ev(0, 100))
	e.EventStart(ev(1, 1), []trace.Event{ev(2, 300)})
	e.EventEnd(ev(1, 1))
	e.EventStart(ev(2, 300), nil)
	for i := 0; i < 300; i++ {
		e.OnInst(i)
	}
	if recs == 0 || e.Stats.PrefetchI == 0 {
		t.Fatalf("records gathered in ESP-2 were not consumed after promotion: recs=%d prefI=%d",
			recs, e.Stats.PrefetchI)
	}
	// Both event 1 (fully pre-executed, trivially) and event 2 consumed.
	if e.Stats.EventsConsumed != 2 {
		t.Fatalf("EventsConsumed = %d", e.Stats.EventsConsumed)
	}
}

func TestListsFullStopsJumping(t *testing.T) {
	opt := DefaultOptions()
	// Minuscule lists: fill immediately.
	opt.Sizes.IListBytes = [2]int{2, 2}
	opt.Sizes.DListBytes = [2]int{2, 2}
	opt.Sizes.BListDirBytes = [2]int{2, 2}
	e, src, h, bp := testESP(t, opt)
	_ = bp
	var stream []trace.Inst
	pc := uint64(0x10000)
	for i := 0; i < 2000; i++ {
		in := trace.Inst{PC: pc, Kind: trace.ALU}
		switch i % 9 {
		case 3:
			in.Kind = trace.Load
			in.Addr = 0x8_0000_0000 + uint64(i)*64
		case 6:
			in = trace.Inst{PC: pc, Kind: trace.Branch, Taken: i%2 == 0, Addr: pc + 4}
		}
		stream = append(stream, in)
		pc += 4
	}
	src.streams[1] = stream
	for _, in := range stream {
		h.L2.Install(in.PC, false)
	}
	e.EventStart(ev(0, 100), []trace.Event{ev(1, 2000)})
	for i := 0; i < 50; i++ {
		e.OnStall(cpu.StallD, i, trace.Cursor{}, 500)
	}
	used := e.Stats.PreExecInsts
	before := e.Stats.ModeEntries[0]
	// Further stalls must be declined: everything is full.
	if e.OnStall(cpu.StallD, 60, trace.Cursor{}, 500) {
		t.Fatal("stall used although all lists are full")
	}
	if e.Stats.ModeEntries[0] != before || e.Stats.PreExecInsts != used {
		t.Fatal("pre-execution continued with full lists")
	}
}

func TestSeparatePIRRestoresNormalContext(t *testing.T) {
	e, src, h, bp := testESP(t, DefaultOptions())
	var stream []trace.Inst
	pc := uint64(0x10000)
	for i := 0; i < 200; i++ {
		in := trace.Inst{PC: pc, Kind: trace.Branch, Taken: i%2 == 0, Addr: pc + 8}
		stream = append(stream, in)
		pc = in.NextPC()
	}
	src.streams[1] = stream
	for _, in := range stream {
		h.L2.Install(in.PC, false)
	}
	e.EventStart(ev(0, 100), []trace.Event{ev(1, 200)})
	bp.SetPIR(0x1A2B)
	ras := bp.SnapshotRAS()
	e.OnStall(cpu.StallD, 0, trace.Cursor{}, 2000)
	if bp.PIR() != 0x1A2B {
		t.Fatalf("normal PIR clobbered: %#x", bp.PIR())
	}
	if bp.SnapshotRAS() != ras {
		t.Fatal("normal RAS clobbered")
	}
	if bp.LoopReadOnly {
		t.Fatal("loop predictor left frozen after pre-execution")
	}
}

func TestReplicateModeInstallsWarmedTables(t *testing.T) {
	opt := DefaultOptions()
	opt.BPMode = BPReplicate
	opt.UseB = false
	e, src, h, bp := testESP(t, opt)
	// A perfectly biased branch at one PC, repeated: the replica learns it.
	var stream []trace.Inst
	for i := 0; i < 64; i++ {
		stream = append(stream, trace.Inst{PC: 0x10000, Kind: trace.Branch, Taken: true, Addr: 0x10000})
	}
	src.streams[1] = stream
	h.L2.Install(0x10000, false)
	e.EventStart(ev(0, 100), []trace.Event{ev(1, 64)})
	e.OnStall(cpu.StallD, 0, trace.Cursor{}, 5000)
	if e.Stats.PreExecInsts == 0 {
		t.Fatal("nothing pre-executed")
	}
	e.EventEnd(ev(0, 100))
	e.EventStart(ev(1, 64), nil)
	pred := bp.Predict(stream[0])
	if !pred.Taken || pred.Target != 0x10000 {
		t.Fatalf("replica training not installed: %+v", pred)
	}
}

func TestDirtyEvictionPoisoning(t *testing.T) {
	opt := DefaultOptions()
	opt.DirtyHazardPeriod = 1 // poison on the first dirty eviction
	e, src, h, _ := testESP(t, opt)
	// Stores to many distinct lines overflow the D-cachelet with dirty
	// lines.
	var stream []trace.Inst
	pc := uint64(0x10000)
	for i := 0; i < 400; i++ {
		stream = append(stream, trace.Inst{PC: pc, Kind: trace.Store, Addr: 0x8_0000_0000 + uint64(i)*64})
		pc += 4
	}
	src.streams[1] = stream
	for _, in := range stream {
		h.L2.Install(in.PC, false)
		h.L2.Install(in.Addr, false)
	}
	e.EventStart(ev(0, 100), []trace.Event{ev(1, 400)})
	for i := 0; i < 20; i++ {
		e.OnStall(cpu.StallD, i, trace.Cursor{}, 2000)
	}
	if e.Stats.DirtyHazards == 0 {
		t.Fatal("no dirty evictions despite store overflow")
	}
	if e.Stats.Poisonings == 0 {
		t.Fatal("poisoning never triggered with period 1")
	}
}

func TestIdealModeUnbounded(t *testing.T) {
	opt := DefaultOptions()
	opt.Ideal = true
	e, src, h, _ := testESP(t, opt)
	stream := mkStream(3000, 0x10000, 15)
	src.streams[1] = stream
	for _, in := range stream {
		h.L2.Install(in.PC, false)
	}
	e.EventStart(ev(0, 100), []trace.Event{ev(1, 3000)})
	for i := 0; i < 100; i++ {
		e.OnStall(cpu.StallD, i, trace.Cursor{}, 2000)
	}
	if e.Stats.ListFull != 0 {
		t.Fatalf("ideal mode dropped %d records", e.Stats.ListFull)
	}
}

func TestWorkingSetStudyCollects(t *testing.T) {
	opt := DefaultOptions()
	opt.MeasureWorkingSets = true
	e, src, h, _ := testESP(t, opt)
	stream := mkStream(300, 0x10000, 20)
	src.streams[1] = stream
	for _, in := range stream {
		h.L2.Install(in.PC, false)
	}
	e.EventStart(ev(0, 100), []trace.Event{ev(1, 300)})
	e.OnStall(cpu.StallD, 0, trace.Cursor{}, 3000)
	e.EventEnd(ev(0, 100))
	e.EventStart(ev(1, 300), nil) // consumes + finalizes study
	reports := e.Study.ReportI()
	if len(reports) != opt.JumpDepth {
		t.Fatalf("%d mode reports", len(reports))
	}
	if reports[0].Events == 0 || reports[0].MaxLines == 0 {
		t.Fatalf("ESP-1 study empty: %+v", reports[0])
	}
}

func TestWorkingSetStudyMerge(t *testing.T) {
	a, b := NewWorkingSetStudy(2), NewWorkingSetStudy(2)
	ws := mem.NewWorkingSet()
	ws.Touch(0)
	ws.Touch(64)
	a.AddSample(0, ws)
	b.AddSample(0, ws)
	b.AddSample(1, ws)
	a.Merge(b)
	a.Merge(nil)
	if a.ReportI()[0].Events != 2 || a.ReportI()[1].Events != 1 {
		t.Fatalf("merge wrong: %+v", a.ReportI())
	}
}

func TestStudyPercentileHelpers(t *testing.T) {
	if got := percentileInt([]int{5, 1, 9, 3}, 0.5); got != 3 {
		t.Fatalf("percentileInt = %d", got)
	}
	if got := percentileInt(nil, 0.5); got != 0 {
		t.Fatalf("percentileInt(nil) = %d", got)
	}
	if got := maxOf([]int{2, 9, 4}); got != 9 {
		t.Fatalf("maxOf = %d", got)
	}
}

func TestBPModeString(t *testing.T) {
	for m, want := range map[BPMode]string{
		BPShared: "shared", BPSeparatePIR: "separate-pir", BPReplicate: "replicated-tables", BPMode(9): "unknown",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
}

func TestRecordCountsMonotonic(t *testing.T) {
	// List entries are timestamped by instruction count; consumption
	// relies on them being non-decreasing.
	e, src, h, _ := testESP(t, DefaultOptions())
	stream := mkStream(1500, 0x10000, 12)
	src.streams[1] = stream
	for _, in := range stream {
		h.L2.Install(in.PC, false)
	}
	e.EventStart(ev(0, 100), []trace.Event{ev(1, 1500)})
	for i := 0; i < 40; i++ {
		e.OnStall(cpu.StallD, i, trace.Cursor{}, 800)
	}
	s := e.slots[0]
	check := func(name string, recs []AccessRec) {
		for i := 1; i < len(recs); i++ {
			if recs[i].Count < recs[i-1].Count {
				t.Fatalf("%s counts regress at %d: %d < %d", name, i, recs[i].Count, recs[i-1].Count)
			}
		}
	}
	check("ilist", s.ilist.recs)
	check("dlist", s.dlist.recs)
	for i := 1; i < len(s.blist.recs); i++ {
		if s.blist.recs[i].Count < s.blist.recs[i-1].Count {
			t.Fatal("blist counts regress")
		}
	}
}

func TestMinWindowDeclined(t *testing.T) {
	opt := DefaultOptions()
	e, src, _, _ := testESP(t, opt)
	src.streams[1] = mkStream(400, 0x10000, 20)
	e.EventStart(ev(0, 100), []trace.Event{ev(1, 400)})
	if e.OnStall(cpu.StallD, 0, trace.Cursor{}, opt.MinWindow-1) {
		t.Fatal("window below MinWindow must be declined")
	}
	if e.Stats.PreExecInsts != 0 {
		t.Fatal("declined window still pre-executed")
	}
}

func TestSharedQueueReservationFreesWithConsumption(t *testing.T) {
	// While the current event's records are unconsumed they occupy the
	// shared circular queue; consumption must free capacity for the next
	// event's recording (§4.2).
	e, src, h, _ := testESP(t, DefaultOptions())
	s1 := mkStream(2000, 0x10000, 10)
	s2 := mkStream(2000, 0x90000, 10)
	src.streams[1] = s1
	src.streams[2] = s2
	for _, in := range append(append([]trace.Inst{}, s1...), s2...) {
		h.L2.Install(in.PC, false)
	}
	e.EventStart(ev(0, 100), []trace.Event{ev(1, 2000)})
	for i := 0; i < 60; i++ {
		e.OnStall(cpu.StallD, i, trace.Cursor{}, 800)
	}
	e.EventEnd(ev(0, 100))
	// Event 1 executes; event 2 is now in ESP-1, recording into the
	// queue event 1 is draining.
	e.EventStart(ev(1, 2000), []trace.Event{ev(2, 2000)})
	reservedAtStart := e.slots[0].ilist.reserved
	for i := 0; i < 1900; i++ {
		e.OnInst(i)
	}
	// Reservations are recomputed lazily on entry to each pre-execution
	// window (the only place they are read); mirror that entry here.
	e.updateReservations()
	reservedLate := e.slots[0].ilist.reserved
	if reservedAtStart == 0 {
		t.Skip("event 1 recorded nothing; reservation path not exercised")
	}
	if reservedLate >= reservedAtStart {
		t.Fatalf("reservation did not shrink with consumption: %d -> %d",
			reservedAtStart, reservedLate)
	}
}
