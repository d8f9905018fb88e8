package cpu

import (
	"reflect"
	"testing"

	"espsim/internal/branch"
	"espsim/internal/mem"
	"espsim/internal/trace"
)

func testCore() *Core {
	return New(mem.DefaultHierarchy(), branch.New())
}

// seqInsts builds n straight-line ALU instructions.
func seqInsts(n int, base uint64) []trace.Inst {
	out := make([]trace.Inst, n)
	for i := range out {
		out[i] = trace.Inst{PC: base + uint64(i)*trace.InstBytes, Kind: trace.ALU}
	}
	return out
}

func TestBaseCPIAccounting(t *testing.T) {
	c := testCore()
	c.Hier.PerfectL1I = true
	n := 10000
	cyc := c.RunEvent(trace.EncodeTape(seqInsts(n, 0x1000)))
	want := int64(float64(n) * BaseCPI)
	if cyc < want-1 || cyc > want+1 {
		t.Fatalf("cycles = %d, want ~%d for stall-free code", cyc, want)
	}
}

func TestIMissCharged(t *testing.T) {
	c := testCore()
	n := 16
	cyc := c.RunEvent(trace.EncodeTape(seqInsts(n, 0x1000))) // one line, cold
	base := int64(float64(n) * BaseCPI)
	if cyc < base+MemIExposed {
		t.Fatalf("cold I-fetch not charged: %d cycles", cyc)
	}
	if c.Stats.LLCMissI != 1 {
		t.Fatalf("LLCMissI = %d", c.Stats.LLCMissI)
	}
}

func TestDMissCharged(t *testing.T) {
	c := testCore()
	c.Hier.PerfectL1I = true
	insts := seqInsts(4, 0x1000)
	insts[2] = trace.Inst{PC: insts[2].PC, Kind: trace.Load, Addr: 0x8_0000_0000}
	c.RunEvent(trace.EncodeTape(insts))
	if c.Stats.LLCMissD != 1 {
		t.Fatalf("LLCMissD = %d", c.Stats.LLCMissD)
	}
	if c.Stats.DMissCycles < MemDExposed {
		t.Fatalf("DMissCycles = %d", c.Stats.DMissCycles)
	}
}

func TestMLPOverlapCheaper(t *testing.T) {
	// Two LLC misses within the ROB window must cost less than two
	// isolated ones.
	run := func(gap int) int64 {
		c := testCore()
		c.Hier.PerfectL1I = true
		var insts []trace.Inst
		insts = append(insts, trace.Inst{PC: 0x1000, Kind: trace.Load, Addr: 0x8_0000_0000})
		insts = append(insts, seqInsts(gap, 0x2000)...)
		insts = append(insts, trace.Inst{PC: 0x3000, Kind: trace.Load, Addr: 0x9_0000_0000})
		c.RunEvent(trace.EncodeTape(insts))
		return c.Stats.DMissCycles
	}
	near, far := run(10), run(500)
	if near >= far {
		t.Fatalf("overlapped misses (%d cyc) should cost less than isolated (%d cyc)", near, far)
	}
}

func TestMispredictPenalty(t *testing.T) {
	c := testCore()
	c.Hier.PerfectL1I = true
	// A 50/50 branch pattern the predictor cannot learn perfectly.
	var insts []trace.Inst
	for i := 0; i < 400; i++ {
		insts = append(insts, trace.Inst{
			PC: 0x1000, Kind: trace.Branch, Taken: i%2 == 0, Addr: 0x1040,
		})
	}
	c.RunEvent(trace.EncodeTape(insts))
	if c.Stats.Mispredicts == 0 {
		t.Fatal("alternating branch should mispredict sometimes")
	}
	if c.Stats.BranchCycles < c.Stats.Mispredicts*MispredictPenalty {
		t.Fatal("mispredict cycles under-charged")
	}
}

func TestPerfectBPNoPenalty(t *testing.T) {
	c := testCore()
	c.PerfectBP = true
	c.Hier.PerfectL1I = true
	var insts []trace.Inst
	for i := 0; i < 100; i++ {
		insts = append(insts, trace.Inst{PC: 0x1000, Kind: trace.Branch, Taken: i%2 == 0, Addr: 0x1000})
	}
	c.RunEvent(trace.EncodeTape(insts))
	if c.Stats.Mispredicts != 0 || c.Stats.BranchCycles != 0 {
		t.Fatalf("perfect BP charged penalties: %+v", c.Stats)
	}
}

func TestMisfetchCheaperThanMispredict(t *testing.T) {
	if MisfetchPenalty >= MispredictPenalty {
		t.Fatal("misfetch must be cheaper than mispredict")
	}
	c := testCore()
	c.Hier.PerfectL1I = true
	// Always-taken branches with rotating PCs large enough to thrash the
	// BTB generate misfetches (direction is learned, targets are not).
	var insts []trace.Inst
	for i := 0; i < 3000; i++ {
		pc := uint64(0x1000 + (i%2500)*2048*4)
		insts = append(insts, trace.Inst{PC: pc, Kind: trace.Branch, Taken: true, Addr: pc + 64})
	}
	c.RunEvent(trace.EncodeTape(insts))
	if c.Stats.Misfetches == 0 {
		t.Fatal("expected misfetches from BTB-thrashing taken branches")
	}
}

func TestPerfectEverythingBeatsBaseline(t *testing.T) {
	mk := func(perfect bool) int64 {
		h := mem.DefaultHierarchy()
		h.PerfectL1I, h.PerfectL1D = perfect, perfect
		c := New(h, branch.New())
		c.PerfectBP = perfect
		var insts []trace.Inst
		for i := 0; i < 5000; i++ {
			pc := uint64(0x1000 + (i%700)*256)
			switch i % 5 {
			case 0:
				insts = append(insts, trace.Inst{PC: pc, Kind: trace.Load, Addr: uint64(i%97) * 4096})
			case 1:
				insts = append(insts, trace.Inst{PC: pc, Kind: trace.Branch, Taken: i%3 == 0, Addr: pc + 128})
			default:
				insts = append(insts, trace.Inst{PC: pc, Kind: trace.ALU})
			}
		}
		return c.RunEvent(trace.EncodeTape(insts))
	}
	if perfect, base := mk(true), mk(false); perfect >= base {
		t.Fatalf("perfect machine (%d) not faster than baseline (%d)", perfect, base)
	}
}

// recordingAssist captures the hook sequence.
type recordingAssist struct {
	onInst   int
	stalls   []StallKind
	budgets  []int
	idxs     []int
	rests    [][]trace.Inst // per stall, the memory ops rest walks
	corrects int
	use      bool
}

func (r *recordingAssist) EventStart(trace.Event, []trace.Event) {}
func (r *recordingAssist) EventEnd(trace.Event)                  {}
func (r *recordingAssist) OnInst(idx int) int                    { r.onInst++; return idx + 1 }
func (r *recordingAssist) CorrectBranch(int, trace.Inst) bool {
	r.corrects++
	return false
}
func (r *recordingAssist) OnStall(k StallKind, idx int, rest trace.Cursor, b int) bool {
	r.stalls = append(r.stalls, k)
	r.budgets = append(r.budgets, b)
	r.idxs = append(r.idxs, idx)
	var mem []trace.Inst
	for i := idx + 1; i < rest.Len(); i++ {
		switch op, pc := rest.Op(i); op.Kind() {
		case trace.Load, trace.Store:
			mem = append(mem, trace.Inst{PC: pc, Kind: op.Kind(), Addr: rest.Addr()})
		case trace.Branch:
			rest.Target(op)
		}
	}
	r.rests = append(r.rests, mem)
	return r.use
}

func TestAssistReceivesStalls(t *testing.T) {
	c := testCore()
	ra := &recordingAssist{}
	c.Assist = ra
	insts := seqInsts(64, 0x1000) // 4 cold lines
	// A cold load opens the second line: its I- and D-stall cursors
	// must both stand past its Addr.
	insts[16].Kind, insts[16].Addr = trace.Load, 0x9_0000_0000
	insts = append(insts, trace.Inst{PC: insts[63].PC + 4, Kind: trace.Load, Addr: 0x8_0000_0000})
	c.RunEvent(trace.EncodeTape(insts))
	if ra.onInst != len(insts) {
		t.Fatalf("OnInst called %d times, want %d", ra.onInst, len(insts))
	}
	var nI, nD int
	for _, k := range ra.stalls {
		if k == StallI {
			nI++
		} else {
			nD++
		}
	}
	for k, idx := range ra.idxs {
		var want []trace.Inst
		for _, in := range insts[idx+1:] {
			if in.Kind == trace.Load {
				want = append(want, in)
			}
		}
		if !reflect.DeepEqual(ra.rests[k], want) {
			t.Fatalf("stall at %d: rest walks memory ops %+v, want %+v, those after it", idx, ra.rests[k], want)
		}
	}
	if nI == 0 || nD == 0 {
		t.Fatalf("expected both stall kinds, got I=%d D=%d", nI, nD)
	}
	for _, b := range ra.budgets {
		if b <= 0 {
			t.Fatal("non-positive stall budget")
		}
	}
}

func TestAssistUsePaysExitFlush(t *testing.T) {
	run := func(use bool) int64 {
		c := testCore()
		c.Assist = &recordingAssist{use: use}
		return c.RunEvent(trace.EncodeTape(seqInsts(64, 0x1000)))
	}
	unused, used := run(false), run(true)
	if used <= unused {
		t.Fatalf("using stalls must charge the exit flush: used=%d unused=%d", used, unused)
	}
}

func TestAssistCorrectBranchSuppressesPenalty(t *testing.T) {
	// An assist that corrects every branch must eliminate mispredicts.
	c := testCore()
	c.Hier.PerfectL1I = true
	c.Assist = &correctingAssist{}
	var insts []trace.Inst
	for i := 0; i < 200; i++ {
		insts = append(insts, trace.Inst{PC: 0x2000, Kind: trace.Branch, Taken: i%2 == 0, Addr: 0x2040})
	}
	c.RunEvent(trace.EncodeTape(insts))
	if c.Stats.Mispredicts != 0 {
		t.Fatalf("corrected branches still mispredicted %d times", c.Stats.Mispredicts)
	}
}

type correctingAssist struct{ recordingAssist }

func (c *correctingAssist) CorrectBranch(int, trace.Inst) bool { return true }

func TestRunFiller(t *testing.T) {
	c := testCore()
	n := 700
	c.RunFiller(n)
	if c.Stats.Insts != int64(n) {
		t.Fatalf("Insts = %d", c.Stats.Insts)
	}
	want := int64(float64(n) * BaseCPI)
	if c.Stats.Cycles != want {
		t.Fatalf("Cycles = %d, want %d", c.Stats.Cycles, want)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Insts: 1, Cycles: 2, Branches: 3, Mispredicts: 4, LLCMissI: 5, StallCycles: 6, Misfetches: 7}
	b := a
	a.Add(b)
	if a.Insts != 2 || a.Cycles != 4 || a.Branches != 6 || a.Mispredicts != 8 ||
		a.LLCMissI != 10 || a.StallCycles != 12 || a.Misfetches != 14 {
		t.Fatalf("Add broken: %+v", a)
	}
}

func TestIPCAndRates(t *testing.T) {
	s := Stats{Insts: 100, Cycles: 200, Branches: 10, Mispredicts: 1}
	if s.IPC() != 0.5 {
		t.Fatalf("IPC = %v", s.IPC())
	}
	if s.MispredictRate() != 0.1 {
		t.Fatalf("MispredictRate = %v", s.MispredictRate())
	}
	var zero Stats
	if zero.IPC() != 0 || zero.MispredictRate() != 0 {
		t.Fatal("zero stats should not divide by zero")
	}
}

func TestDeterministicRun(t *testing.T) {
	mk := func() Stats {
		c := testCore()
		var insts []trace.Inst
		for i := 0; i < 3000; i++ {
			pc := uint64(0x1000 + (i%211)*64)
			switch i % 4 {
			case 0:
				insts = append(insts, trace.Inst{PC: pc, Kind: trace.Load, Addr: uint64((i * 7919) % 100000)})
			case 1:
				insts = append(insts, trace.Inst{PC: pc, Kind: trace.Branch, Taken: i%7 < 3, Addr: pc + 256})
			default:
				insts = append(insts, trace.Inst{PC: pc, Kind: trace.ALU})
			}
		}
		c.RunEvent(trace.EncodeTape(insts))
		return c.Stats
	}
	if mk() != mk() {
		t.Fatal("core run not deterministic")
	}
}
