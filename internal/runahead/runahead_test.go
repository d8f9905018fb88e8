package runahead

import (
	"testing"

	"espsim/internal/branch"
	"espsim/internal/cpu"
	"espsim/internal/mem"
	"espsim/internal/trace"
)

func mkEngine(cfg Config) (*Engine, *mem.Hierarchy, *branch.Predictor) {
	h := mem.DefaultHierarchy()
	bp := branch.New()
	return New(cfg, h, bp), h, bp
}

// eventWithColdLoads builds an event whose tail contains cold loads.
func eventWithColdLoads() []trace.Inst {
	var insts []trace.Inst
	pc := uint64(0x1000)
	for i := 0; i < 400; i++ {
		in := trace.Inst{PC: pc, Kind: trace.ALU}
		if i%25 == 10 {
			in.Kind = trace.Load
			in.Addr = 0x8_0000_0000 + uint64(i)*4096
		}
		insts = append(insts, in)
		pc += trace.InstBytes
	}
	return insts
}

// after is the cursor the core hands a stall at idx: the rest of the
// event's instructions.
func after(insts []trace.Inst, idx int) trace.Cursor {
	c := trace.EncodeTape(insts).Cursor()
	for i := 0; i <= idx; i++ {
		op, _ := c.Op(i)
		c.Skip(op)
	}
	return c
}

func TestIgnoresInstructionStalls(t *testing.T) {
	e, _, _ := mkEngine(Config{})
	e.EventStart(trace.Event{}, nil)
	if e.OnStall(cpu.StallI, 0, after(eventWithColdLoads(), 0), 100) {
		t.Fatal("runahead must not act on instruction-miss stalls")
	}
	if e.Stats.Episodes != 0 {
		t.Fatal("episode counted for an I-stall")
	}
}

func TestWarmsDataCache(t *testing.T) {
	e, h, _ := mkEngine(Config{})
	insts := eventWithColdLoads()
	// Warm the code lines so fetch doesn't block the episode.
	for _, in := range insts {
		h.L2.Install(in.PC, false)
		h.L1I.Install(in.PC, false)
	}
	e.EventStart(trace.Event{Seed: 7}, nil)
	if !e.OnStall(cpu.StallD, 10, after(insts, 10), 120) {
		t.Fatal("episode did not run")
	}
	if e.Stats.Episodes != 1 || e.Stats.PreExecInsts == 0 {
		t.Fatalf("stats: %+v", e.Stats)
	}
	// At least one of the following cold loads must now be resident.
	warmed := 0
	for i := 11; i < len(insts); i++ {
		if insts[i].Kind == trace.Load && h.L1D.Probe(insts[i].Addr) {
			warmed++
		}
	}
	if warmed == 0 {
		t.Fatal("runahead warmed nothing")
	}
}

func TestStopsOnLLCInstructionMiss(t *testing.T) {
	e, h, _ := mkEngine(Config{})
	insts := eventWithColdLoads()
	// Warm only the first few lines: fetch hits a cold line quickly.
	for _, in := range insts[:64] {
		h.L2.Install(in.PC, false)
		h.L1I.Install(in.PC, false)
	}
	e.EventStart(trace.Event{Seed: 7}, nil)
	e.OnStall(cpu.StallD, 0, after(insts, 0), 500)
	if e.Stats.StoppedOnIMiss != 1 {
		t.Fatalf("StoppedOnIMiss = %d, want 1", e.Stats.StoppedOnIMiss)
	}
}

func TestDataOnlyConfigLeavesPredictorAlone(t *testing.T) {
	e, h, bp := mkEngine(DataOnlyConfig())
	pirBefore := bp.PIR()
	insts := eventWithColdLoads()
	for _, in := range insts {
		h.L2.Install(in.PC, false)
		h.L1I.Install(in.PC, false)
	}
	e.EventStart(trace.Event{Seed: 9}, nil)
	e.OnStall(cpu.StallD, 0, after(insts, 0), 200)
	if bp.PIR() != pirBefore {
		t.Fatal("Runahead-D touched the predictor")
	}
}

func TestPIRAndRASRestored(t *testing.T) {
	e, h, bp := mkEngine(Config{})
	var insts []trace.Inst
	pc := uint64(0x1000)
	for i := 0; i < 200; i++ {
		in := trace.Inst{PC: pc, Kind: trace.ALU}
		if i%10 == 5 {
			in = trace.Inst{PC: pc, Kind: trace.Branch, Taken: true, Call: true, Addr: pc + 4}
		}
		insts = append(insts, in)
		pc = in.NextPC()
	}
	for _, in := range insts {
		h.L2.Install(in.PC, false)
		h.L1I.Install(in.PC, false)
	}
	pir := bp.PIR()
	ras := bp.SnapshotRAS()
	e.EventStart(trace.Event{Seed: 5}, nil)
	e.OnStall(cpu.StallD, 0, after(insts, 0), 300)
	if e.Stats.PreExecInsts == 0 {
		t.Fatal("episode did not run")
	}
	if bp.PIR() != pir {
		t.Fatal("PIR not restored after runahead")
	}
	if bp.SnapshotRAS() != ras {
		t.Fatal("RAS not restored after runahead")
	}
}

func TestBudgetBoundsWindow(t *testing.T) {
	e, h, _ := mkEngine(Config{})
	insts := eventWithColdLoads()
	for _, in := range insts {
		h.L2.Install(in.PC, false)
		h.L1I.Install(in.PC, false)
	}
	e.EventStart(trace.Event{Seed: 3}, nil)
	e.OnStall(cpu.StallD, 0, after(insts, 0), 50)
	small := e.Stats.PreExecInsts
	e2, h2, _ := mkEngine(Config{})
	for _, in := range insts {
		h2.L2.Install(in.PC, false)
		h2.L1I.Install(in.PC, false)
	}
	e2.EventStart(trace.Event{Seed: 3}, nil)
	e2.OnStall(cpu.StallD, 0, after(insts, 0), 500)
	if small >= e2.Stats.PreExecInsts {
		t.Fatalf("larger budget should pre-execute more: %d vs %d", small, e2.Stats.PreExecInsts)
	}
}

func TestTinyBudgetDeclined(t *testing.T) {
	e, _, _ := mkEngine(Config{})
	e.EventStart(trace.Event{}, nil)
	if e.OnStall(cpu.StallD, 0, after(eventWithColdLoads(), 0), enterCost) {
		t.Fatal("budget smaller than the entry cost must be declined")
	}
}

func TestEventEndClearsWindow(t *testing.T) {
	e, _, _ := mkEngine(Config{})
	ev := trace.Event{}
	e.EventStart(ev, nil)
	e.EventEnd(ev)
	if e.OnStall(cpu.StallD, 0, after(eventWithColdLoads(), 0), 200) {
		t.Fatal("no current event: stall must be declined")
	}
}

func TestDependentDeterministic(t *testing.T) {
	for i := 0; i < 50; i++ {
		if dependent(42, 10, i, 0.3) != dependent(42, 10, i, 0.3) {
			t.Fatal("dependence marking not deterministic")
		}
	}
	// Fraction roughly honoured.
	n, hits := 10000, 0
	for i := 0; i < n; i++ {
		if dependent(42, 10, i, 0.3) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("dependent fraction %.3f, want ~0.3", frac)
	}
}
