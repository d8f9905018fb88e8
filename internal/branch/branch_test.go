package branch

import (
	"testing"
	"testing/quick"

	"espsim/internal/trace"
)

func condBranch(pc uint64, taken bool) trace.Inst {
	return trace.Inst{PC: pc, Kind: trace.Branch, Taken: taken, Addr: pc + 64}
}

func TestLearnsBiasedBranch(t *testing.T) {
	p := New()
	in := condBranch(0x1000, true)
	for i := 0; i < 8; i++ {
		p.Resolve(in)
	}
	miss := 0
	for i := 0; i < 100; i++ {
		if p.Resolve(in) {
			miss++
		}
	}
	if miss != 0 {
		t.Fatalf("%d mispredicts on a perfectly biased branch after warmup", miss)
	}
}

func TestBTBLearnsTargets(t *testing.T) {
	p := New()
	in := condBranch(0x2000, true)
	p.Resolve(in)
	pred := p.Predict(in)
	if pred.Target != in.Addr {
		t.Fatalf("BTB did not learn target: got %#x want %#x", pred.Target, in.Addr)
	}
}

func TestBTBAssociativity(t *testing.T) {
	// Four branches aliasing to the same BTB set must all coexist
	// (4-way); a fifth evicts the LRU.
	p := New()
	mk := func(i uint64) trace.Inst {
		return condBranch(0x1000+i*btbSets*4, true)
	}
	for i := uint64(0); i < 4; i++ {
		p.Resolve(mk(i))
	}
	for i := uint64(0); i < 4; i++ {
		if p.Predict(mk(i)).Target == 0 {
			t.Fatalf("branch %d evicted from a 4-way set holding 4 entries", i)
		}
	}
	p.Resolve(mk(4))
	if p.Predict(mk(0)).Target != 0 {
		t.Fatal("LRU entry (0) should have been evicted by the fifth")
	}
	if p.Predict(mk(4)).Target == 0 {
		t.Fatal("newly inserted entry missing")
	}
}

func TestMispredictedSemantics(t *testing.T) {
	in := condBranch(0x100, true)
	if !Mispredicted(Prediction{Taken: false}, in) {
		t.Fatal("wrong direction must mispredict")
	}
	// Direct branch, right direction, wrong target: misfetch, not mispredict.
	if Mispredicted(Prediction{Taken: true, Target: 0}, in) {
		t.Fatal("direct-branch BTB miss should not be a full mispredict")
	}
	if !Misfetched(Prediction{Taken: true, Target: 0}, in) {
		t.Fatal("direct-branch BTB miss should be a misfetch")
	}
	if Misfetched(Prediction{Taken: true, Target: in.Addr}, in) {
		t.Fatal("correct target is not a misfetch")
	}
	// Indirect branch: wrong target is a full mispredict.
	ind := in
	ind.Indirect = true
	if !Mispredicted(Prediction{Taken: true, Target: 0}, ind) {
		t.Fatal("indirect target miss must be a full mispredict")
	}
	if Misfetched(Prediction{Taken: true, Target: 0}, ind) {
		t.Fatal("indirect target miss is not a misfetch")
	}
	// Not-taken branch correctly predicted: neither.
	nt := condBranch(0x100, false)
	if Mispredicted(Prediction{Taken: false}, nt) || Misfetched(Prediction{Taken: false}, nt) {
		t.Fatal("correct not-taken prediction flagged")
	}
}

func TestRASPredictsReturns(t *testing.T) {
	p := New()
	call := trace.Inst{PC: 0x1000, Kind: trace.Branch, Taken: true, Call: true, Addr: 0x5000}
	ret := trace.Inst{PC: 0x5100, Kind: trace.Branch, Taken: true, Ret: true, Addr: 0x1004}
	p.Update(call)
	pred := p.Predict(ret)
	if pred.Target != 0x1004 {
		t.Fatalf("RAS predicted %#x, want 0x1004", pred.Target)
	}
	p.Update(ret)
	// Stack now empty: next return has no prediction.
	if p.Predict(ret).Target == 0x1004 {
		t.Fatal("RAS should have popped")
	}
}

func TestRASNesting(t *testing.T) {
	p := New()
	for i := uint64(0); i < 3; i++ {
		p.Update(trace.Inst{PC: 0x1000 + i*0x100, Kind: trace.Branch, Taken: true, Call: true, Addr: 0x9000})
	}
	for i := int64(2); i >= 0; i-- {
		ret := trace.Inst{PC: 0x9100, Kind: trace.Branch, Taken: true, Ret: true, Addr: uint64(0x1004 + i*0x100)}
		if got := p.Predict(ret); got.Target != ret.Addr {
			t.Fatalf("nested return %d: got %#x want %#x", i, got.Target, ret.Addr)
		}
		p.Update(ret)
	}
}

func TestRASSnapshotRestore(t *testing.T) {
	p := New()
	call := trace.Inst{PC: 0x1000, Kind: trace.Branch, Taken: true, Call: true, Addr: 0x5000}
	p.Update(call)
	snap := p.SnapshotRAS()
	p.ClearRAS()
	ret := trace.Inst{PC: 0x5100, Kind: trace.Branch, Taken: true, Ret: true, Addr: 0x1004}
	if p.Predict(ret).Target == 0x1004 {
		t.Fatal("ClearRAS did not clear")
	}
	p.RestoreRAS(snap)
	if p.Predict(ret).Target != 0x1004 {
		t.Fatal("RestoreRAS did not restore")
	}
}

func TestIBTBLearnsDominantTarget(t *testing.T) {
	p := New()
	ind := trace.Inst{PC: 0x3000, Kind: trace.Branch, Taken: true, Indirect: true, Addr: 0x7000}
	p.Resolve(ind)
	if p.Predict(ind).Target != 0x7000 {
		t.Fatal("iBTB did not learn the target")
	}
}

func TestLoopPredictorLearnsTripCount(t *testing.T) {
	p := New()
	loop := func(taken bool) trace.Inst {
		return trace.Inst{PC: 0x4000, Kind: trace.Branch, Taken: taken, Addr: 0x3F00}
	}
	// Trip count 5: taken 4 times, then not taken. Train three full
	// iterations to build confidence.
	runLoop := func() (missAtExit bool) {
		for i := 0; i < 4; i++ {
			p.Resolve(loop(true))
		}
		return p.Resolve(loop(false))
	}
	runLoop()
	runLoop()
	runLoop()
	if runLoop() {
		t.Fatal("loop predictor failed to predict the exit of a learned trip count")
	}
}

func TestPIRChangesGlobalIndex(t *testing.T) {
	p := New()
	p.SetPIR(0)
	i0, t0 := p.globalIndex(0x8888)
	p.SetPIR(0x1234)
	i1, t1 := p.globalIndex(0x8888)
	if i0 == i1 && t0 == t1 {
		t.Fatal("PIR change did not affect global predictor indexing")
	}
}

func TestPIRMasked(t *testing.T) {
	f := func(v uint64) bool {
		p := New()
		p.SetPIR(v)
		return p.PIR() <= pirMask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPIRAdvancesOnBranches(t *testing.T) {
	p := New()
	before := p.PIR()
	p.Update(condBranch(0x100, true))
	if p.PIR() == before {
		t.Fatal("PIR did not advance")
	}
}

func TestStatsAccounting(t *testing.T) {
	p := New()
	in := condBranch(0x5000, true)
	for i := 0; i < 10; i++ {
		p.Resolve(in)
	}
	if p.Stats.Branches != 10 {
		t.Fatalf("Branches = %d", p.Stats.Branches)
	}
	if p.Stats.Mispredicts == 0 || p.Stats.Mispredicts == 10 {
		t.Fatalf("Mispredicts = %d: cold misses expected, then learned", p.Stats.Mispredicts)
	}
	if got := p.Stats.MispredictRate(); got <= 0 || got >= 1 {
		t.Fatalf("MispredictRate = %v", got)
	}
}

func TestPredictorValueCopyIsIndependent(t *testing.T) {
	// BPReplicate relies on Predictor being replicable by value copy.
	p := New()
	in := condBranch(0x100, true)
	for i := 0; i < 8; i++ {
		p.Resolve(in)
	}
	replica := *p
	other := condBranch(0x100, false)
	for i := 0; i < 8; i++ {
		replica.Resolve(other)
	}
	// The original must still predict taken.
	if got := p.Predict(in); !got.Taken {
		t.Fatal("training a replica leaked into the original predictor")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		p := New()
		for i := 0; i < 2000; i++ {
			pc := uint64(0x1000 + (i%37)*4)
			taken := i%3 != 0
			p.Resolve(condBranch(pc, taken))
		}
		return p.Stats
	}
	if run() != run() {
		t.Fatal("predictor is not deterministic")
	}
}

func TestMispredictRateUnderRandomOutcomes(t *testing.T) {
	// A 50/50 random branch cannot be predicted: rate must be near 0.5.
	p := New()
	rng := uint64(12345)
	for i := 0; i < 20000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		p.Resolve(condBranch(0x9000, rng>>63 == 1))
	}
	rate := p.Stats.MispredictRate()
	if rate < 0.4 || rate > 0.6 {
		t.Fatalf("random branch mispredict rate %.3f, want ~0.5", rate)
	}
}

// TestPredictUpdateEquivalence drives two predictors through the same
// randomized branch stream — one via separate Predict/Update calls, one
// via the fused PredictUpdate — and requires identical predictions and
// identical final state at every step.
func TestPredictUpdateEquivalence(t *testing.T) {
	split, fused := New(), New()
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 50000; i++ {
		h := next()
		in := trace.Inst{
			PC:    0x1000 + (h%977)*4,
			Kind:  trace.Branch,
			Taken: h>>8&3 != 0,
			Addr:  0x1000 + (h>>16%4096)*4,
		}
		switch h >> 40 % 10 {
		case 0:
			in.Call, in.Taken = true, true
		case 1:
			in.Ret, in.Taken = true, true
		case 2:
			in.Indirect, in.Taken = true, true
		case 3:
			in.Call, in.Indirect, in.Taken = true, true, true
		}
		if h>>50&31 == 0 {
			split.LoopReadOnly = !split.LoopReadOnly
			fused.LoopReadOnly = split.LoopReadOnly
		}
		a := split.Predict(in)
		split.Update(in)
		b := fused.PredictUpdate(&in)
		if a != b {
			t.Fatalf("step %d: prediction diverged: split=%+v fused=%+v (in=%+v)", i, a, b, in)
		}
		if *split != *fused {
			t.Fatalf("step %d: predictor state diverged after %+v", i, in)
		}
	}
}
