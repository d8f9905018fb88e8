// Package energy models the energy accounting of §6.7 and Figure 14. The
// paper uses McPAT 1.2 and CACTI 5.3; we substitute an activity-based
// coefficient model over the same counters (DESIGN.md §2): per-structure
// dynamic energies, static energy proportional to run time, wasted
// wrong-path work proportional to mispredictions, and the extra
// instructions ESP pre-executes.
package energy

// Model holds per-event energy coefficients in arbitrary consistent
// units (normalized joules; only relative energy is reported, so the
// absolute scale cancels).
type Model struct {
	// PerInst is the dynamic energy of fetching, decoding, renaming and
	// executing one instruction (core datapath).
	PerInst float64
	// PerL1, PerL2, PerMem are per-access energies of each level.
	PerL1  float64
	PerL2  float64
	PerMem float64
	// PerBranch is the predictor lookup+update energy.
	PerBranch float64
	// PerCachelet and PerList are ESP's small-structure access energies.
	PerCachelet float64
	PerList     float64
	// WrongPathPerMispredict is the wasted dynamic work of one pipeline
	// flush (fetching and partially executing wrong-path instructions).
	WrongPathPerMispredict float64
	// StaticPerCycle is leakage plus clock power per cycle.
	StaticPerCycle float64
}

// DefaultModel returns coefficients scaled for the Figure 7 core at 32nm,
// 1.2V. The ratios (DRAM ≫ L2 ≫ L1 ≫ datapath) follow CACTI-class
// models.
func DefaultModel() Model {
	return Model{
		PerInst:                0.32,
		PerL1:                  0.05,
		PerL2:                  0.45,
		PerMem:                 2.6,
		PerBranch:              0.02,
		PerCachelet:            0.012,
		PerList:                0.005,
		WrongPathPerMispredict: 2.2,
		StaticPerCycle:         0.15,
	}
}

// Activity is the counter bundle one simulation produces.
type Activity struct {
	Cycles       int64
	Insts        int64
	PreExecInsts int64 // instructions executed in ESP/runahead modes
	Branches     int64
	Mispredicts  int64
	L1IAccesses  int64
	L1DAccesses  int64
	L2Accesses   int64
	MemAccesses  int64
	Prefetches   int64 // prefetch installs (bus + array write energy)
	CacheletOps  int64
	ListOps      int64
}

// Breakdown is the Figure 14 decomposition: branch-misprediction energy,
// static energy, and the rest of the dynamic energy.
type Breakdown struct {
	Mispredict float64
	Static     float64
	Dynamic    float64
}

// Total returns the sum of the components.
func (b Breakdown) Total() float64 { return b.Mispredict + b.Static + b.Dynamic }

// RelativeTo scales the breakdown so that base.Total() == 1, which is how
// Figure 14 plots energy relative to the next-line baseline.
func (b Breakdown) RelativeTo(base Breakdown) Breakdown {
	t := base.Total()
	if t == 0 {
		return Breakdown{}
	}
	return Breakdown{Mispredict: b.Mispredict / t, Static: b.Static / t, Dynamic: b.Dynamic / t}
}

// Compute evaluates the model over an activity bundle.
func Compute(a Activity, m Model) Breakdown {
	var b Breakdown
	b.Static = float64(a.Cycles) * m.StaticPerCycle
	b.Mispredict = float64(a.Mispredicts) * m.WrongPathPerMispredict
	// Each product is rounded by an explicit conversion, which keeps a
	// compiler from fusing it into the sum (an FMA on arm64 and others),
	// so the sum is bit-identical on every architecture.
	b.Dynamic = float64(float64(a.Insts+a.PreExecInsts)*m.PerInst) +
		float64(float64(a.Branches)*m.PerBranch) +
		float64(float64(a.L1IAccesses+a.L1DAccesses)*m.PerL1) +
		float64(float64(a.L2Accesses)*m.PerL2) +
		float64(float64(a.MemAccesses)*m.PerMem) +
		float64(float64(a.Prefetches)*(m.PerL1+m.PerL2)) +
		float64(float64(a.CacheletOps)*m.PerCachelet) +
		float64(float64(a.ListOps)*m.PerList)
	return b
}
