package mem

// Latencies are the load-to-use latencies of each hierarchy level, in
// cycles (Figure 7).
type Latencies struct {
	L1  int // L1 hit
	L2  int // L2 hit
	Mem int // DRAM access
}

// DefaultLatencies mirrors Figure 7: 2-cycle L1, 21-cycle L2, 101-cycle
// main memory.
func DefaultLatencies() Latencies { return Latencies{L1: 2, L2: 21, Mem: 101} }

// Level identifies where an access was satisfied.
type Level uint8

// Hierarchy levels, innermost first.
const (
	LevelL1 Level = iota
	LevelL2
	LevelMem
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	default:
		return "Mem"
	}
}

// Hierarchy is the simulated memory system: split L1s over a unified L2
// over DRAM. Perfect* switches make a level always hit, for the
// performance-potential study (Figure 3).
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	Lat Latencies //esp:immutable

	// PerfectL1I/PerfectL1D short-circuit the corresponding L1 to always
	// hit (Figure 3's "perfect cache" configurations).
	PerfectL1I bool //esp:immutable
	PerfectL1D bool //esp:immutable

	// NearTimelyPct is the percentage of next-line prefetches of
	// L2-resident lines that complete before the demand fetch reaches
	// them (an L2 fill takes about as long as crossing one line of
	// straight-line code, so roughly half arrive in time).
	NearTimelyPct int //esp:immutable
}

// DefaultHierarchy builds the Figure 7 configuration: 32 KB 2-way L1s and
// a 2 MB 16-way L2.
func DefaultHierarchy() *Hierarchy {
	return &Hierarchy{
		L1I: MustCache("L1I", 32<<10, 2),
		L1D: MustCache("L1D", 32<<10, 2),
		L2:  MustCache("L2", 2<<20, 16),
		Lat: DefaultLatencies(),

		NearTimelyPct: 35,
	}
}

// nearTimely deterministically decides whether a short-lookahead prefetch
// of addr's line completes in time to be useful at the L1.
func (h *Hierarchy) nearTimely(addr uint64) bool {
	x := addr >> 6
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x%100) < h.NearTimelyPct
}

// FetchI performs a demand instruction fetch of addr's line. It returns
// the level that satisfied the fetch and the extra cycles beyond a
// pipelined L1 hit (0 for an L1 hit).
func (h *Hierarchy) FetchI(addr uint64) (Level, int) {
	if h.PerfectL1I {
		return LevelL1, 0
	}
	if h.L1I.Access(addr, false) {
		return LevelL1, 0
	}
	if h.L2.Access(addr, false) {
		return LevelL2, h.Lat.L2
	}
	return LevelMem, h.Lat.Mem
}

// AccessD performs a demand data access. It returns the satisfying level
// and the load-to-use latency in cycles.
func (h *Hierarchy) AccessD(addr uint64, write bool) (Level, int) {
	if h.PerfectL1D {
		return LevelL1, h.Lat.L1
	}
	if h.L1D.Access(addr, write) {
		return LevelL1, h.Lat.L1
	}
	if h.L2.Access(addr, write) {
		return LevelL2, h.Lat.L2
	}
	return LevelMem, h.Lat.Mem
}

// PrefetchI installs addr's line into L1-I and L2 on behalf of an
// instruction prefetcher. Already-resident lines are left untouched.
func (h *Hierarchy) PrefetchI(addr uint64) {
	h.L2.Install(addr, true)
	h.L1I.Install(addr, true)
}

// PrefetchD installs addr's line into L1-D and L2 on behalf of a data
// prefetcher.
func (h *Hierarchy) PrefetchD(addr uint64) {
	h.L2.Install(addr, true)
	h.L1D.Install(addr, true)
}

// PrefetchINear models a short-lookahead prefetch (next-line): if the
// line is already close (L2-resident) the fill arrives in time to enter
// L1-I; a line still in memory cannot arrive before the imminent demand
// fetch, so it only lands in L2 (helping the next encounter).
func (h *Hierarchy) PrefetchINear(addr uint64) {
	if h.L2.PrefetchInstall(addr) && h.nearTimely(addr) {
		h.L1I.Install(addr, true)
	}
}

// PrefetchDNear is PrefetchINear for the data side (DCU and stride
// prefetchers run a few accesses ahead at most).
func (h *Hierarchy) PrefetchDNear(addr uint64) {
	if h.L2.PrefetchInstall(addr) && h.nearTimely(addr) {
		h.L1D.Install(addr, true)
	}
}

// FillLatency returns the cycles a fill that bypasses the L1s (an ESP
// cachelet fill, §3.4) costs: an L2 hit if the line is resident there,
// otherwise a memory access. The probe does not disturb L2 recency, since
// cachelet fills skip the caches. The second result reports whether the
// fill had to go to memory (an LLC miss, which escalates the ESP mode).
func (h *Hierarchy) FillLatency(addr uint64) (int, bool) {
	if h.L2.Probe(addr) {
		return h.Lat.L2, false
	}
	return h.Lat.Mem, true
}

// Reset restores every level to its cold state (all lines invalid,
// counters zeroed) without reallocating the caches. The Perfect* and
// latency knobs are configuration, not run state, and are left alone.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
}
