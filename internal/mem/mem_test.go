package mem

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"espsim/internal/trace"
)

func TestNewCacheGeometry(t *testing.T) {
	c, err := NewCache("t", 32<<10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.SizeBytes() != 32<<10 {
		t.Fatalf("SizeBytes = %d", c.SizeBytes())
	}
}

func TestNewCacheRejectsBadGeometry(t *testing.T) {
	cases := []struct{ size, ways int }{
		{0, 2}, {-64, 1}, {100, 2}, {3 * 64, 2}, {64 * 12, 4}, // 3 sets: not power of two
	}
	for _, c := range cases {
		if _, err := NewCache("t", c.size, c.ways); err == nil {
			t.Errorf("NewCache(%d, %d) should fail", c.size, c.ways)
		}
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := MustCache("t", 4096, 2)
	if c.Access(0x1000, false) {
		t.Fatal("first access should miss")
	}
	if !c.Access(0x1000, false) {
		t.Fatal("second access should hit")
	}
	if !c.Access(0x103F, false) {
		t.Fatal("same-line access should hit")
	}
	if c.Stats.Accesses != 3 || c.Stats.Misses != 1 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache, 64B lines: lines that map to the same set are
	// setCount*64 bytes apart.
	c := MustCache("t", 2*64*4, 2) // 4 sets, 2 ways
	stride := uint64(4 * 64)
	a, b, d := stride*0, stride*10, stride*20 // same set
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is MRU, b is LRU
	c.Access(d, false) // evicts b
	if !c.Probe(a) {
		t.Fatal("a should survive (MRU)")
	}
	if c.Probe(b) {
		t.Fatal("b should have been evicted (LRU)")
	}
	if !c.Probe(d) {
		t.Fatal("d should be resident")
	}
}

func TestCacheProbeDoesNotTouch(t *testing.T) {
	c := MustCache("t", 2*64*1, 2) // 1 set, 2 ways
	c.Access(0, false)
	c.Access(64*1, false) // different set? no: 1 set → same set
	// order: [64, 0]; probing 0 must not move it to MRU
	c.Probe(0)
	c.Access(128, false) // evicts LRU = 0
	if c.Probe(0) {
		t.Fatal("probe must not refresh recency")
	}
	if !c.Probe(64) {
		t.Fatal("64 should survive")
	}
	before := c.Stats
	c.Probe(0xdead)
	if c.Stats != before {
		t.Fatal("probe must not change stats")
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := MustCache("t", 2*64, 2) // 1 set, 2 ways
	c.Access(0, true)            // dirty
	c.Access(64, false)
	if d := c.Install(128, false); !d {
		t.Fatal("evicting dirty line should report it")
	}
	if c.Stats.DirtyEvictions != 1 {
		t.Fatalf("DirtyEvictions = %d", c.Stats.DirtyEvictions)
	}
}

func TestCacheInstallIdempotent(t *testing.T) {
	c := MustCache("t", 4096, 4)
	c.Install(0x40, false)
	c.Install(0x40, false)
	n := 0
	for _, l := range c.Lines() {
		if l == 0x40 {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("line duplicated %d times", n)
	}
}

func TestCachePrefetchUsefulness(t *testing.T) {
	c := MustCache("t", 4096, 4)
	c.Install(0x80, true)
	if c.Stats.PrefetchInstalls != 1 {
		t.Fatalf("PrefetchInstalls = %d", c.Stats.PrefetchInstalls)
	}
	c.Access(0x80, false)
	c.Access(0x80, false)
	if c.Stats.PrefetchUseful != 1 {
		t.Fatalf("PrefetchUseful = %d, want 1 (counted once)", c.Stats.PrefetchUseful)
	}
}

// TestCachePrefetchInstallMatchesProbeInstall: PrefetchInstall is Probe
// then Install(addr, true) in one scan. Under a mixed stream of demand
// accesses and prefetches, both caches agree on every answer, their
// statistics and their contents.
func TestCachePrefetchInstallMatchesProbeInstall(t *testing.T) {
	one, two := MustCache("one", 8192, 16), MustCache("two", 8192, 16)
	x := uint64(12345)
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := (x % 512) * trace.LineBytes
		if x>>60 < 6 {
			one.Access(addr, x>>59&1 == 1)
			two.Access(addr, x>>59&1 == 1)
			continue
		}
		was := one.Probe(addr)
		one.Install(addr, true)
		if got := two.PrefetchInstall(addr); got != was {
			t.Fatalf("step %d: PrefetchInstall(%#x) = %v, Probe said %v", i, addr, got, was)
		}
	}
	if one.Stats != two.Stats {
		t.Fatalf("stats differ: %+v vs %+v", one.Stats, two.Stats)
	}
	if !reflect.DeepEqual(one.Lines(), two.Lines()) {
		t.Fatal("resident lines differ")
	}
}

func TestCacheMarkDirtyAndClear(t *testing.T) {
	c := MustCache("t", 4096, 4)
	c.Install(0x100, false)
	c.MarkDirty(0x100)
	c.MarkDirty(0x9999) // not resident: no-op
	c.Clear()
	if c.Probe(0x100) {
		t.Fatal("Clear left lines resident")
	}
	if c.Access(0x100, false) {
		t.Fatal("access after Clear should miss")
	}
}

func TestCacheLinesRoundTrip(t *testing.T) {
	c := MustCache("t", 8192, 4)
	want := map[uint64]bool{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		addr := uint64(r.Intn(1 << 20))
		c.Access(addr, false)
		want[trace.Line(addr)] = true
	}
	got := c.Lines()
	for _, l := range got {
		if !want[l] {
			t.Fatalf("Lines returned %#x, never accessed", l)
		}
		if !c.Probe(l) {
			t.Fatalf("Lines returned %#x but Probe misses", l)
		}
	}
}

func TestCacheNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		c := MustCache("t", 2048, 2) // 32 lines
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			c.Access(uint64(r.Intn(1<<18)), r.Intn(2) == 0)
		}
		return len(c.Lines()) <= 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheInclusionAfterAccess(t *testing.T) {
	// Any freshly accessed line must be resident immediately afterwards.
	f := func(seed int64) bool {
		c := MustCache("t", 1024, 2)
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			addr := uint64(r.Intn(1 << 16))
			c.Access(addr, false)
			if !c.Probe(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := DefaultHierarchy()
	lvl, lat := h.FetchI(0x4000_0000)
	if lvl != LevelMem || lat != h.Lat.Mem {
		t.Fatalf("cold fetch: %v %d", lvl, lat)
	}
	lvl, lat = h.FetchI(0x4000_0000)
	if lvl != LevelL1 || lat != 0 {
		t.Fatalf("warm fetch: %v %d", lvl, lat)
	}
	// Evict from L1 but not L2: next fetch is an L2 hit.
	h.L1I.Clear()
	lvl, lat = h.FetchI(0x4000_0000)
	if lvl != LevelL2 || lat != h.Lat.L2 {
		t.Fatalf("L2 fetch: %v %d", lvl, lat)
	}
}

func TestHierarchyDataPath(t *testing.T) {
	h := DefaultHierarchy()
	lvl, lat := h.AccessD(0x8000, true)
	if lvl != LevelMem || lat != h.Lat.Mem {
		t.Fatalf("cold access: %v %d", lvl, lat)
	}
	lvl, lat = h.AccessD(0x8000, false)
	if lvl != LevelL1 || lat != h.Lat.L1 {
		t.Fatalf("warm access: %v %d", lvl, lat)
	}
}

func TestHierarchyPerfectSwitches(t *testing.T) {
	h := DefaultHierarchy()
	h.PerfectL1I, h.PerfectL1D = true, true
	if lvl, lat := h.FetchI(0x123456); lvl != LevelL1 || lat != 0 {
		t.Fatal("perfect L1I should always hit")
	}
	if lvl, _ := h.AccessD(0x777777, false); lvl != LevelL1 {
		t.Fatal("perfect L1D should always hit")
	}
	if h.L1I.Stats.Accesses != 0 || h.L1D.Stats.Accesses != 0 {
		t.Fatal("perfect paths must bypass the real caches")
	}
}

func TestHierarchyPrefetchInstalls(t *testing.T) {
	h := DefaultHierarchy()
	h.PrefetchI(0x40)
	if lvl, _ := h.FetchI(0x40); lvl != LevelL1 {
		t.Fatal("PrefetchI should land in L1I")
	}
	h.PrefetchD(0x4000)
	if lvl, _ := h.AccessD(0x4000, false); lvl != LevelL1 {
		t.Fatal("PrefetchD should land in L1D")
	}
}

func TestHierarchyNearPrefetchTimeliness(t *testing.T) {
	h := DefaultHierarchy()
	h.NearTimelyPct = 100
	// Cold line: near prefetch may only land in L2.
	h.PrefetchINear(0x40)
	if h.L1I.Probe(0x40) {
		t.Fatal("near prefetch of a memory-resident line must not reach L1")
	}
	if !h.L2.Probe(0x40) {
		t.Fatal("near prefetch should land in L2")
	}
	// Now L2-resident and always timely: reaches L1.
	h.PrefetchINear(0x40)
	if !h.L1I.Probe(0x40) {
		t.Fatal("timely near prefetch of an L2-resident line should reach L1")
	}
	h.NearTimelyPct = 0
	h.PrefetchDNear(0x4000)
	h.PrefetchDNear(0x4000)
	if h.L1D.Probe(0x4000) {
		t.Fatal("with 0%% timeliness nothing reaches L1D")
	}
}

func TestFillLatency(t *testing.T) {
	h := DefaultHierarchy()
	if lat, llc := h.FillLatency(0x40); !llc || lat != h.Lat.Mem {
		t.Fatalf("cold fill: %d %v", lat, llc)
	}
	h.L2.Install(0x40, false)
	if lat, llc := h.FillLatency(0x40); llc || lat != h.Lat.L2 {
		t.Fatalf("L2 fill: %d %v", lat, llc)
	}
}

func TestWorkingSetUnique(t *testing.T) {
	w := NewWorkingSet()
	for i := 0; i < 10; i++ {
		w.Touch(uint64(i * 64))
	}
	if w.Unique() != 10 {
		t.Fatalf("Unique = %d", w.Unique())
	}
	if w.Reuses() != 0 {
		t.Fatalf("Reuses = %d", w.Reuses())
	}
}

func TestWorkingSetStackDistance(t *testing.T) {
	w := NewWorkingSet()
	// Access pattern A B C A: A's reuse has stack distance 2 (B, C).
	w.Touch(0)
	w.Touch(64)
	w.Touch(128)
	w.Touch(0)
	if w.Reuses() != 1 {
		t.Fatalf("Reuses = %d", w.Reuses())
	}
	// Distance 2 hits in a 3-line cache.
	if got := w.LinesFor(1.0); got != 3 {
		t.Fatalf("LinesFor(1.0) = %d, want 3", got)
	}
}

func TestWorkingSetLoopCapture(t *testing.T) {
	// A loop over 8 lines repeated 100 times: a cache of 8 lines captures
	// all reuse.
	w := NewWorkingSet()
	for rep := 0; rep < 100; rep++ {
		for i := 0; i < 8; i++ {
			w.Touch(uint64(i * 64))
		}
	}
	if got := w.LinesFor(1.0); got != 8 {
		t.Fatalf("LinesFor(1.0) = %d, want 8", got)
	}
	if w.Unique() != 8 {
		t.Fatalf("Unique = %d", w.Unique())
	}
}

func TestWorkingSetPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		w := NewWorkingSet()
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			w.Touch(uint64(r.Intn(40)) * 64)
		}
		return w.LinesFor(0.75) <= w.LinesFor(0.85) &&
			w.LinesFor(0.85) <= w.LinesFor(0.95) &&
			w.LinesFor(0.95) <= w.Unique()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkingSetMatchesLRUSimulation(t *testing.T) {
	// Cross-validate stack distances against a real LRU cache: a fully
	// associative cache of K lines must hit exactly the reuses with
	// distance < K.
	r := rand.New(rand.NewSource(99))
	addrs := make([]uint64, 500)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(24)) * 64
	}
	const k = 8
	w := NewWorkingSet()
	lru := []uint64{}
	hits := 0
	for _, a := range addrs {
		// LRU simulation.
		found := -1
		for i, l := range lru {
			if l == a {
				found = i
				break
			}
		}
		if found >= 0 {
			lru = append(lru[:found], lru[found+1:]...)
			hits++
		} else if len(lru) == k {
			lru = lru[1:]
		}
		lru = append(lru, a)
		w.Touch(a)
	}
	// Count reuses with stack distance < k via LinesFor brute force.
	captured := 0
	for _, d := range w.dists {
		if d < k {
			captured++
		}
	}
	if captured != hits {
		t.Fatalf("stack-distance model says %d hits at %d lines, LRU simulation says %d", captured, k, hits)
	}
}
