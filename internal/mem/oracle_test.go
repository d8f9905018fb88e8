package mem

import (
	"math/rand"
	"reflect"
	"testing"
)

// oracleLine is one way of an lruOracle set.
type oracleLine struct {
	line                     uint64 // address >> 6
	valid, dirty, prefetched bool
}

// lruOracle is a deliberately naive true-LRU cache, the reference
// mem.Cache is checked against: each set is a slice of its ways in
// recency order (MRU first), every way carries explicit valid, dirty and
// prefetched bits, there are no sentinel tags, and the set index is a
// modulo, not a mask.
type lruOracle struct {
	sets  [][]oracleLine // each made on first use
	ways  int
	stats CacheStats
}

func newLRUOracle(sizeBytes, ways int) *lruOracle {
	return &lruOracle{sets: make([][]oracleLine, sizeBytes/(ways*64)), ways: ways}
}

// lookup returns addr's set and the way holding its line, or -1.
func (o *lruOracle) lookup(addr uint64) (set []oracleLine, way int) {
	line := addr / 64
	s := line % uint64(len(o.sets))
	if o.sets[s] == nil {
		o.sets[s] = make([]oracleLine, o.ways)
	}
	set = o.sets[s]
	for i, l := range set {
		if l.valid && l.line == line {
			return set, i
		}
	}
	return set, -1
}

// toFront moves way i of set to the MRU position.
func toFront(set []oracleLine, i int) {
	l := set[i]
	copy(set[1:i+1], set[:i])
	set[0] = l
}

// insert fills addr's line into an empty way, or else over the LRU one,
// and makes it MRU; it reports whether a dirty line was evicted.
func (o *lruOracle) insert(set []oracleLine, addr uint64, dirty, prefetched bool) (evictedDirty bool) {
	victim := len(set) - 1
	for i, l := range set {
		if !l.valid {
			victim = i
			break
		}
	}
	if set[victim].valid && set[victim].dirty {
		o.stats.DirtyEvictions++
		evictedDirty = true
	}
	set[victim] = oracleLine{line: addr / 64, valid: true, dirty: dirty, prefetched: prefetched}
	toFront(set, victim)
	return evictedDirty
}

func (o *lruOracle) Access(addr uint64, write bool) bool {
	o.stats.Accesses++
	set, i := o.lookup(addr)
	if i < 0 {
		o.stats.Misses++
		o.insert(set, addr, write, false)
		return false
	}
	if set[i].prefetched {
		o.stats.PrefetchUseful++
		set[i].prefetched = false
	}
	if write {
		set[i].dirty = true
	}
	toFront(set, i)
	return true
}

func (o *lruOracle) Probe(addr uint64) bool {
	_, i := o.lookup(addr)
	return i >= 0
}

func (o *lruOracle) Install(addr uint64, prefetch bool) bool {
	set, i := o.lookup(addr)
	if i >= 0 {
		return false
	}
	if prefetch {
		o.stats.PrefetchInstalls++
	}
	return o.insert(set, addr, false, prefetch)
}

func (o *lruOracle) PrefetchInstall(addr uint64) bool {
	set, i := o.lookup(addr)
	if i >= 0 {
		return true
	}
	o.stats.PrefetchInstalls++
	o.insert(set, addr, false, true)
	return false
}

func (o *lruOracle) MarkDirty(addr uint64) {
	if set, i := o.lookup(addr); i >= 0 {
		set[i].dirty = true
	}
}

func (o *lruOracle) Reset() {
	for _, set := range o.sets {
		clear(set)
	}
	o.stats = CacheStats{}
}

// lines lists every valid line's address, set by set, MRU first.
func (o *lruOracle) lines() []uint64 {
	var out []uint64
	for _, set := range o.sets {
		for _, l := range set {
			if l.valid {
				out = append(out, l.line*64)
			}
		}
	}
	return out
}

// oracleGeometries are the cache shapes the model builds: the 2-way
// L1s, the 16-way L2 and the 12-way cachelet (ESP-1's 11 ways plus
// ESP-2's one).
var oracleGeometries = []struct {
	name            string
	sizeBytes, ways int
}{
	{"L1", 32 << 10, 2},
	{"L2", 2 << 20, 16},
	{"cachelet", 6 << 10, 12},
}

// oracleOpBytes is the encoded size of one operation in
// runCacheOracle's input.
const oracleOpBytes = 3

// runCacheOracle decodes ops, three bytes each, and applies every one to
// a mem.Cache of the given geometry and to an lruOracle, failing on the
// first return value, statistic or line listing that differs. Addresses
// fall on four sets and about one and a half times as many tags as ways
// (every odd tag lifted far up the address space), so lines hit, fill
// and evict often at every associativity.
func runCacheOracle(t *testing.T, geom int, ops []byte) {
	g := oracleGeometries[geom%len(oracleGeometries)]
	c := MustCache(g.name, g.sizeBytes, g.ways)
	o := newLRUOracle(g.sizeBytes, g.ways)
	nSets := uint64(g.sizeBytes / (g.ways * 64))
	nTags := uint64(g.ways + g.ways/2 + 1)
	checkLines := func(step int) {
		if got, want := c.AppendLines(nil), o.lines(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, op %d: lines %x, oracle has %x", g.name, step, got, want)
		}
	}
	for step := 0; step+oracleOpBytes <= len(ops); step += oracleOpBytes {
		op, a, b := ops[step], ops[step+1], ops[step+2]
		tag := uint64(b) % nTags
		if tag%2 == 1 {
			tag |= 1 << 40
		}
		addr := (tag*nSets+uint64(a&3))*64 + uint64(a>>2)
		var got, want bool
		switch op % 8 {
		case 0, 1:
			got, want = c.Access(addr, op%8 == 1), o.Access(addr, op%8 == 1)
		case 2:
			got, want = c.Probe(addr), o.Probe(addr)
		case 3, 4:
			got, want = c.Install(addr, op%8 == 4), o.Install(addr, op%8 == 4)
		case 5:
			got, want = c.PrefetchInstall(addr), o.PrefetchInstall(addr)
		case 6:
			c.MarkDirty(addr)
			o.MarkDirty(addr)
		case 7: // Reset is rare, so sets fill between resets
			if op != 0xFF {
				got, want = c.Access(addr, true), o.Access(addr, true)
				break
			}
			c.Reset()
			o.Reset()
			checkLines(step)
		}
		if got != want {
			t.Fatalf("%s, op %d (kind %d, addr %#x): cache answered %v, oracle %v", g.name, step, op%8, addr, got, want)
		}
		if c.Stats != o.stats {
			t.Fatalf("%s, op %d (kind %d, addr %#x): stats %+v, oracle %+v", g.name, step, op%8, addr, c.Stats, o.stats)
		}
		if step%(64*oracleOpBytes) == 0 {
			checkLines(step)
		}
	}
	checkLines(len(ops))
}

// TestCacheMatchesLRUOracle runs long random operation sequences against
// each geometry.
func TestCacheMatchesLRUOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := make([]byte, 30000*oracleOpBytes)
	for geom := range oracleGeometries {
		rng.Read(ops)
		runCacheOracle(t, geom, ops)
	}
}

// FuzzCacheOracle checks mem.Cache against the naive LRU oracle on
// fuzzed operation sequences; the first byte picks the geometry.
func FuzzCacheOracle(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 3, 0})
	f.Add([]byte{1, 4, 1, 1, 1, 1, 2, 1, 1, 3, 5, 1, 4, 0, 1, 1, 7, 1, 2})
	f.Add([]byte{2, 5, 0, 40, 6, 0, 40, 0, 0, 40, 0xFF, 0, 0, 2, 0, 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runCacheOracle(t, int(data[0]), data[1:])
	})
}
