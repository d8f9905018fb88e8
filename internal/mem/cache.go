// Package mem models the memory hierarchy of the simulated core: generic
// set-associative LRU caches, the three-level hierarchy of Figure 7
// (32 KB L1-I, 32 KB L1-D, 2 MB L2, DRAM), prefetch installation, and a
// stack-distance working-set profiler used for the cachelet-sizing study
// (Figure 13).
package mem

import (
	"fmt"

	"espsim/internal/trace"
)

// CacheStats counts the demand traffic a cache observed.
type CacheStats struct {
	// Accesses and Misses count demand lookups (not prefetch installs).
	Accesses int64
	Misses   int64
	// PrefetchInstalls counts lines installed by a prefetcher;
	// PrefetchUseful counts those that saw a demand hit before eviction.
	PrefetchInstalls int64
	PrefetchUseful   int64
	// DirtyEvictions counts evicted lines with the dirty bit set.
	DirtyEvictions int64
}

// MissRate returns Misses/Accesses (0 when idle).
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// invalidTag marks an empty way. It is unreachable by construction: a
// real tag is addr>>6>>setShift <= 2^58, so it can never equal all-ones.
// Using a sentinel tag instead of a per-set occupancy array keeps the
// lookup loop free of a second dependent load — it compares tags only.
const invalidTag = ^uint64(0)

// Per-line state bits, kept in a byte array parallel to the tags.
const (
	flagDirty      = 1 << 0
	flagPrefetched = 1 << 1
)

// Cache is a set-associative, true-LRU cache. Within each set, ways are
// kept in recency order (offset 0 = MRU), which is exact LRU for the small
// associativities modelled here.
//
// Storage is structure-of-arrays twice over: way w of set s lives at
// index s*ways+w of two parallel arenas — an 8-byte tag and a 1-byte
// flag word — so construction is two allocations regardless of set
// count, a lookup scan touches 8 bytes per way (a 16-way set's tags fit
// in two cache lines), and flags are only loaded on the hit that needs
// them. There is no valid bit: a way is empty exactly when its tag is
// invalidTag, and every set keeps its occupied ways as a prefix (MRU
// first) with sentinel ways as the suffix.
type Cache struct {
	name     string //esp:immutable
	setShift uint   //esp:immutable
	setMask  uint64 //esp:immutable
	ways     int    //esp:immutable
	nSets    int    //esp:immutable
	tags     []uint64
	flags    []uint8

	// Stats accumulates demand traffic. Reset with ResetStats.
	Stats CacheStats
}

// CheckGeometry validates a cache geometry without building it:
// sizeBytes must be a positive multiple of ways*64 with a power-of-two
// set count. Configuration validators use it to reject bad cachelet
// geometry before any simulation structure is constructed.
func CheckGeometry(name string, sizeBytes, ways int) error {
	if sizeBytes <= 0 || ways <= 0 || sizeBytes%(ways*trace.LineBytes) != 0 {
		return fmt.Errorf("mem: cache %q: size %d not divisible into %d ways of 64B lines", name, sizeBytes, ways)
	}
	if nSets := sizeBytes / (ways * trace.LineBytes); nSets&(nSets-1) != 0 {
		return fmt.Errorf("mem: cache %q: set count %d not a power of two", name, nSets)
	}
	return nil
}

// NewCache builds a cache of sizeBytes with the given associativity and
// 64-byte lines. sizeBytes must be a positive multiple of ways*64 with a
// power-of-two set count.
func NewCache(name string, sizeBytes, ways int) (*Cache, error) {
	if err := CheckGeometry(name, sizeBytes, ways); err != nil {
		return nil, err
	}
	nSets := sizeBytes / (ways * trace.LineBytes)
	setShift := uint(0)
	for 1<<setShift < nSets {
		setShift++
	}
	c := &Cache{
		name:     name,
		setShift: setShift,
		setMask:  uint64(nSets - 1),
		ways:     ways,
		nSets:    nSets,
		tags:     make([]uint64, nSets*ways),
		flags:    make([]uint8, nSets*ways),
	}
	fillInvalid(c.tags)
	return c, nil
}

// fillInvalid sets every tag to the sentinel by doubling copies: O(log n)
// memmoves instead of n stores (Go has no pattern memset).
func fillInvalid(tags []uint64) {
	if len(tags) == 0 {
		return
	}
	tags[0] = invalidTag
	for n := 1; n < len(tags); n *= 2 {
		copy(tags[n:], tags[:n])
	}
}

// MustCache is NewCache that panics on configuration errors. It is for
// compiled-in constants only (DefaultHierarchy's Figure 7 geometry and
// package tests): a panic here is an internal invariant violation, never
// a reaction to user input — user-supplied geometry must go through
// CheckGeometry/NewCache.
func MustCache(name string, sizeBytes, ways int) *Cache {
	c, err := NewCache(name, sizeBytes, ways)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// SizeBytes returns the capacity in bytes.
func (c *Cache) SizeBytes() int { return c.nSets * c.ways * trace.LineBytes }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

func (c *Cache) index(lineAddr uint64) (set uint64, tag uint64) {
	blk := lineAddr >> 6 // line number
	return blk & c.setMask, blk >> c.setShift
}

// Access performs a demand access to the line containing addr, installing
// it on a miss. It returns whether the access hit. The body handles only
// the plain MRU hit — no recency shuffle, no prefetch bookkeeping — so
// that case runs without a second call; every other case is outlined
// into accessSlow. Access itself is not inlined into its callers.
func (c *Cache) Access(addr uint64, write bool) bool {
	blk := addr >> 6
	i := int(blk&c.setMask) * c.ways
	if c.tags[i] == blk>>c.setShift && c.flags[i]&flagPrefetched == 0 {
		c.Stats.Accesses++
		if write {
			c.flags[i] |= flagDirty
		}
		return true
	}
	return c.accessSlow(addr, write)
}

// accessSlow is the non-MRU-hit remainder of Access: prefetched MRU hits,
// hits in lower recency positions, and misses.
func (c *Cache) accessSlow(addr uint64, write bool) bool {
	blk := addr >> 6
	set, tag := blk&c.setMask, blk>>c.setShift
	c.Stats.Accesses++
	base := int(set) * c.ways
	tags := c.tags[base : base+c.ways]
	flags := c.flags[base : base+c.ways]
	if tags[0] == tag {
		// MRU hit on a prefetched line (the only MRU case the fast path
		// rejects): account its usefulness and clear the mark.
		c.Stats.PrefetchUseful++
		flags[0] &^= flagPrefetched
		if write {
			flags[0] |= flagDirty
		}
		return true
	}
	if c.ways == 2 {
		// Two-way sets (the L1s of Figure 7) need no loop: the only other
		// resident way is way 1, and hit or miss it swaps into MRU.
		if tags[1] == tag {
			f := flags[1]
			if f&flagPrefetched != 0 {
				c.Stats.PrefetchUseful++
				f &^= flagPrefetched
			}
			if write {
				f |= flagDirty
			}
			tags[1], flags[1] = tags[0], flags[0]
			tags[0], flags[0] = tag, f
			return true
		}
		c.Stats.Misses++
		if tags[1] != invalidTag && flags[1]&flagDirty != 0 {
			c.Stats.DirtyEvictions++
		}
		tags[1], flags[1] = tags[0], flags[0]
		var f uint8
		if write {
			f = flagDirty
		}
		tags[0], flags[0] = tag, f
		return false
	}
	for i := 1; i < len(tags); i++ {
		t := tags[i]
		if t == tag {
			f := flags[i]
			if f&flagPrefetched != 0 {
				c.Stats.PrefetchUseful++
				f &^= flagPrefetched
			}
			if write {
				f |= flagDirty
			}
			// Move way i to MRU position.
			copy(tags[1:i+1], tags[:i])
			copy(flags[1:i+1], flags[:i])
			tags[0], flags[0] = tag, f
			return true
		}
		if t == invalidTag {
			break
		}
	}
	c.Stats.Misses++
	c.install(set, tag, write, false)
	return false
}

// Probe reports whether the line containing addr is resident, without
// updating recency or statistics. Like Access, the MRU check comes
// first and the rest of the scan is outlined.
func (c *Cache) Probe(addr uint64) bool {
	blk := addr >> 6
	if c.tags[int(blk&c.setMask)*c.ways] == blk>>c.setShift {
		return true
	}
	return c.probeSlow(addr)
}

// probeSlow scans the non-MRU ways of addr's set.
func (c *Cache) probeSlow(addr uint64) bool {
	set, tag := c.index(trace.Line(addr))
	base := int(set) * c.ways
	tags := c.tags[base : base+c.ways]
	for i := 1; i < len(tags); i++ {
		if tags[i] == tag {
			return true
		}
		if tags[i] == invalidTag {
			break
		}
	}
	return false
}

// Install inserts the line containing addr (e.g. a fill from an inner
// miss or a prefetch). prefetch marks the line for usefulness accounting.
// It returns true if a dirty line was evicted to make room.
func (c *Cache) Install(addr uint64, prefetch bool) (evictedDirty bool) {
	set, tag := c.index(trace.Line(addr))
	if c.resident(set, tag) {
		return false
	}
	if prefetch {
		c.Stats.PrefetchInstalls++
	}
	return c.install(set, tag, false, prefetch)
}

// PrefetchInstall installs the line containing addr as a prefetch unless
// it is already resident, and reports whether it was: Probe followed by
// Install(addr, true), in one scan of the set.
func (c *Cache) PrefetchInstall(addr uint64) (wasResident bool) {
	set, tag := c.index(trace.Line(addr))
	if c.resident(set, tag) {
		return true
	}
	c.Stats.PrefetchInstalls++
	c.install(set, tag, false, true)
	return false
}

// resident scans a set's occupied prefix for tag.
func (c *Cache) resident(set, tag uint64) bool {
	base := int(set) * c.ways
	for _, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return true
		}
		if t == invalidTag {
			break
		}
	}
	return false
}

func (c *Cache) install(set, tag uint64, dirty, prefetch bool) (evictedDirty bool) {
	base := int(set) * c.ways
	tags := c.tags[base : base+c.ways]
	flags := c.flags[base : base+c.ways]
	if lru := c.ways - 1; tags[lru] != invalidTag && flags[lru]&flagDirty != 0 {
		evictedDirty = true
		c.Stats.DirtyEvictions++
	}
	// Shift every way down one slot; a partially-filled set just shifts
	// some sentinel ways within its suffix, preserving the prefix layout.
	copy(tags[1:], tags[:c.ways-1])
	copy(flags[1:], flags[:c.ways-1])
	var f uint8
	if dirty {
		f |= flagDirty
	}
	if prefetch {
		f |= flagPrefetched
	}
	tags[0], flags[0] = tag, f
	return evictedDirty
}

// MarkDirty sets the dirty bit of addr's line if resident (used by
// cachelets, where stores must not propagate outward).
func (c *Cache) MarkDirty(addr uint64) {
	set, tag := c.index(trace.Line(addr))
	base := int(set) * c.ways
	for i, t := range c.tags[base : base+c.ways] {
		if t == tag {
			c.flags[base+i] |= flagDirty
			return
		}
		if t == invalidTag {
			return
		}
	}
}

// Lines returns the addresses of all resident lines (MRU first within
// each set). Used when promoting an ESP-2 cachelet's contents to ESP-1.
func (c *Cache) Lines() []uint64 { return c.AppendLines(nil) }

// AppendLines appends the addresses of all resident lines to buf and
// returns the extended slice, letting hot callers reuse a scratch buffer.
func (c *Cache) AppendLines(buf []uint64) []uint64 {
	for s := 0; s < c.nSets; s++ {
		base := s * c.ways
		for _, t := range c.tags[base : base+c.ways] {
			if t == invalidTag {
				break
			}
			buf = append(buf, (t<<c.setShift|uint64(s))<<6)
		}
	}
	return buf
}

// Clear invalidates every line (statistics are preserved). Both arenas
// are scrubbed so no stale tag or flag survives a pool recycle.
func (c *Cache) Clear() {
	fillInvalid(c.tags)
	for i := range c.flags {
		c.flags[i] = 0
	}
}

// ResetStats zeroes the statistics counters.
func (c *Cache) ResetStats() { c.Stats = CacheStats{} }

// Reset restores the cache to its just-constructed cold state — every
// line invalid, statistics zeroed — without reallocating the arenas.
// A reset cache is behaviourally indistinguishable from a fresh NewCache
// of the same geometry.
func (c *Cache) Reset() {
	c.Clear()
	c.ResetStats()
}
