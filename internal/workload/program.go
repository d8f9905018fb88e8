package workload

import (
	"math"

	"espsim/internal/trace"
)

// Address-space layout. Code and data live in disjoint regions so the
// simulator's I- and D-side structures never alias.
const (
	runtimeBase  = 0x1000_0000 // shared JS-engine/runtime code
	handlerSpace = 0x4000_0000 // per-handler code regions, 16 MiB apart
	handlerSlot  = 1 << 24
	sharedBase   = 0x1_0000_0000 // shared application state
	heapSpace    = 0x2_0000_0000 // per-event private heaps
	strideSpace  = 0x4_0000_0000 // per-event sequentially-walked arrays

	// funcBytes is the size of one "function" window. Calls target
	// function entries; conditional branches stay within the window.
	funcBytes = 1024

	// maxCallDepth bounds the simulated call stack.
	maxCallDepth = 16

	// hotFuncs is the size of each code region's hot-function subset;
	// HotCallFrac of call sites target it (the code working set that
	// gives real applications their I-cache temporal locality).
	hotFuncs = 40

	// reusePoolSize is the per-event pool of recently touched data
	// addresses; ReuseFrac of references re-touch one of them.
	reusePoolSize = 192

	// heapRecycle is the number of distinct per-event heap arenas before
	// the allocator recycles one: a freed arena is still L2-resident when
	// it is reallocated, as with real allocators, so event-private data
	// costs L1 misses but rarely memory accesses.
	heapRecycle = 24

	// indirectTargets is the number of distinct targets an indirect
	// dispatch site can reach; indirectSkew is the probability of the
	// dominant one (what the iBTB can learn).
	indirectTargets = 4
	indirectSkew    = 0.80

	// wsScale scales an event's code working set with len^0.8 — longer
	// events touch more code, but sub-linearly (about 13 functions for a
	// 5,600-instruction event).
	wsScale = 0.0095
)

// Branch class thresholds, per mille of all block-terminating branches.
// DataDepBranch from the profile carves its share out of the biased
// conditional class, so the total always sums to 1000.
const (
	loopPM     = 110 // backward loop branches with static trip counts
	callPM     = 140 // direct calls into the event's code working set
	retPM      = 120 // returns
	indirectPM = 40  // indirect dispatch (8 possible targets per site)
	jumpPM     = 80  // unconditional forward jumps
	// remaining 540 per mille: conditional branches, split between
	// data-dependent (profile.DataDepBranch of ALL branches) and biased.
)

// condBias is the taken (or not-taken) probability of a biased branch.
const condBias = 0.955

// Generator synthesizes replayable event instruction streams for one
// application profile.
type Generator struct {
	prof            Profile
	handlerFuncs    int // functions per handler region
	runtimeFuncs    int // functions in the runtime region
	dataDepPM       int
	loadPM          int // straight-line load threshold, per mille
	storePM         int // straight-line load+store threshold, per mille
	sharedWords     uint64
	sharedHotWords  uint64
	heapWords       uint64
	heapStrideBytes uint64
}

// New returns a generator for the profile.
func New(p Profile) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.CodeIntensity == 0 {
		p.CodeIntensity = 1
	}
	heapStride := uint64(p.EventHeap+4095) &^ 4095
	return &Generator{
		prof:            p,
		handlerFuncs:    p.HandlerFootprint / funcBytes,
		runtimeFuncs:    p.RuntimeFootprint / funcBytes,
		dataDepPM:       int(p.DataDepBranch * 1000),
		loadPM:          int(p.LoadFrac * 1000),
		storePM:         int((p.LoadFrac + p.StoreFrac) * 1000),
		sharedWords:     uint64(p.SharedData) / 8,
		sharedHotWords:  uint64(p.SharedData) / 8 / 16,
		heapWords:       uint64(p.EventHeap) / 8,
		heapStrideBytes: heapStride,
	}, nil
}

func (g *Generator) handlerBase(h int) uint64 {
	return handlerSpace + uint64(h)*handlerSlot
}

// EntryPC returns the first instruction address of a handler type.
func (g *Generator) EntryPC(handler int) uint64 { return g.handlerBase(handler) }

// regionOf returns the base and function count of the code region
// containing pc.
func (g *Generator) regionOf(pc uint64) (base uint64, funcs int) {
	if pc < handlerSpace {
		return runtimeBase, g.runtimeFuncs
	}
	slot := (pc - handlerSpace) / handlerSlot
	return handlerSpace + slot*handlerSlot, g.handlerFuncs
}

// static returns the static-code hash for pc: every property of the
// instruction at pc derives from it, so all dynamic instances of the same
// code agree.
func (g *Generator) static(pc uint64) uint64 { return Hash2(g.prof.Seed, pc) }

// blockLen returns the instruction count of the basic block starting at pc
// (5..14, mean 9.5, giving a ~10.5% branch fraction).
func (g *Generator) blockLen(pc uint64) int { return 5 + int(g.static(pc)%10) }

// Stream returns ev's instruction stream; when speculative is true it is
// the pre-execution variant, which follows the normal stream until
// ev.Diverge and then departs from it. Each call allocates an independent
// stream that restarts the event from its first instruction; hot paths
// that materialize many events should reuse one Walker via Init/Append
// instead.
func (g *Generator) Stream(ev trace.Event, speculative bool) trace.Stream {
	s := &stream{}
	s.w.Init(g, ev, speculative)
	return s
}

// stream adapts a Walker to the pull-based trace.Stream interface.
type stream struct{ w Walker }

// Next implements trace.Stream.
func (s *stream) Next() (trace.Inst, bool) { return s.w.Next() }

// Init points the walker at an event, discarding any previous state. The
// working-set, call-stack and loop-table scratch keep their storage, so a
// warm walker generates a stream without touching the heap.
func (w *Walker) Init(g *Generator, ev trace.Event, speculative bool) {
	stack, ws, loops := w.stack[:0], w.ws[:0], w.loops
	*w = Walker{
		g:         g,
		rng:       NewRNG(ev.Seed),
		limit:     ev.Len,
		divergeAt: -1,
		pc:        g.EntryPC(ev.Handler),
		heapBase:  heapSpace + uint64(ev.ID%heapRecycle)*g.heapStrideBytes,
		stridePtr: strideSpace + uint64(ev.ID)*(64<<10),
		stack:     stack,
		ws:        ws,
		loops:     loops,
	}
	w.loops.clear()
	if speculative && ev.Diverge >= 0 {
		w.divergeAt = ev.Diverge
	}
	w.buildWorkingSet(ev.Handler, ev.Len)
	w.curBlockLen = g.blockLen(w.pc)
	w.blockRemain = w.curBlockLen
}

// Append generates every remaining instruction of the event directly into
// dst and returns the extended slice. It is the bulk equivalent of
// draining Next and emits the exact same sequence. The straight-line body
// of each block runs as one inner loop with the divergence and limit
// checks hoisted to run boundaries, so the per-instruction work is just
// the static classification and (for memory ops) the address draw.
func (w *Walker) Append(dst []trace.Inst) []trace.Inst {
	g := w.g
	for w.emitted < w.limit {
		if w.emitted == w.divergeAt {
			w.rng.Reseed(0xD17E46E)
		}
		if w.blockRemain <= 1 {
			in := w.branch()
			w.emitted++
			dst = append(dst, in)
			continue
		}
		// Straight-line run: up to the block's branch, the event limit,
		// or the divergence point — whichever comes first.
		n := w.blockRemain - 1
		if rem := w.limit - w.emitted; n > rem {
			n = rem
		}
		if w.divergeAt > w.emitted && n > w.divergeAt-w.emitted {
			n = w.divergeAt - w.emitted
		}
		pc := w.pc
		for j := 0; j < n; j++ {
			in := trace.Inst{PC: pc, Kind: trace.ALU}
			r := int(Hash2(g.prof.Seed, pc) >> 7 % 1000)
			switch {
			case r < g.loadPM:
				in.Kind = trace.Load
				in.Addr = w.loadAddr()
			case r < g.storePM:
				in.Kind = trace.Store
				in.Addr = w.storeAddr()
			}
			pc += trace.InstBytes
			dst = append(dst, in)
		}
		w.pc = pc
		w.blockRemain -= n
		w.emitted += n
	}
	return dst
}

// buildWorkingSet draws the event's code working set: the handful of
// functions this event iterates over. Real event handlers execute many
// instructions over little code (loops over DOM nodes, repeated helper
// calls); it is the *interleaving* of events with different working sets
// that destroys locality (paper §2.1), and it is this small per-event
// working set that lets the paper's 5.5 KB cachelet capture 95% of
// pre-execution reuse (Figure 13). The working set is drawn before any
// possible divergence point, so speculative pre-executions agree on it.
func (s *Walker) buildWorkingSet(handler, eventLen int) {
	g := s.g
	hbase := g.handlerBase(handler)
	hHot := min(hotFuncs, g.handlerFuncs)
	rHot := min(hotFuncs, g.runtimeFuncs)
	// Longer events touch more code, but sub-linearly: a long event
	// (spreadsheet recalculation, map tile math) is long because it
	// loops over data, not because it runs more code. This keeps miss
	// streams within prediction-list reach for every app, as the paper's
	// per-app results require.
	n := 4 + int(g.prof.CodeIntensity*wsScale*math.Pow(float64(eventLen), 0.8))
	nCold := 1 + n/12
	nHandler := (n - nCold) * 3 / 5
	nRuntime := n - nCold - nHandler
	if s.rng.Bool(1 - g.prof.HotCallFrac) {
		nCold++
	}
	for ; nHandler > 0; nHandler-- {
		s.ws = append(s.ws, hbase+uint64(s.rng.Intn(hHot))*funcBytes)
	}
	for ; nRuntime > 0; nRuntime-- {
		s.ws = append(s.ws, runtimeBase+uint64(s.rng.Intn(rHot))*funcBytes)
	}
	// Cold code: rarely-exercised paths drawn from the full footprint.
	for ; nCold > 0; nCold-- {
		if s.rng.Bool(0.5) {
			s.ws = append(s.ws, hbase+uint64(s.rng.Intn(g.handlerFuncs))*funcBytes)
		} else {
			s.ws = append(s.ws, runtimeBase+uint64(s.rng.Intn(g.runtimeFuncs))*funcBytes)
		}
	}
}

// wsTarget picks a call/dispatch target from the event's working set,
// skewed toward its first entries (the hottest helpers).
func (s *Walker) wsTarget() uint64 {
	n := len(s.ws)
	k := s.rng.Intn(n)
	if s.rng.Bool(0.5) {
		k = s.rng.Intn((n + 1) / 2) // revisit the hot half more often
	}
	return s.ws[k]
}

// Walker generates one event's dynamic instructions, on demand via Next
// or in bulk via Append. Unlike a fresh Stream per event, a Walker is
// re-initializable: Init retargets it at another event while its scratch
// (call stack, working set, loop table) keeps its storage, so warm
// regeneration of a whole session allocates nothing.
type Walker struct {
	g           *Generator
	rng         RNG
	limit       int
	emitted     int
	divergeAt   int
	pc          uint64
	blockRemain int
	curBlockLen int
	stack       []uint64
	loops       loopTable
	heapBase    uint64
	stridePtr   uint64
	strideRun   int
	newRun      int
	pool        [reusePoolSize]uint64
	poolLen     int
	poolPos     int
	ws          []uint64 // the event's code working set (function bases)
}

// loopTable tracks in-flight loop iteration counts per branch PC. It is
// an open-addressed exact-match hash table with the observable behavior
// of a map[uint64]int8 whose missing keys read as zero, but its storage
// survives clear() so a warm walker never reallocates it. Key 0 marks an
// empty cell; loop branch PCs live in the runtime/handler regions
// (>= 0x1000_0000), so a real key can never be 0.
type loopTable struct {
	keys []uint64
	vals []int8
	n    int
}

func (t *loopTable) clear() {
	for i := range t.keys {
		t.keys[i] = 0
	}
	t.n = 0
}

func (t *loopTable) get(pc uint64) int8 {
	if len(t.keys) == 0 {
		return 0
	}
	mask := uint64(len(t.keys) - 1)
	for i := (pc >> 2) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case pc:
			return t.vals[i]
		case 0:
			return 0
		}
	}
}

func (t *loopTable) set(pc uint64, v int8) {
	if 4*(t.n+1) > 3*len(t.keys) {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	for i := (pc >> 2) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case pc:
			t.vals[i] = v
			return
		case 0:
			t.keys[i], t.vals[i] = pc, v
			t.n++
			return
		}
	}
}

func (t *loopTable) grow() {
	old := *t
	size := 2 * len(old.keys)
	if size < 64 {
		size = 64
	}
	t.keys = make([]uint64, size)
	t.vals = make([]int8, size)
	t.n = 0
	for i, k := range old.keys {
		if k != 0 {
			t.set(k, old.vals[i])
		}
	}
}

// newBurst decides whether this reference opens or continues a burst of
// new (cold) addresses. Cache misses in real programs cluster — an object
// traversal touches several new lines in quick succession — which is what
// lets runahead execution convert the followers of a blocking miss into
// prefetches (Figure 11b). The expected fraction of new references stays
// at 1-ReuseFrac.
func (s *Walker) newBurst() bool {
	if s.newRun > 0 {
		// Burst members are interleaved with ordinary reuse references,
		// spreading the cluster across a few hundred instructions —
		// beyond what the ROB alone can overlap, but within reach of a
		// runahead episode.
		if s.rng.Bool(0.025) {
			s.newRun--
			return true
		}
		return false
	}
	const meanBurst = 7.5 // E[4 + Intn(8)] + the opening reference
	if s.rng.Bool((1 - s.g.prof.ReuseFrac) / (1 + meanBurst)) {
		s.newRun = 4 + s.rng.Intn(8)
		return true
	}
	return false
}

// burstAddr returns the next address of a cold traversal: a pointer chase
// through rarely-touched shared state (cold DOM subtrees, fresh JSON).
func (s *Walker) burstAddr() uint64 {
	g := s.g
	return sharedBase + (s.rng.Next()%g.sharedWords)*8
}

// Next implements trace.Stream.
func (s *Walker) Next() (trace.Inst, bool) {
	if s.emitted >= s.limit {
		return trace.Inst{}, false
	}
	if s.emitted == s.divergeAt {
		// The event depended on a skipped predecessor: from here on the
		// speculative path decorrelates from the normal execution.
		s.rng.Reseed(0xD17E46E)
	}
	var in trace.Inst
	if s.blockRemain > 1 {
		in = s.straightLine()
	} else {
		in = s.branch()
	}
	s.emitted++
	return in, true
}

// straightLine emits the next non-branch instruction of the current block.
func (s *Walker) straightLine() trace.Inst {
	g := s.g
	in := trace.Inst{PC: s.pc, Kind: trace.ALU}
	r := int(g.static(s.pc) >> 7 % 1000)
	switch {
	case r < g.loadPM:
		in.Kind = trace.Load
		in.Addr = s.loadAddr()
	case r < g.storePM:
		in.Kind = trace.Store
		in.Addr = s.storeAddr()
	}
	s.pc += trace.InstBytes
	s.blockRemain--
	return in
}

// branch emits the block-terminating branch and establishes the next block.
func (s *Walker) branch() trace.Inst {
	g := s.g
	pc := s.pc
	h := g.static(pc)
	in := trace.Inst{PC: pc, Kind: trace.Branch}
	cls := int(h >> 17 % 1000)
	switch {
	case cls < loopPM:
		s.loop(&in, h)
	case cls < loopPM+callPM:
		s.call(&in, h)
	case cls < loopPM+callPM+retPM:
		s.ret(&in, h)
	case cls < loopPM+callPM+retPM+indirectPM:
		s.indirect(&in, h)
	case cls < loopPM+callPM+retPM+indirectPM+jumpPM:
		in.Taken = true
		in.Addr = s.forwardTarget(pc, h)
	case cls < loopPM+callPM+retPM+indirectPM+jumpPM+g.dataDepPM:
		// Data-dependent conditional: a coin flip per dynamic instance.
		in.Taken = s.rng.Bool(0.5)
		in.Addr = s.forwardTarget(pc, h)
	default:
		// Biased conditional: strongly but not perfectly predictable.
		takenBiased := h>>40&1 == 0
		follow := s.rng.Bool(condBias)
		in.Taken = takenBiased == follow
		in.Addr = s.forwardTarget(pc, h)
	}
	s.redirect(in.NextPC())
	return in
}

// loop fills in a backward branch with a static trip count (3..16); the
// loop predictor and local predictor can learn these.
func (s *Walker) loop(in *trace.Inst, h uint64) {
	blockStart := in.PC - uint64(s.blockLenAtEnd()-1)*trace.InstBytes
	trip := int8(4 + h>>23%16)
	c := s.loops.get(in.PC) + 1
	if c >= trip {
		s.loops.set(in.PC, 0)
		in.Taken = false
	} else {
		s.loops.set(in.PC, c)
		in.Taken = true
	}
	in.Addr = blockStart
}

// blockLenAtEnd recovers the current block's length from its start: the
// branch sits blockLen-1 instructions after the block start, so walk back.
func (s *Walker) blockLenAtEnd() int {
	// The block started where blockRemain was set; since we only call this
	// when blockRemain == 1 we can recompute from the stored start below.
	return s.curBlockLen
}

func (s *Walker) call(in *trace.Inst, h uint64) {
	in.Taken = true
	in.Call = true
	// Calls target the event's working set: the same handful of helpers,
	// revisited over and over.
	in.Addr = s.wsTarget()
	if len(s.stack) < maxCallDepth {
		s.stack = append(s.stack, in.PC+trace.InstBytes)
	} else {
		// Deep recursion guard: degrade to a jump (no matching return).
		in.Call = false
		in.Addr = s.forwardTarget(in.PC, h)
	}
}

func (s *Walker) ret(in *trace.Inst, h uint64) {
	in.Taken = true
	if n := len(s.stack); n > 0 {
		in.Ret = true
		in.Addr = s.stack[n-1]
		s.stack = s.stack[:n-1]
	} else {
		in.Addr = s.forwardTarget(in.PC, h)
	}
}

// indirect models a dispatch site choosing among the event's working-set
// functions at run time, skewed toward a dominant target (what the iBTB
// can learn); it exercises the iBTB and B-List-Target.
func (s *Walker) indirect(in *trace.Inst, h uint64) {
	in.Taken = true
	in.Indirect = true
	if s.rng.Bool(indirectSkew) {
		in.Addr = s.ws[h%uint64(len(s.ws))] // site-dominant target
	} else {
		in.Addr = s.wsTarget()
	}
}

// forwardTarget returns a static, mostly-forward target inside the same
// function window as pc.
func (s *Walker) forwardTarget(pc, h uint64) uint64 {
	base, _ := s.g.regionOf(pc)
	fb := base + (pc-base)&^uint64(funcBytes-1)
	off := ((pc - fb) + (16+h>>47%120)*trace.InstBytes) % funcBytes
	return fb + off&^3
}

// redirect moves the stream to the next block at pc, wrapping back into a
// valid code region if sequential execution ran off the end of one.
func (s *Walker) redirect(pc uint64) {
	base, funcs := s.g.regionOf(pc)
	limit := base + uint64(funcs)*funcBytes
	if pc >= limit || pc < base {
		pc = base + (pc-base)%uint64(funcs*funcBytes)
		pc &^= 3
	}
	s.pc = pc
	s.curBlockLen = s.g.blockLen(pc)
	s.blockRemain = s.curBlockLen
}

// loadAddr picks the effective address of a load: continue or start a
// sequential array walk (stride/DCU-prefetchable), re-touch a recent
// address (temporal locality), or reference a new location per the
// profile's data mix.
func (s *Walker) loadAddr() uint64 {
	g := s.g
	if s.strideRun > 0 {
		s.strideRun--
		s.stridePtr += 8
		return s.stridePtr
	}
	if s.rng.Bool(g.prof.StrideFrac) {
		s.strideRun = 6 + s.rng.Intn(10)
		s.stridePtr += 8
		return s.stridePtr
	}
	if !s.newBurst() && s.poolLen > 0 {
		return s.pool[s.rng.Intn(s.poolLen)]
	}
	var addr uint64
	switch {
	case s.newRun > 0:
		addr = s.burstAddr()
	case s.rng.Bool(g.prof.SharedFrac):
		addr = s.sharedAddr()
	default:
		addr = s.heapBase + (s.rng.Next()%g.heapWords)*8
	}
	s.remember(addr)
	return addr
}

// storeAddr picks the effective address of a store: usually something
// recently touched, otherwise mostly the event's private heap, sometimes
// shared state (the source of inter-event dependences).
func (s *Walker) storeAddr() uint64 {
	if !s.newBurst() && s.poolLen > 0 {
		return s.pool[s.rng.Intn(s.poolLen)]
	}
	var addr uint64
	if s.rng.Bool(0.75) {
		addr = s.heapBase + (s.rng.Next()%s.g.heapWords)*8
	} else {
		addr = s.sharedAddr()
	}
	s.remember(addr)
	return addr
}

// remember adds addr to the event's recently-touched pool.
func (s *Walker) remember(addr uint64) {
	s.pool[s.poolPos] = addr
	s.poolPos = (s.poolPos + 1) % reusePoolSize
	if s.poolLen < reusePoolSize {
		s.poolLen++
	}
}

func (s *Walker) sharedAddr() uint64 {
	g := s.g
	if s.rng.Bool(g.prof.HotFrac) {
		return sharedBase + (s.rng.Next()%g.sharedHotWords)*8
	}
	return sharedBase + (s.rng.Next()%g.sharedWords)*8
}
