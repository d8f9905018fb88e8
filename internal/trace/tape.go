package trace

import (
	"fmt"
	"unsafe"
)

// A Tape is an instruction stream in the workload plane's compact,
// lossless encoding: one op byte per instruction, plus a stream of
// 32-bit operand words. Synthetic streams cost 2.7–3.0 bytes per
// instruction this way, against 24 for a []Inst, and the replay loops
// walk a tape directly through a Cursor.
//
// Op byte layout:
//
//	bits 0-1  Kind
//	bit 2     Taken
//	bit 3     Indirect
//	bit 4     Call
//	bit 5     Ret
//	bit 6     the PC is an operand
//	bit 7     an ALU op with operands: its Addr, then its Kind
//
// Operands follow in instruction order: the PC when bit 6 is set, then
// the instruction's own. A Load, Store or Branch has one, its Addr. An
// ALU instruction has none unless its Addr is nonzero or its Kind is
// none of the four; then bit 7 is set and two follow, the Addr and the
// Kind. Such an instruction's kind bits read ALU, which is how every
// kind outside the four replays.
//
// An explicit PC takes two words, its low half and then its high half,
// and a Kind takes one. An Addr takes one word: a 4-bit window index
// over a 28-bit offset. Windows 0 to 14 are 256 MiB-aligned regions
// whose bases a table holds, entered in the order operands first reach
// them, and the Addr is its window's base plus the offset; the
// synthetic workloads' operands lie in 5–7 windows. Once the table is
// full, an Addr outside its 15 windows escapes: window index 15 marks
// it, and the offset indexes a side array of uint64s that holds it
// whole. An escaped operand costs 12 bytes where a uint64 operand
// stream spent 8, so a stream whose addresses spread over more than 15
// windows is the encoding's worst case; a tape holds at most 2^28
// escaped operands.
//
// A PC that equals the previous instruction's NextPC is left implicit.
// The first instruction of every encoded stream carries its PC, so
// streams concatenate and every stream boundary is a valid place to
// start a Cursor.
//
// The window table and the side array belong to the whole tape a
// TapeBuilder encodes, and every view of it shares them.
//
// The zero Tape is the encoding of a nil stream. Tapes are immutable:
// nothing hands out their arrays for writing.
type Tape struct {
	ops   []byte
	words []uint32
	tab   *operandTable
}

// Op byte fields; see Tape.
const (
	opKind     = 0x03
	opTaken    = 1 << 2
	opIndirect = 1 << 3
	opCall     = 1 << 4
	opRet      = 1 << 5
	opPC       = 1 << 6
	opALUArgs  = 1 << 7
)

// Operand word fields; see Tape.
const (
	winShift = 28
	offMask  = 1<<winShift - 1
	escWin   = 15 // the window index of an escaped operand
)

// operandTable holds a tape's window bases and escaped operands.
type operandTable struct {
	wins [escWin + 1]uint64 // wins[escWin] is never used
	esc  []uint64
}

// operand decodes an Addr word.
func (t *operandTable) operand(w uint32) uint64 {
	if w>>winShift == escWin {
		return t.esc[w&offMask]
	}
	return t.wins[w>>winShift] + uint64(w&offMask)
}

// tableBytes is an operand table's size without its escapes.
const tableBytes = int64(unsafe.Sizeof(operandTable{}))

// EncodeTape encodes insts as a tape whose arrays are sized exactly.
func EncodeTape(insts []Inst) Tape {
	var b TapeBuilder
	b.Add(insts)
	_, views := b.Finish()
	return views[0]
}

// exact returns s in a backing array of exactly its length, never nil.
func exact[T any](s []T) []T {
	if s != nil && len(s) == cap(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// Len returns the number of instructions on the tape.
func (t Tape) Len() int { return len(t.ops) }

// Bytes returns the size of the tape's backing arrays and its operand
// table. A view counts the table it shares with the rest of its tape.
func (t Tape) Bytes() int64 {
	b := int64(cap(t.ops)) + 4*int64(cap(t.words))
	if t.tab != nil {
		b += tableBytes + 8*int64(cap(t.tab.esc))
	}
	return b
}

// Insts decodes the whole tape into a new slice: nil for the zero Tape,
// and an empty non-nil slice for any other empty one. Replay loops walk
// a Cursor instead; decoding is for interchange.
func (t Tape) Insts() []Inst {
	if t.ops == nil {
		return nil
	}
	out := make([]Inst, len(t.ops))
	words := t.words
	a := 0
	var next uint64
	for i, op := range t.ops {
		in := &out[i]
		in.PC = next
		if op&opPC != 0 {
			in.PC = uint64(words[a]) | uint64(words[a+1])<<32
			a += 2
		}
		in.Kind = Kind(op & opKind)
		in.Taken, in.Indirect = op&opTaken != 0, op&opIndirect != 0
		in.Call, in.Ret = op&opCall != 0, op&opRet != 0
		switch {
		case op&opALUArgs != 0:
			in.Addr, in.Kind = t.tab.operand(words[a]), Kind(words[a+1])
			a += 2
		case in.Kind != ALU:
			in.Addr = t.tab.operand(words[a])
			a++
		}
		next = in.NextPC()
	}
	return out
}

// Cursor returns a cursor at the tape's first instruction.
func (t Tape) Cursor() Cursor { return Cursor{ops: t.ops, words: t.words, tab: t.tab} }

// Cursor walks a tape for the replay loops, which take no call per
// instruction to do it: every method inlines, and so do Op.Kind and
// Op.SetBranch (make inline-check guards this). It splits an
// instruction's decode so the only branch on its kind is the caller's
// own. Op decodes the op byte and PC of instruction i, and the caller
// then takes a Load's or Store's Addr with Addr, or a Branch's target
// with Target, before the next Op. An ALU instruction has nothing more
// to take. Instructions are decoded in order: i is 0, then one more
// than the last call's. Kinds outside the four read as ALU, which is
// how they replay; Tape.Insts decodes them exactly.
//
// A Cursor is a plain value: a copy walks on independently, which is
// how the core hands the rest of an event to runahead and how an ESP
// slot keeps its place between stall windows.
type Cursor struct {
	ops   []byte
	words []uint32
	tab   *operandTable
	a     int    // next operand word
	pc    uint64 // the next instruction's PC, unless its op carries one
}

// Op is an instruction's op byte, as a Cursor hands it out.
type Op uint8

// Kind returns the instruction's kind as it replays.
func (o Op) Kind() Kind { return Kind(o & opKind) }

// SetBranch writes the record of a Branch with this op, at pc and with
// target, into in. The fields are stored one by one: a record built
// whole and copied in would be reloaded with loads wider than its flag
// stores, which stalls store forwarding on every branch.
func (o Op) SetBranch(in *Inst, pc, target uint64) {
	in.PC, in.Addr, in.Kind = pc, target, Branch
	in.Taken, in.Indirect = o&opTaken != 0, o&opIndirect != 0
	in.Call, in.Ret = o&opCall != 0, o&opRet != 0
}

// Len returns the number of instructions on the cursor's tape.
func (c *Cursor) Len() int { return len(c.ops) }

// Op decodes instruction i's op byte and PC.
func (c *Cursor) Op(i int) (Op, uint64) {
	op := c.ops[i]
	pc := c.pc
	if op&(opPC|opALUArgs) != 0 { // rare: a jump in PC, or ALU operands
		if op&opPC != 0 {
			pc = uint64(c.words[c.a]) | uint64(c.words[c.a+1])<<32
			c.a += 2
		}
		if op&opALUArgs != 0 {
			c.a += 2
		}
	}
	c.pc = pc + InstBytes
	return Op(op), pc
}

// Addr takes a Load's or Store's Addr.
func (c *Cursor) Addr() uint64 {
	w := c.words[c.a]
	c.a++
	return c.tab.operand(w)
}

// Target takes a Branch's target, sending the next instruction's PC
// there when the branch is taken.
func (c *Cursor) Target(op Op) uint64 {
	addr := c.Addr()
	if op&opTaken != 0 {
		c.pc = addr
	}
	return addr
}

// Skip takes whatever op's instruction has left after Op, so the
// cursor stands at the next instruction.
func (c *Cursor) Skip(op Op) {
	switch k := op.Kind(); {
	case k == Branch && op&opTaken != 0:
		c.pc = c.Addr()
	case k != ALU:
		c.a++
	}
}

// TapeBuilder concatenates instruction streams into one tape and hands
// back a view of each: the workload plane's single arena. Its streams
// share one operand table.
type TapeBuilder struct {
	ops   []byte
	words []uint32
	tab   *operandTable
	nwins int // windows entered in tab
	marks []tapeMark

	// recent maps window numbers (Addr >> 28) to table indexes, hashed
	// by recentSlot: an entry holds one more than the number, shifted
	// over the index, and zero is empty. An operand whose window it
	// holds skips the table scan, so encoding costs about what
	// appending the operand whole did.
	recent [1 << recentBits]uint64
}

const recentBits = 8

// recentSlot is window number x's slot in TapeBuilder.recent, by
// Fibonacci hashing: numbers a few apart land far apart.
func recentSlot(x uint64) uint64 { return x * 0x9e3779b97f4a7c15 >> (64 - recentBits) }

// tapeMark locates one added stream by its first op and operand word.
type tapeMark struct {
	op, word int
	isNil    bool
}

// Grow reserves room for n more instructions, so a builder that knows
// its instruction count allocates the op array once and exactly. It
// also reserves an operand word per instruction, more than a synthetic
// stream needs, so the word array is not regrown as streams arrive;
// Finish trims it.
func (b *TapeBuilder) Grow(n int) {
	b.ops = append(make([]byte, 0, len(b.ops)+n), b.ops...)
	b.words = append(make([]uint32, 0, len(b.words)+n), b.words...)
}

// Add encodes insts as the next stream and returns its index among the
// views Finish returns.
func (b *TapeBuilder) Add(insts []Inst) int {
	b.marks = append(b.marks, tapeMark{op: len(b.ops), word: len(b.words), isNil: insts == nil})
	ops, words := b.ops, b.words
	var next uint64
	for j := range insts {
		in := &insts[j]
		var op byte
		if in.Taken {
			op |= opTaken
		}
		if in.Indirect {
			op |= opIndirect
		}
		if in.Call {
			op |= opCall
		}
		if in.Ret {
			op |= opRet
		}
		if j == 0 || in.PC != next {
			op |= opPC
			words = append(words, uint32(in.PC), uint32(in.PC>>32))
		}
		switch in.Kind {
		case Load, Store, Branch:
			op |= byte(in.Kind)
			w, ok := b.near(in.Addr)
			if !ok {
				w = b.enter(in.Addr)
			}
			words = append(words, w)
		case ALU:
			if in.Addr == 0 {
				break
			}
			fallthrough
		default:
			op |= opALUArgs
			words = append(words, b.enter(in.Addr), uint32(in.Kind))
		}
		ops = append(ops, op)
		next = in.NextPC()
	}
	b.ops, b.words = ops, words
	return len(b.marks) - 1
}

// near encodes an Addr in a window that recent holds, and reports
// whether it did.
func (b *TapeBuilder) near(addr uint64) (uint32, bool) {
	x := addr >> winShift
	e := b.recent[recentSlot(x)]
	return uint32(e&15)<<winShift | uint32(addr&offMask), e>>4 == x+1
}

// enter encodes an Addr through the table: into the window that holds
// it, entering a new one while the table has room, or else as an
// escape.
func (b *TapeBuilder) enter(addr uint64) uint32 {
	if b.tab == nil {
		b.tab = new(operandTable)
	}
	t, x := b.tab, addr>>winShift
	k := 0
	for k < b.nwins && t.wins[k] != x<<winShift {
		k++
	}
	if k == escWin {
		if len(t.esc) > offMask {
			panic(fmt.Sprintf("trace: a tape holds at most %d escaped operands", offMask+1))
		}
		t.esc = append(t.esc, addr)
		return escWin<<winShift | uint32(len(t.esc)-1)
	}
	if k == b.nwins {
		t.wins[k] = x << winShift
		b.nwins++
	}
	b.recent[recentSlot(x)] = (x+1)<<4 | uint64(k)
	return uint32(k)<<winShift | uint32(addr&offMask)
}

// Finish returns the whole tape, its arrays sized exactly, and a view
// of each added stream in Add order: the zero Tape for a nil stream.
// The builder is empty afterwards.
func (b *TapeBuilder) Finish() (Tape, []Tape) {
	tab := b.tab
	if tab == nil {
		tab = new(operandTable)
	}
	tab.esc = exact(tab.esc)
	t := Tape{ops: exact(b.ops), words: exact(b.words), tab: tab}
	views := make([]Tape, len(b.marks))
	for k, m := range b.marks {
		if m.isNil {
			continue
		}
		op, word := len(t.ops), len(t.words)
		if k+1 < len(b.marks) {
			op, word = b.marks[k+1].op, b.marks[k+1].word
		}
		views[k] = Tape{ops: t.ops[m.op:op:op], words: t.words[m.word:word:word], tab: tab}
	}
	*b = TapeBuilder{}
	return t, views
}
