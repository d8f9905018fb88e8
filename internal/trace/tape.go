package trace

// A Tape is an instruction stream in the workload plane's compact,
// lossless encoding: one op byte per instruction, plus a stream of
// uint64 operands. Synthetic streams cost 4.4–5.0 bytes per
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
// A PC that equals the previous instruction's NextPC is left implicit.
// The first instruction of every encoded stream carries its PC, so
// streams concatenate and every stream boundary is a valid place to
// start a Cursor.
//
// The zero Tape is the encoding of a nil stream. Tapes are immutable:
// nothing hands out their arrays for writing.
type Tape struct {
	ops  []byte
	args []uint64
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

// EncodeTape encodes insts as a tape whose arrays are sized exactly.
func EncodeTape(insts []Inst) Tape {
	var b TapeBuilder
	b.Add(insts)
	_, views := b.Finish()
	return views[0]
}

// appendStream encodes insts as one stream at the end of t.
func (t Tape) appendStream(insts []Inst) Tape {
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
			t.args = append(t.args, in.PC)
		}
		switch in.Kind {
		case Load, Store, Branch:
			op |= byte(in.Kind)
			t.args = append(t.args, in.Addr)
		case ALU:
			if in.Addr == 0 {
				break
			}
			fallthrough
		default:
			op |= opALUArgs
			t.args = append(t.args, in.Addr, uint64(in.Kind))
		}
		t.ops = append(t.ops, op)
		next = in.NextPC()
	}
	return t
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

// Bytes returns the size of the tape's backing arrays.
func (t Tape) Bytes() int64 { return int64(cap(t.ops)) + 8*int64(cap(t.args)) }

// Insts decodes the whole tape into a new slice: nil for the zero Tape,
// and an empty non-nil slice for any other empty one. Replay loops walk
// a Cursor instead; decoding is for interchange.
func (t Tape) Insts() []Inst {
	if t.ops == nil {
		return nil
	}
	out := make([]Inst, len(t.ops))
	a := 0
	var next uint64
	for i, op := range t.ops {
		in := &out[i]
		in.PC = next
		if op&opPC != 0 {
			in.PC = t.args[a]
			a++
		}
		in.Kind = Kind(op & opKind)
		in.Taken, in.Indirect = op&opTaken != 0, op&opIndirect != 0
		in.Call, in.Ret = op&opCall != 0, op&opRet != 0
		switch {
		case op&opALUArgs != 0:
			in.Addr, in.Kind = t.args[a], Kind(t.args[a+1])
			a += 2
		case in.Kind != ALU:
			in.Addr = t.args[a]
			a++
		}
		next = in.NextPC()
	}
	return out
}

// Cursor returns a cursor at the tape's first instruction.
func (t Tape) Cursor() Cursor { return Cursor{ops: t.ops, args: t.args} }

// Cursor walks a tape for the replay loops, which take no call per
// instruction to do it: every method inlines. It splits an
// instruction's decode in two so the only branch on its kind is the
// caller's own. Op decodes the op byte and PC of instruction i, and the
// caller then takes a Load's or Store's Addr with Addr, or a Branch's
// record with Branch, before the next Op. An ALU instruction has
// nothing more to take. Instructions are decoded in order: i is 0, then
// one more than the last call's. Kinds outside the four read as ALU,
// which is how they replay; Tape.Insts decodes them exactly.
//
// A Cursor is a plain value: a copy walks on independently, which is
// how the core hands the rest of an event to runahead and how an ESP
// slot keeps its place between stall windows.
type Cursor struct {
	ops  []byte
	args []uint64
	a    int    // next operand
	pc   uint64 // the next instruction's PC, unless its op carries one
}

// Op is an instruction's op byte, as a Cursor hands it out.
type Op uint8

// Kind returns the instruction's kind as it replays.
func (o Op) Kind() Kind { return Kind(o & opKind) }

// Len returns the number of instructions on the cursor's tape.
func (c *Cursor) Len() int { return len(c.ops) }

// Op decodes instruction i's op byte and PC.
func (c *Cursor) Op(i int) (Op, uint64) {
	op := c.ops[i]
	pc := c.pc
	if op&(opPC|opALUArgs) != 0 { // rare: a jump in PC, or ALU operands
		if op&opPC != 0 {
			pc = c.args[c.a]
			c.a++
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
	addr := c.args[c.a]
	c.a++
	return addr
}

// Branch takes a Branch's target, sending the next instruction's PC
// there when the branch is taken, and writes the branch's record, at
// pc, into in. The fields are stored one by one: a record built whole
// and copied in would be reloaded with loads wider than its flag
// stores, which stalls store forwarding on every branch.
func (c *Cursor) Branch(op Op, pc uint64, in *Inst) {
	in.PC, in.Addr, in.Kind = pc, c.target(op), Branch
	in.Taken, in.Indirect = op&opTaken != 0, op&opIndirect != 0
	in.Call, in.Ret = op&opCall != 0, op&opRet != 0
}

func (c *Cursor) target(op Op) uint64 {
	addr := c.args[c.a]
	c.a++
	if op&opTaken != 0 {
		c.pc = addr
	}
	return addr
}

// Skip takes whatever op's instruction has left after Op, so the
// cursor stands at the next instruction.
func (c *Cursor) Skip(op Op) {
	switch op.Kind() {
	case Branch:
		c.target(op)
	case Load, Store:
		c.a++
	}
}

// TapeBuilder concatenates instruction streams into one tape and hands
// back a view of each: the workload plane's single arena.
type TapeBuilder struct {
	t     Tape
	marks []tapeMark
}

// tapeMark locates one added stream by its first op and operand.
type tapeMark struct {
	op, arg int
	isNil   bool
}

// Grow reserves room for n more instructions, so a builder that knows
// its instruction count allocates the op array once and exactly. It
// also reserves an operand per instruction, more than a synthetic
// stream needs, so the operand array is not regrown as streams arrive;
// Finish trims it.
func (b *TapeBuilder) Grow(n int) {
	b.t.ops = append(make([]byte, 0, len(b.t.ops)+n), b.t.ops...)
	b.t.args = append(make([]uint64, 0, len(b.t.args)+n), b.t.args...)
}

// Add encodes insts as the next stream and returns its index among the
// views Finish returns.
func (b *TapeBuilder) Add(insts []Inst) int {
	b.marks = append(b.marks, tapeMark{op: len(b.t.ops), arg: len(b.t.args), isNil: insts == nil})
	b.t = b.t.appendStream(insts)
	return len(b.marks) - 1
}

// Finish returns the whole tape, its arrays sized exactly, and a view
// of each added stream in Add order: the zero Tape for a nil stream.
// The builder is empty afterwards.
func (b *TapeBuilder) Finish() (Tape, []Tape) {
	t := Tape{ops: exact(b.t.ops), args: exact(b.t.args)}
	views := make([]Tape, len(b.marks))
	for k, m := range b.marks {
		if m.isNil {
			continue
		}
		op, arg := len(t.ops), len(t.args)
		if k+1 < len(b.marks) {
			op, arg = b.marks[k+1].op, b.marks[k+1].arg
		}
		views[k] = Tape{ops: t.ops[m.op:op:op], args: t.args[m.arg:arg:arg]}
	}
	*b = TapeBuilder{}
	return t, views
}
