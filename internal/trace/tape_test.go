package trace

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// instsFromBytes turns fuzz input into an instruction stream. The first
// byte picks a nil or an empty non-nil start; then each instruction
// takes a kind byte (any value, so kinds past Branch occur) and a flag
// byte whose low four bits are Taken, Indirect, Call and Ret, bit 4
// asks for an explicit PC (otherwise the PC continues from the previous
// instruction's NextPC) and bit 5 for an Addr, each read as the next
// eight bytes.
func instsFromBytes(data []byte) []Inst {
	if len(data) == 0 {
		return nil
	}
	var out []Inst
	if data[0]&1 == 0 {
		out = []Inst{}
	}
	data = data[1:]
	var next uint64
	for len(data) >= 2 {
		k, fl := data[0], data[1]
		data = data[2:]
		in := Inst{PC: next, Kind: Kind(k),
			Taken: fl&1 != 0, Indirect: fl&2 != 0, Call: fl&4 != 0, Ret: fl&8 != 0}
		if fl&16 != 0 && len(data) >= 8 {
			in.PC = binary.LittleEndian.Uint64(data)
			data = data[8:]
		}
		if fl&32 != 0 && len(data) >= 8 {
			in.Addr = binary.LittleEndian.Uint64(data)
			data = data[8:]
		}
		out = append(out, in)
		next = in.NextPC()
	}
	return out
}

func tapeSeed(insts ...Inst) []byte {
	data := []byte{0}
	for _, in := range insts {
		fl := byte(16 | 32)
		for bit, set := range []bool{in.Taken, in.Indirect, in.Call, in.Ret} {
			if set {
				fl |= 1 << bit
			}
		}
		data = append(data, byte(in.Kind), fl)
		data = binary.LittleEndian.AppendUint64(data, in.PC)
		data = binary.LittleEndian.AppendUint64(data, in.Addr)
	}
	return data
}

// randomSeed is a fuzz seed of n instructions of every kind, flags
// included, with uniformly random 64-bit PCs and Addrs: their windows
// fill the operand table, and most operands then escape.
func randomSeed(n int) []byte {
	r := rand.New(rand.NewSource(int64(n)))
	insts := make([]Inst, n)
	for i := range insts {
		insts[i] = Inst{PC: r.Uint64(), Addr: r.Uint64(), Kind: Kind(r.Intn(6)),
			Taken: r.Intn(2) == 0, Indirect: r.Intn(4) == 0, Call: r.Intn(4) == 0, Ret: r.Intn(4) == 0}
	}
	return tapeSeed(insts...)
}

// FuzzTapeRoundTrip: any instruction stream, encoded to a tape and
// decoded again, comes back identical (nil and empty streams included),
// in exactly sized arrays; a Cursor walks it as the replay loops see
// it, and Skip keeps it in step; and a builder's views of several
// streams share one operand table and decode to each of them. The
// seeds reach every operand form: windowed and escaped Addrs, PCs past
// 32 bits, and ALU instructions with an Addr or an unknown kind.
func FuzzTapeRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1})
	f.Add(tapeSeed(
		Inst{PC: 0x4000_0000, Kind: ALU},
		Inst{PC: 0x4000_0004, Kind: Load, Addr: 0x2_0000_0040},
		Inst{PC: 0x4000_0008, Kind: Branch, Taken: true, Call: true, Addr: 0x1000_0400},
		Inst{PC: 0x1000_0400, Kind: Store, Addr: 8},
		Inst{PC: 0x1000_0404, Kind: Branch, Addr: 0x1000_0800},
	))
	f.Add(tapeSeed(
		Inst{PC: 0, Kind: ALU, Addr: 7, Taken: true, Ret: true},
		Inst{PC: 0x9000, Kind: 200, Addr: 1},
		Inst{PC: 0x10, Kind: Load, Taken: true, Indirect: true, Call: true},
		Inst{PC: 0x14, Kind: 4},
	))
	// Operands in 20 windows, one per instruction, then back in the
	// first: the last five of the first pass escape, the second pass
	// finds its windows in the table.
	var spread []Inst
	for pass := 0; pass < 2; pass++ {
		for k := uint64(0); k < 20; k++ {
			kind := []Kind{Load, Store, Branch, ALU}[k%4]
			spread = append(spread, Inst{PC: 0x4000_0000 + 4*uint64(len(spread)),
				Kind: kind, Addr: k<<winShift | (0x0fff_fffc - 64*k)})
		}
	}
	f.Add(tapeSeed(spread...))
	f.Add(randomSeed(64))
	// PCs at and past 2^32, taken branches among them, and ALU
	// instructions with operands.
	f.Add(tapeSeed(
		Inst{PC: 1 << 32, Kind: ALU, Addr: 0xdead_beef},
		Inst{PC: 1<<32 + 4, Kind: Branch, Taken: true, Addr: 0xffff_ffff_ffff_fff0},
		Inst{PC: 0xffff_ffff_ffff_fff0, Kind: Load, Addr: 1 << 63},
		Inst{PC: 0xffff_ffff_ffff_fff4, Kind: 9, Addr: 0},
		Inst{PC: 0xffff_ffff_ffff_fff8, Kind: Store, Addr: 0xffff_ffff},
		Inst{PC: 0x1_0000_0000_0000, Kind: ALU, Addr: 0x1_0000_0000_0000},
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		insts := instsFromBytes(data)
		tape := EncodeTape(insts)
		if got := tape.Insts(); !reflect.DeepEqual(got, insts) {
			t.Fatalf("round trip changed the stream\n got: %+v\nwant: %+v", got, insts)
		}
		if tape.Len() != len(insts) || !exactlySized(tape) {
			t.Fatalf("tape of %d insts has ops %d/%d, words %d/%d (len/cap)",
				len(insts), len(tape.ops), cap(tape.ops), len(tape.words), cap(tape.words))
		}

		if got, want := replayView(tape), wantReplay(insts); !reflect.DeepEqual(got, want) {
			t.Fatalf("cursor walk differs from the stream\n got: %+v\nwant: %+v", got, want)
		}
		c := tape.Cursor()
		for i := range insts {
			op, pc := c.Op(i)
			if pc != insts[i].PC {
				t.Fatalf("skipping walk: inst %d at PC %#x, want %#x", i, pc, insts[i].PC)
			}
			c.Skip(op)
		}

		var b TapeBuilder
		streams := [][]Inst{insts, nil, insts[:len(insts)/2], {}, insts}
		for k, s := range streams {
			if got := b.Add(s); got != k {
				t.Fatalf("Add returned index %d, want %d", got, k)
			}
		}
		arena, views := b.Finish()
		if !exactlySized(arena) {
			t.Fatal("builder arena not exactly sized")
		}
		for k, s := range streams {
			if got := views[k].Insts(); !reflect.DeepEqual(got, s) {
				t.Fatalf("view %d decodes to %+v, want %+v", k, got, s)
			}
			if s != nil && views[k].tab != arena.tab {
				t.Fatalf("view %d has its own operand table", k)
			}
		}
		// The views tile the arena, so it walks as their concatenation.
		var all []Inst
		for _, s := range streams {
			all = append(all, s...)
		}
		if got := arena.Insts(); len(got) != len(all) || (len(all) > 0 && !reflect.DeepEqual(got, all)) {
			t.Fatalf("arena decodes to %d insts, want %d", len(got), len(all))
		}
	})
}

// exactlySized reports whether t's arrays, its escapes included, are
// sized exactly.
func exactlySized(t Tape) bool {
	return cap(t.ops) == len(t.ops) && cap(t.words) == len(t.words) &&
		(t.tab == nil || cap(t.tab.esc) == len(t.tab.esc))
}

// replayView walks t with a Cursor the way the replay loops do and
// returns what they see: every PC, each Load's and Store's kind and
// Addr, and each Branch's whole record. Any other instruction reads as
// a bare ALU.
func replayView(t Tape) []Inst {
	var out []Inst
	c := t.Cursor()
	for i := 0; i < c.Len(); i++ {
		op, pc := c.Op(i)
		in := Inst{PC: pc}
		switch op.Kind() {
		case Branch:
			op.SetBranch(&in, pc, c.Target(op))
		case Load, Store:
			in.Kind, in.Addr = op.Kind(), c.Addr()
		}
		out = append(out, in)
	}
	return out
}

// wantReplay is insts as replayView should see them.
func wantReplay(insts []Inst) []Inst {
	var out []Inst
	for _, in := range insts {
		switch in.Kind {
		case Branch:
		case Load, Store:
			in = Inst{PC: in.PC, Kind: in.Kind, Addr: in.Addr}
		default:
			in = Inst{PC: in.PC}
		}
		out = append(out, in)
	}
	return out
}

// TestTapeCursorForks: a copied cursor walks on independently.
func TestTapeCursorForks(t *testing.T) {
	insts := []Inst{
		{PC: 0x100, Kind: ALU},
		{PC: 0x104, Kind: Branch, Taken: true, Addr: 0x200},
		{PC: 0x200, Kind: Load, Addr: 0x8000},
		{PC: 0x300, Kind: Store, Addr: 0x9000},
	}
	c := EncodeTape(insts).Cursor()
	for i := 0; i < 2; i++ {
		op, _ := c.Op(i)
		c.Skip(op)
	}
	fork := c
	for i := 2; i < len(insts); i++ {
		op, pc := fork.Op(i)
		if in := (Inst{PC: pc, Kind: op.Kind(), Addr: fork.Addr()}); in != insts[i] {
			t.Fatalf("fork decoded %+v, want %+v", in, insts[i])
		}
	}
	if _, pc := c.Op(2); pc != insts[2].PC || c.Addr() != insts[2].Addr {
		t.Fatal("original cursor moved with its fork")
	}
}

// TestTapeSuiteShapeSize: a stream shaped like the synthetic suite's,
// one PC discontinuity at its start, no ALU operands and every operand
// in a few windows, costs one op byte per instruction plus a four-byte
// word per memory op and branch, two words for the first PC, and its
// operand table once.
func TestTapeSuiteShapeSize(t *testing.T) {
	var insts []Inst
	pc := uint64(0x4000_0000)
	for j := 0; j < 1000; j++ {
		in := Inst{PC: pc, Kind: ALU}
		switch j % 10 {
		case 3, 6:
			in.Kind, in.Addr = Load, 0x2_0000_0000+uint64(j)*8
		case 9:
			in.Kind, in.Taken, in.Addr = Branch, j%20 == 9, pc+64
		}
		insts = append(insts, in)
		pc = in.NextPC()
	}
	if got, want := EncodeTape(insts).Bytes(), int64(1000+4*300+8)+tableBytes; got != want {
		t.Fatalf("tape is %d bytes, want %d", got, want)
	}
}

// TestTapeEscapes: once 15 windows are taken, an operand in a new
// window escapes and costs 12 bytes, its word and its side-array entry,
// while operands in the table's windows still take one word; the
// escapes decode exactly, through a cursor too.
func TestTapeEscapes(t *testing.T) {
	var insts []Inst
	for k := uint64(0); k < 40; k++ {
		insts = append(insts, Inst{PC: 0x1000 + 4*k, Kind: Load, Addr: k<<winShift + 8*k})
	}
	for k := uint64(0); k < 15; k++ {
		insts = append(insts, Inst{PC: 0x1000 + 4*(40+k), Kind: Store, Addr: k<<winShift + 4})
	}
	tape := EncodeTape(insts)
	if got, want := len(tape.tab.esc), 25; got != want {
		t.Fatalf("%d escaped operands, want %d", got, want)
	}
	if got, want := tape.Bytes(), int64(55+4*55+8)+tableBytes+8*25; got != want {
		t.Fatalf("tape is %d bytes, want %d", got, want)
	}
	if got := tape.Insts(); !reflect.DeepEqual(got, insts) {
		t.Fatalf("round trip changed the stream\n got: %+v\nwant: %+v", got, insts)
	}
	if got, want := replayView(tape), wantReplay(insts); !reflect.DeepEqual(got, want) {
		t.Fatalf("cursor walk differs from the stream\n got: %+v\nwant: %+v", got, want)
	}
}
