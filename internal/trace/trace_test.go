package trace

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{ALU: "alu", Load: "load", Store: "store", Branch: "branch", Kind(9): "unknown"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestNextPCSequential(t *testing.T) {
	in := Inst{PC: 0x1000, Kind: ALU}
	if got := in.NextPC(); got != 0x1004 {
		t.Fatalf("NextPC = %#x, want 0x1004", got)
	}
}

func TestNextPCTakenBranch(t *testing.T) {
	in := Inst{PC: 0x1000, Kind: Branch, Taken: true, Addr: 0x2000}
	if got := in.NextPC(); got != 0x2000 {
		t.Fatalf("NextPC = %#x, want 0x2000", got)
	}
}

func TestNextPCNotTakenBranch(t *testing.T) {
	in := Inst{PC: 0x1000, Kind: Branch, Taken: false, Addr: 0x2000}
	if got := in.NextPC(); got != 0x1004 {
		t.Fatalf("NextPC = %#x, want fall-through 0x1004", got)
	}
}

func TestLine(t *testing.T) {
	for _, c := range []struct{ addr, want uint64 }{
		{0, 0}, {63, 0}, {64, 64}, {0x12345, 0x12340}, {^uint64(0), ^uint64(63)},
	} {
		if got := Line(c.addr); got != c.want {
			t.Errorf("Line(%#x) = %#x, want %#x", c.addr, got, c.want)
		}
	}
}

func TestLineIdempotent(t *testing.T) {
	f := func(addr uint64) bool { return Line(Line(addr)) == Line(addr) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLineAligned(t *testing.T) {
	f := func(addr uint64) bool { return Line(addr)%LineBytes == 0 && Line(addr) <= addr }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// countStream yields n zero instructions.
type countStream struct{ n int }

func (s *countStream) Next() (Inst, bool) {
	if s.n == 0 {
		return Inst{}, false
	}
	s.n--
	return Inst{}, true
}

func TestRecordBounded(t *testing.T) {
	if got := Record(&countStream{n: 100}, 10); len(got) != 10 {
		t.Fatalf("Record(max=10) returned %d insts", len(got))
	}
}

func TestRecordUnbounded(t *testing.T) {
	if got := Record(&countStream{n: 57}, 0); len(got) != 57 {
		t.Fatalf("Record(max=0) returned %d insts, want 57", len(got))
	}
}

func randomEventTrace(r *rand.Rand, id int) EventTrace {
	n := 1 + r.Intn(200)
	et := EventTrace{
		Event: Event{ID: id, Handler: r.Intn(32), Seed: r.Uint64(), Len: n, Diverge: r.Intn(n+1) - 1},
	}
	// Half the generated traces carry timed metadata, so round-trip
	// tests and fuzz seeds cover both ESPT versions. Deadlines draw from
	// the full int64 range including past-due and the extremes.
	if r.Intn(2) == 0 {
		et.Event.Class = EventClass(r.Intn(NumEventClasses))
		et.Event.Prio = uint8(r.Intn(256))
		et.Event.Arrival = r.Int63n(1 << 40)
		switch r.Intn(4) {
		case 0:
			et.Event.Deadline = et.Event.Arrival + r.Int63n(1<<20) + 1
		case 1:
			et.Event.Deadline = -r.Int63n(1 << 40) // past-due / hostile
		case 2:
			et.Event.Deadline = math.MaxInt64 - r.Int63n(4)
		}
	}
	pc := uint64(0x40000000)
	for i := 0; i < n; i++ {
		in := Inst{PC: pc, Kind: Kind(r.Intn(4))}
		switch in.Kind {
		case Load, Store:
			in.Addr = r.Uint64() >> 16
		case Branch:
			in.Taken = r.Intn(2) == 0
			if in.Taken {
				in.Addr = pc + uint64(r.Intn(4096)) - 2048
				in.Indirect = r.Intn(8) == 0
				in.Call = !in.Indirect && r.Intn(4) == 0
				in.Ret = !in.Indirect && !in.Call && r.Intn(4) == 0
			}
		}
		et.Insts = append(et.Insts, in)
		pc = in.NextPC()
	}
	return et
}

func TestFileRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var events []EventTrace
	for i := 0; i < 20; i++ {
		events = append(events, randomEventTrace(r, i))
	}
	var buf bytes.Buffer
	if err := WriteFile(&buf, events); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(&buf)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(got) != len(events) {
		t.Fatalf("got %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i].Event != events[i].Event {
			t.Errorf("event %d metadata: got %+v want %+v", i, got[i].Event, events[i].Event)
		}
		if len(got[i].Insts) != len(events[i].Insts) {
			t.Fatalf("event %d: got %d insts want %d", i, len(got[i].Insts), len(events[i].Insts))
		}
		for j := range events[i].Insts {
			if got[i].Insts[j] != events[i].Insts[j] {
				t.Fatalf("event %d inst %d: got %+v want %+v", i, j, got[i].Insts[j], events[i].Insts[j])
			}
		}
	}
}

func TestFileRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		events := []EventTrace{randomEventTrace(r, 0)}
		var buf bytes.Buffer
		if err := WriteFile(&buf, events); err != nil {
			return false
		}
		got, err := ReadFile(&buf)
		if err != nil || len(got) != 1 || len(got[0].Insts) != len(events[0].Insts) {
			return false
		}
		for j := range events[0].Insts {
			if got[0].Insts[j] != events[0].Insts[j] {
				return false
			}
		}
		return got[0].Event == events[0].Event
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReadFileRejectsGarbage(t *testing.T) {
	for _, in := range [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("ESPT\xff"),         // bad version
		[]byte("ESPT\x01\xff\xff"), // truncated varint payload
		[]byte("ESP"),              // short magic
		{'E', 'S', 'P', 'T', 1, 1}, // promises one event, delivers none
	} {
		if _, err := ReadFile(bytes.NewReader(in)); err == nil {
			t.Errorf("ReadFile(%q) succeeded, want error", in)
		}
	}
}

func TestFileEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFile(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(&buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: got %v, %v", got, err)
	}
}

func TestReadFileNeverPanics(t *testing.T) {
	// The decoder must reject arbitrary garbage with an error, never a
	// panic or a runaway allocation.
	f := func(data []byte) bool {
		_, err := ReadFile(bytes.NewReader(data))
		_ = err // any outcome but a panic is fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReadFilePrefixCorruption(t *testing.T) {
	// Corrupting a valid file at any truncation point must error, not
	// panic.
	r := rand.New(rand.NewSource(7))
	events := []EventTrace{randomEventTrace(r, 0)}
	var buf bytes.Buffer
	if err := WriteFile(&buf, events); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n += 7 {
		if _, err := ReadFile(bytes.NewReader(full[:n])); err == nil && n < len(full)-1 {
			t.Fatalf("truncation at %d of %d accepted", n, len(full))
		}
	}
}
