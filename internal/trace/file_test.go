package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// validPayload returns one encoded event with a known instruction mix.
func validPayload(t *testing.T) []byte {
	t.Helper()
	r := rand.New(rand.NewSource(3))
	var buf bytes.Buffer
	if err := WriteFile(&buf, []EventTrace{randomEventTrace(r, 0)}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadFileBadVersionDistinct(t *testing.T) {
	in := []byte{'E', 'S', 'P', 'T', 9, 0}
	_, err := ReadFile(bytes.NewReader(in))
	if !errors.Is(err, ErrBadVersion) {
		t.Fatalf("want ErrBadVersion, got %v", err)
	}
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("ErrBadVersion must wrap ErrBadTrace, got %v", err)
	}
	if !strings.Contains(err.Error(), "unsupported version 9") {
		t.Fatalf("version error lacks the offending byte: %v", err)
	}
}

// v1Fixture is an ESPT version 1 file (no per-event scheduling block),
// as the version 1 encoder wrote it for v1FixtureEvents.
var v1Fixture = []byte{
	'E', 'S', 'P', 'T', 1, // magic, version 1
	1,    // one event
	3, 2, // id, handler
	0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, // seed
	1,                            // diverge varint (-1)
	5,                            // instruction count
	0x00, 0x80, 0xc0, 0x80, 0x04, // ALU, pc delta +0x401000
	0x01, 0x08, 0x90, 0x80, 0xfc, 0xff, 0x07, // load, +4, addr
	0x02, 0x08, 0x98, 0x80, 0xfc, 0xff, 0x07, // store, +4, addr
	0x17, 0x08, 0xe8, 0x3f, // taken call, +4, target delta
	0x0f, 0xe8, 0x3f, 0xdf, 0x3f, // taken indirect, pc delta, target delta
}

var v1FixtureEvents = []EventTrace{{
	Event: Event{ID: 3, Handler: 2, Seed: 0x0123456789abcdef, Len: 5, Diverge: -1},
	Insts: []Inst{
		{PC: 0x401000, Kind: ALU},
		{PC: 0x401004, Kind: Load, Addr: 0x7fff0010},
		{PC: 0x401008, Kind: Store, Addr: 0x7fff0018},
		{PC: 0x40100c, Kind: Branch, Taken: true, Call: true, Addr: 0x402000},
		{PC: 0x402000, Kind: Branch, Taken: true, Indirect: true, Addr: 0x401010},
	},
}}

// TestWriteFileVersionSelection: WriteFile emits version 2 whether or
// not any event carries scheduling metadata, and the decoder still
// reads a committed version 1 file.
func TestWriteFileVersionSelection(t *testing.T) {
	untimed := []EventTrace{{Event: Event{ID: 0, Len: 1, Diverge: -1}, Insts: []Inst{{PC: 0x40}}}}
	var buf bytes.Buffer
	if err := WriteFile(&buf, untimed); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[4]; got != 2 {
		t.Fatalf("untimed trace encoded as version %d, want 2", got)
	}
	timed := []EventTrace{{Event: Event{ID: 0, Len: 1, Diverge: -1, Deadline: 500}, Insts: []Inst{{PC: 0x40}}}}
	buf.Reset()
	if err := WriteFile(&buf, timed); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[4]; got != 2 {
		t.Fatalf("timed trace encoded as version %d, want 2", got)
	}
	got, err := ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Event.Deadline != 500 {
		t.Fatalf("deadline lost across round trip: %+v", got[0].Event)
	}

	got, err = ReadFile(bytes.NewReader(v1Fixture))
	if err != nil {
		t.Fatalf("version 1 fixture: %v", err)
	}
	if !reflect.DeepEqual(got, v1FixtureEvents) {
		t.Fatalf("version 1 fixture decoded to %+v, want %+v", got, v1FixtureEvents)
	}
}

// TestReadFileRejectsBadClass: a v2 payload whose class byte is outside
// the defined event classes is malformed, not silently clamped.
func TestReadFileRejectsBadClass(t *testing.T) {
	in := []byte{'E', 'S', 'P', 'T', 2, 1, // one event
		0, 0, // id, handler
		0, 0, 0, 0, 0, 0, 0, 0, // seed
		1,               // diverge varint (-1)
		NumEventClasses, // class out of range
	}
	_, err := ReadFile(bytes.NewReader(in))
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("want ErrBadTrace, got %v", err)
	}
	if !strings.Contains(err.Error(), "class") {
		t.Fatalf("error does not name the class section: %v", err)
	}
}

func TestReadFileTrailingGarbageDistinct(t *testing.T) {
	in := append(validPayload(t), 0xEE)
	_, err := ReadFile(bytes.NewReader(in))
	if !errors.Is(err, ErrTrailingGarbage) {
		t.Fatalf("want ErrTrailingGarbage, got %v", err)
	}
	if errors.Is(err, ErrBadVersion) {
		t.Fatal("trailing-garbage error must be distinct from the version error")
	}
	if !strings.Contains(err.Error(), "byte offset") {
		t.Fatalf("error lacks byte-offset context: %v", err)
	}
}

func TestReadFileErrorsCarryOffsets(t *testing.T) {
	full := validPayload(t)
	// Truncate at every section boundary of the fixed-layout prefix and
	// a spread of points inside the instruction payload.
	cuts := []int{0, 1, 3, 4, 5} // inside magic, after magic, version
	for n := 6; n < len(full)-1; n += 3 {
		cuts = append(cuts, n)
	}
	for _, n := range cuts {
		_, err := ReadFile(bytes.NewReader(full[:n]))
		if err == nil {
			t.Fatalf("truncation at byte %d of %d accepted", n, len(full))
		}
		if !errors.Is(err, ErrBadTrace) {
			t.Fatalf("truncation at %d: error does not wrap ErrBadTrace: %v", n, err)
		}
		if n >= 4 && !strings.Contains(err.Error(), "byte offset") {
			t.Fatalf("truncation at %d: error lacks byte-offset context: %v", n, err)
		}
	}
}

// header emits magic+version+event count, the common prefix for
// hand-built payloads.
func header(nEvents uint64) []byte {
	out := []byte{'E', 'S', 'P', 'T', fileVersion}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], nEvents)
	return append(out, buf[:n]...)
}

func TestReadFileLimitsEvents(t *testing.T) {
	in := header(100)
	_, err := ReadFileLimits(bytes.NewReader(in), Limits{MaxEvents: 10})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge for event-count bomb, got %v", err)
	}
}

func TestReadFileLimitsInsts(t *testing.T) {
	// One event declaring 2^40 instructions in a handful of bytes.
	in := header(1)
	var buf [binary.MaxVarintLen64]byte
	in = append(in, 0, 0)                 // id, handler
	in = append(in, make([]byte, 8)...)   // seed
	in = append(in, 0)                    // diverge = 0
	n := binary.PutUvarint(buf[:], 1<<40) // inst count
	in = append(in, buf[:n]...)
	_, err := ReadFileLimits(bytes.NewReader(in), Limits{MaxInsts: 1 << 20})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge for instruction-count bomb, got %v", err)
	}
}

func TestReadFileLimitsBytes(t *testing.T) {
	full := validPayload(t)
	_, err := ReadFileLimits(bytes.NewReader(full), Limits{MaxTraceBytes: 8})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge under a byte budget, got %v", err)
	}
	// The same payload decodes cleanly when the budget is sufficient.
	if _, err := ReadFileLimits(bytes.NewReader(full), Limits{MaxTraceBytes: int64(len(full))}); err != nil {
		t.Fatalf("payload within budget rejected: %v", err)
	}
}

func TestReadFileDeclaredCountBombDoesNotPreallocate(t *testing.T) {
	// A 12-byte input declaring 2^25 events must fail on EOF without
	// first allocating 2^25 EventTrace headers (~3 GiB).
	in := header(1 << 25)
	_, err := ReadFile(bytes.NewReader(in))
	if err == nil {
		t.Fatal("header-only bomb accepted")
	}
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("want ErrBadTrace, got %v", err)
	}
}
