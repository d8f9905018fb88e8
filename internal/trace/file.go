package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// File format (little-endian, varint-compressed):
//
//	magic "ESPT" | version u8 | event count uvarint
//	per event: id uvarint | handler uvarint | seed u64 | diverge varint |
//	           class u8 | prio u8 | arrival varint | deadline varint |
//	           inst count uvarint | insts...
//	per inst:  kind u8 (bit0-1 kind, bit2 taken, bit3 indirect,
//	           bit4 call, bit5 ret) |
//	           pc delta varint | addr uvarint (mem only) |
//	           target delta varint (taken branches only)
//
// PC and target are delta-encoded against the previous instruction's PC,
// which keeps sequential code to ~2 bytes per instruction.
//
// This is version 2, the only version WriteFile emits. ReadFile also
// decodes version 1, which lacks the per-event scheduling block
// (class/prio/arrival/deadline).

var fileMagic = [4]byte{'E', 'S', 'P', 'T'}

const (
	fileVersion      = 1 // no scheduling metadata; decoded, never written
	fileVersionTimed = 2 // what WriteFile emits
)

// Decode errors. Every error returned by ReadFile wraps ErrBadTrace, so
// callers can match the whole family with errors.Is(err, ErrBadTrace);
// the more specific sentinels below additionally identify the distinct
// failure modes that tooling wants to tell apart.
var (
	// ErrBadTrace reports a malformed trace file.
	ErrBadTrace = errors.New("trace: malformed trace file")
	// ErrBadVersion reports a well-formed magic followed by a version
	// byte this decoder does not understand.
	ErrBadVersion = fmt.Errorf("%w: unsupported version", ErrBadTrace)
	// ErrTrailingGarbage reports extra bytes after the last encoded
	// event: the file is not a pure ESPT payload.
	ErrTrailingGarbage = fmt.Errorf("%w: trailing garbage after last event", ErrBadTrace)
	// ErrTooLarge reports a trace that exceeds the decoder's Limits
	// before it is fully decoded (a decode bomb, or limits set too low).
	ErrTooLarge = fmt.Errorf("%w: exceeds decode limits", ErrBadTrace)
)

// Limits bounds what the decoder will materialize from an untrusted
// ESPT payload. A corrupt or hostile file can declare arbitrarily large
// event and instruction counts in a handful of bytes; the limits cap the
// decoded size so ReadFile fails with ErrTooLarge instead of exhausting
// memory. The zero value of any field means "no limit on that axis".
type Limits struct {
	// MaxTraceBytes caps the encoded input size consumed from the
	// reader, in bytes.
	MaxTraceBytes int64
	// MaxEvents caps the number of events in the file.
	MaxEvents uint64
	// MaxInsts caps the total instruction count across all events
	// (each decoded Inst occupies 24 bytes in memory).
	MaxInsts uint64
}

// DefaultLimits returns the limits ReadFile applies: 1 GiB of encoded
// input, 64 Mi events and 256 Mi total instructions (~6 GiB decoded, an
// order of magnitude above the largest session cmd/tracegen emits).
func DefaultLimits() Limits {
	return Limits{
		MaxTraceBytes: 1 << 30,
		MaxEvents:     1 << 26,
		MaxInsts:      1 << 28,
	}
}

// EventTrace is a fully materialized event: its metadata plus every
// dynamic instruction it retires.
type EventTrace struct {
	Event Event
	Insts []Inst
}

// WriteFile encodes events to w in the ESPT binary format, version 2.
func WriteFile(w io.Writer, events []EventTrace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(fileMagic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(fileVersionTimed); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(events))); err != nil {
		return err
	}
	for _, et := range events {
		ev := et.Event
		if err := putUvarint(uint64(ev.ID)); err != nil {
			return err
		}
		if err := putUvarint(uint64(ev.Handler)); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(buf[:8], ev.Seed)
		if _, err := bw.Write(buf[:8]); err != nil {
			return err
		}
		if err := putVarint(int64(ev.Diverge)); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(ev.Class)); err != nil {
			return err
		}
		if err := bw.WriteByte(ev.Prio); err != nil {
			return err
		}
		if err := putVarint(ev.Arrival); err != nil {
			return err
		}
		if err := putVarint(ev.Deadline); err != nil {
			return err
		}
		if err := putUvarint(uint64(len(et.Insts))); err != nil {
			return err
		}
		prevPC := uint64(0)
		for _, in := range et.Insts {
			hdr := byte(in.Kind) & 0x3
			if in.Taken {
				hdr |= 1 << 2
			}
			if in.Indirect {
				hdr |= 1 << 3
			}
			if in.Call {
				hdr |= 1 << 4
			}
			if in.Ret {
				hdr |= 1 << 5
			}
			if err := bw.WriteByte(hdr); err != nil {
				return err
			}
			if err := putVarint(int64(in.PC) - int64(prevPC)); err != nil {
				return err
			}
			prevPC = in.PC
			if in.Kind == Load || in.Kind == Store {
				if err := putUvarint(in.Addr); err != nil {
					return err
				}
			}
			if in.Kind == Branch && in.Taken {
				if err := putVarint(int64(in.Addr) - int64(in.PC)); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// traceReader reads bytes from an ESPT payload while tracking the byte
// offset (for error context) and enforcing Limits.MaxTraceBytes. It
// implements io.ByteReader so binary.ReadUvarint/ReadVarint can consume
// it directly.
type traceReader struct {
	br  *bufio.Reader
	off int64
	max int64 // 0 = unlimited
}

// ReadByte implements io.ByteReader.
func (r *traceReader) ReadByte() (byte, error) {
	if r.max > 0 && r.off >= r.max {
		return 0, fmt.Errorf("%w: input larger than %d bytes", ErrTooLarge, r.max)
	}
	b, err := r.br.ReadByte()
	if err != nil {
		return 0, err
	}
	r.off++
	return b, nil
}

func (r *traceReader) readFull(p []byte) error {
	for i := range p {
		b, err := r.ReadByte()
		if err != nil {
			//esp:exempt bufio.Reader.ReadByte returns unwrapped io.EOF; this is the decoder's per-byte hot path
			if err == io.EOF && i > 0 {
				return io.ErrUnexpectedEOF
			}
			return err
		}
		p[i] = b
	}
	return nil
}

// fail wraps err with the decode context ReadFile promises: the section
// being decoded and the byte offset the decoder had reached.
func (r *traceReader) fail(section string, err error) error {
	if errors.Is(err, ErrBadTrace) {
		return fmt.Errorf("%w (decoding %s at byte offset %d)", err, section, r.off)
	}
	return fmt.Errorf("%w: %v (decoding %s at byte offset %d)", ErrBadTrace, err, section, r.off)
}

// preallocCap bounds the initial capacity of a slice whose length n was
// declared by untrusted input: allocate at most cap entries up front and
// let append grow the rest, so a lying header cannot force a huge
// allocation before the decoder hits EOF.
func preallocCap(n, cap uint64) int {
	if n > cap {
		return int(cap)
	}
	return int(n)
}

// ReadFile decodes an ESPT trace previously written by WriteFile,
// applying DefaultLimits. Use ReadFileLimits to set explicit bounds.
func ReadFile(r io.Reader) ([]EventTrace, error) {
	return ReadFileLimits(r, DefaultLimits())
}

// ReadFileLimits decodes an ESPT trace under the given limits. The input
// is untrusted: any syntactic corruption, truncation, trailing garbage
// or limit violation yields an error wrapping ErrBadTrace (never a panic
// or an unbounded allocation), with the byte offset of the failure.
func ReadFileLimits(r io.Reader, lim Limits) ([]EventTrace, error) {
	tr := &traceReader{br: bufio.NewReader(r), max: lim.MaxTraceBytes}
	var magic [4]byte
	if err := tr.readFull(magic[:]); err != nil {
		return nil, tr.fail("magic", err)
	}
	if magic != fileMagic {
		return nil, tr.fail("magic", fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic[:]))
	}
	ver, err := tr.ReadByte()
	if err != nil {
		return nil, tr.fail("version", err)
	}
	if ver != fileVersion && ver != fileVersionTimed {
		return nil, tr.fail("version", fmt.Errorf("%w %d (decoder supports %d and %d)",
			ErrBadVersion, ver, fileVersion, fileVersionTimed))
	}
	nEvents, err := binary.ReadUvarint(tr)
	if err != nil {
		return nil, tr.fail("event count", err)
	}
	if lim.MaxEvents > 0 && nEvents > lim.MaxEvents {
		return nil, tr.fail("event count",
			fmt.Errorf("%w: %d events (limit %d)", ErrTooLarge, nEvents, lim.MaxEvents))
	}
	var totalInsts uint64
	events := make([]EventTrace, 0, preallocCap(nEvents, 1024))
	for e := uint64(0); e < nEvents; e++ {
		section := fmt.Sprintf("event %d", e)
		var et EventTrace
		id, err := binary.ReadUvarint(tr)
		if err != nil {
			return nil, tr.fail(section+" id", err)
		}
		handler, err := binary.ReadUvarint(tr)
		if err != nil {
			return nil, tr.fail(section+" handler", err)
		}
		var seedBuf [8]byte
		if err := tr.readFull(seedBuf[:]); err != nil {
			return nil, tr.fail(section+" seed", err)
		}
		diverge, err := binary.ReadVarint(tr)
		if err != nil {
			return nil, tr.fail(section+" diverge", err)
		}
		var class EventClass
		var prio uint8
		var arrival, deadline int64
		if ver == fileVersionTimed {
			cb, err := tr.ReadByte()
			if err != nil {
				return nil, tr.fail(section+" class", err)
			}
			if cb >= NumEventClasses {
				return nil, tr.fail(section+" class",
					fmt.Errorf("%w: event class %d out of range", ErrBadTrace, cb))
			}
			class = EventClass(cb)
			if prio, err = tr.ReadByte(); err != nil {
				return nil, tr.fail(section+" prio", err)
			}
			if arrival, err = binary.ReadVarint(tr); err != nil {
				return nil, tr.fail(section+" arrival", err)
			}
			if deadline, err = binary.ReadVarint(tr); err != nil {
				return nil, tr.fail(section+" deadline", err)
			}
		}
		nInsts, err := binary.ReadUvarint(tr)
		if err != nil {
			return nil, tr.fail(section+" instruction count", err)
		}
		totalInsts += nInsts
		if lim.MaxInsts > 0 && (totalInsts > lim.MaxInsts || nInsts > lim.MaxInsts) {
			return nil, tr.fail(section+" instruction count",
				fmt.Errorf("%w: %d total instructions (limit %d)", ErrTooLarge, totalInsts, lim.MaxInsts))
		}
		et.Event = Event{
			ID:       int(id),
			Handler:  int(handler),
			Seed:     binary.LittleEndian.Uint64(seedBuf[:]),
			Len:      int(nInsts),
			Diverge:  int(diverge),
			Class:    class,
			Prio:     prio,
			Arrival:  arrival,
			Deadline: deadline,
		}
		et.Insts = make([]Inst, 0, preallocCap(nInsts, 4096))
		prevPC := uint64(0)
		for k := uint64(0); k < nInsts; k++ {
			hdr, err := tr.ReadByte()
			if err != nil {
				return nil, tr.fail(fmt.Sprintf("event %d inst %d", e, k), err)
			}
			in := Inst{
				Kind:     Kind(hdr & 0x3),
				Taken:    hdr&(1<<2) != 0,
				Indirect: hdr&(1<<3) != 0,
				Call:     hdr&(1<<4) != 0,
				Ret:      hdr&(1<<5) != 0,
			}
			dpc, err := binary.ReadVarint(tr)
			if err != nil {
				return nil, tr.fail(fmt.Sprintf("event %d inst %d pc", e, k), err)
			}
			in.PC = uint64(int64(prevPC) + dpc)
			prevPC = in.PC
			if in.Kind == Load || in.Kind == Store {
				if in.Addr, err = binary.ReadUvarint(tr); err != nil {
					return nil, tr.fail(fmt.Sprintf("event %d inst %d addr", e, k), err)
				}
			}
			if in.Kind == Branch && in.Taken {
				dt, err := binary.ReadVarint(tr)
				if err != nil {
					return nil, tr.fail(fmt.Sprintf("event %d inst %d target", e, k), err)
				}
				in.Addr = uint64(int64(in.PC) + dt)
			}
			et.Insts = append(et.Insts, in)
		}
		events = append(events, et)
	}
	// Probe past the last event on the raw reader (not counted against
	// MaxTraceBytes) so a payload that ends exactly at the byte limit is
	// still verified to end cleanly.
	if _, err := tr.br.ReadByte(); err == nil {
		return nil, tr.fail("end of file", ErrTrailingGarbage)
		//esp:exempt bufio.Reader.ReadByte returns unwrapped io.EOF; identity is the intended probe
	} else if err != io.EOF {
		return nil, tr.fail("end of file", err)
	}
	return events, nil
}
