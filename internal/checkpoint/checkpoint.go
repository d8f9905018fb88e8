// Package checkpoint implements the crash-safe journal espd uses to
// make sweeps resumable: an append-only file of length+CRC framed
// records behind a versioned header, fsync'd on every append, and
// torn-write tolerant on replay — a crash mid-append (or a corrupted
// tail) costs exactly the records after the last intact one, never the
// file.
//
// Layout:
//
//	magic   [8]byte  "ESPJRNL1"
//	header  frame    (opaque caller bytes, e.g. a sweep descriptor)
//	record  frame*   (opaque caller bytes, appended over time)
//
// where every frame is:
//
//	length  uint32 LE   payload byte count
//	crc32   uint32 LE   IEEE CRC of the payload
//	payload [length]byte
//
// Replay reads frames until EOF or the first damaged frame (short
// header, short payload, CRC mismatch, or an implausible length);
// everything from the damaged frame on is truncated away before
// appending resumes, so the journal is always a valid prefix of what
// was written.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// magic identifies a journal file and pins the format version; bumping
// the format means a new magic, and old files fail Open loudly instead
// of replaying garbage.
var magic = [8]byte{'E', 'S', 'P', 'J', 'R', 'N', 'L', '1'}

// maxRecordBytes bounds a frame's declared length on replay. A torn or
// corrupted length field must not make replay allocate gigabytes; any
// frame claiming more than this is treated as tail damage.
const maxRecordBytes = 16 << 20

// ErrCorrupt reports a journal whose magic or header frame is damaged —
// unlike a torn tail, there is nothing safe to resume from.
//
//esp:exempt local persistence error, matched with errors.Is at espd's resume and /journalz sites; never reaches fault.Classify as a cell outcome
var ErrCorrupt = errors.New("checkpoint: journal corrupt")

// ErrClosed reports an Append against a journal that was already
// closed — a drained daemon must never write past its own shutdown.
//
//esp:exempt daemon-internal lifecycle error; never crosses the sweep wire, so it carries no ErrorKind
var ErrClosed = errors.New("checkpoint: journal closed")

// Meta is the typed header of an espd sweep journal: which sweep (and,
// for a coordinator-sharded grid, which shard) the records belong to,
// and a digest pinning every request knob that shapes results. A
// journal whose digest does not match the work being resumed must not
// be replayed — it would splice cells from a different grid.
type Meta struct {
	Version int    `json:"version"`
	SweepID string `json:"sweep_id"`
	Shard   string `json:"shard,omitempty"`
	Digest  string `json:"digest"`
}

// Encode renders the header frame payload.
func (m Meta) Encode() []byte {
	b, _ := json.Marshal(m) // no unmarshalable fields
	return b
}

// DecodeMeta parses a header frame payload.
func DecodeMeta(raw []byte) (Meta, error) {
	var m Meta
	if err := json.Unmarshal(raw, &m); err != nil {
		return Meta{}, fmt.Errorf("checkpoint: decoding header: %w", err)
	}
	return m, nil
}

// Journal is an open, append-ready checkpoint file. Not safe for
// concurrent use; callers serialize Append (espd holds one mutex per
// sweep journal).
type Journal struct {
	f      *os.File
	closed bool
}

// Open opens the journal at path, creating it (with header) if absent.
// On an existing file it verifies the magic, replays the header and
// every intact record, truncates any torn tail, and positions for
// append. The stored header is returned so the caller can check it
// still describes the same work before trusting the records.
func Open(path string, header []byte) (j *Journal, storedHeader []byte, records [][]byte, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("checkpoint: open %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()

	info, err := f.Stat()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("checkpoint: stat %s: %w", path, err)
	}
	if info.Size() == 0 {
		// Fresh journal: magic + header frame, durably.
		if _, err = f.Write(magic[:]); err != nil {
			return nil, nil, nil, fmt.Errorf("checkpoint: write magic: %w", err)
		}
		if err = writeFrame(f, header); err != nil {
			return nil, nil, nil, err
		}
		if err = f.Sync(); err != nil {
			return nil, nil, nil, fmt.Errorf("checkpoint: sync %s: %w", path, err)
		}
		syncDir(path)
		return &Journal{f: f}, header, nil, nil
	}

	var gotMagic [8]byte
	if _, err = io.ReadFull(f, gotMagic[:]); err != nil || gotMagic != magic {
		return nil, nil, nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, path)
	}
	offset := int64(len(magic))
	storedHeader, n, ok, err := readFrame(f)
	if err != nil {
		return nil, nil, nil, err
	}
	if !ok || storedHeader == nil {
		return nil, nil, nil, fmt.Errorf("%w: %s: damaged header frame", ErrCorrupt, path)
	}
	offset += n

	for {
		rec, n, ok, rerr := readFrame(f)
		if rerr != nil {
			return nil, nil, nil, rerr
		}
		if !ok {
			break // torn tail: keep the intact prefix
		}
		if rec == nil {
			break // clean EOF
		}
		records = append(records, rec)
		offset += n
	}
	// Drop whatever follows the last intact record (no-op when clean).
	if err = f.Truncate(offset); err != nil {
		return nil, nil, nil, fmt.Errorf("checkpoint: truncate torn tail of %s: %w", path, err)
	}
	if _, err = f.Seek(offset, io.SeekStart); err != nil {
		return nil, nil, nil, fmt.Errorf("checkpoint: seek %s: %w", path, err)
	}
	return &Journal{f: f}, storedHeader, records, nil
}

// Append writes one record frame and fsyncs, so a record that Append
// reported written survives a crash.
func (j *Journal) Append(rec []byte) error {
	if j.closed {
		return ErrClosed
	}
	if err := writeFrame(j.f, rec); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: sync: %w", err)
	}
	return nil
}

// Close fsyncs and releases the file, and guards against further
// appends. Every Append already synced its own frame, so the final
// sync is belt-and-suspenders for a drained (not crashed) shutdown: a
// journal a daemon closed on its way out is bit-complete on disk, with
// no torn tail for the successor to truncate. Idempotent.
func (j *Journal) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	return nil
}

// Peek replays a journal read-only: the decoded header, every intact
// record, and whether a torn tail was found (reported, not truncated —
// Peek must not mutate a file another process may still own). It is
// the view espd's GET /journalz serves: which cells of a sweep are
// durable, and the header they were journaled under.
func Peek(path string) (meta Meta, records [][]byte, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, nil, false, fmt.Errorf("checkpoint: peek %s: %w", path, err)
	}
	defer f.Close()

	var gotMagic [8]byte
	if _, rerr := io.ReadFull(f, gotMagic[:]); rerr != nil || gotMagic != magic {
		return Meta{}, nil, false, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, path)
	}
	rawHeader, _, ok, err := readFrame(f)
	if err != nil {
		return Meta{}, nil, false, err
	}
	if !ok || rawHeader == nil {
		return Meta{}, nil, false, fmt.Errorf("%w: %s: damaged header frame", ErrCorrupt, path)
	}
	meta, err = DecodeMeta(rawHeader)
	if err != nil {
		return Meta{}, nil, false, fmt.Errorf("%w: %s: unreadable header", ErrCorrupt, path)
	}
	for {
		rec, _, ok, rerr := readFrame(f)
		if rerr != nil {
			return Meta{}, nil, false, rerr
		}
		if !ok {
			return meta, records, true, nil // torn tail
		}
		if rec == nil {
			return meta, records, false, nil // clean EOF
		}
		records = append(records, rec)
	}
}

// writeFrame emits length + CRC + payload.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("checkpoint: write frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("checkpoint: write frame payload: %w", err)
	}
	return nil
}

// readFrame reads one frame. It returns (nil, 0, true, nil) translated
// as clean EOF via rec == nil, ok == true; a short or corrupt frame is
// (nil, 0, false, nil) — tail damage, not an error; I/O failures are
// errors.
func readFrame(r io.Reader) (rec []byte, size int64, ok bool, err error) {
	var hdr [8]byte
	n, rerr := io.ReadFull(r, hdr[:])
	//esp:exempt io.ReadFull documents it returns unwrapped io.EOF/ErrUnexpectedEOF; identity is the fast path here
	if rerr == io.EOF && n == 0 {
		return nil, 0, true, nil // clean end
	}
	//esp:exempt io.ReadFull documents it returns unwrapped io.EOF/ErrUnexpectedEOF; identity is the fast path here
	if rerr == io.ErrUnexpectedEOF || (rerr == io.EOF && n > 0) {
		return nil, 0, false, nil // torn frame header
	}
	if rerr != nil {
		return nil, 0, false, fmt.Errorf("checkpoint: read frame header: %w", rerr)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length > maxRecordBytes {
		return nil, 0, false, nil // implausible length: tail damage
	}
	payload := make([]byte, length)
	if _, rerr := io.ReadFull(r, payload); rerr != nil {
		//esp:exempt io.ReadFull documents it returns unwrapped io.EOF/ErrUnexpectedEOF; identity is the fast path here
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			return nil, 0, false, nil // torn payload
		}
		return nil, 0, false, fmt.Errorf("checkpoint: read frame payload: %w", rerr)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, false, nil // bit rot or torn overwrite
	}
	return payload, int64(len(hdr)) + int64(length), true, nil
}

// syncDir fsyncs the journal's directory so a freshly created file's
// directory entry is durable too; best-effort (some filesystems refuse
// directory fsync).
func syncDir(path string) {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
