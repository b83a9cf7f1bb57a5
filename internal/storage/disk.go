package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/crypto"
)

// castagnoli is the CRC-32C table (the polynomial used by modern
// storage systems; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DiskOptions tunes the file-backed store.
type DiskOptions struct {
	// FsyncEvery batches fsyncs: Sync fsyncs only once at least N
	// appends are unsynced. 1 (and anything below) makes every Sync
	// cover every earlier append — the safest setting and the default.
	// Larger values trade a bounded window of recent appends (on power
	// failure; not on process crash) for throughput.
	FsyncEvery int
	// SegmentBytes rotates the active WAL segment once it exceeds this
	// size (default 4 MiB).
	SegmentBytes int64
}

func (o DiskOptions) normalized() DiskOptions {
	if o.FsyncEvery < 1 {
		o.FsyncEvery = 1
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Disk is the file-backed Store: a directory holding WAL segments
// (wal-<n>.seg) and checkpoint snapshots (snap-<seq>.snap).
//
// Append only writes; Sync makes every earlier append durable. One
// engine goroutine drives a Disk, syncing once per batch of appends
// before it lets anything they describe leave (see replica.Journal), so
// the mutex only guards against a stray concurrent caller.
type Disk struct {
	dir  string
	opts DiskOptions
	lock *os.File // flock on LOCK, held for the store's lifetime

	mu       sync.Mutex
	cur      *os.File
	curName  string
	curSize  int64
	curMax   uint64 // highest GC-relevant Seq in the active segment
	nextSeg  uint64
	segMax   map[string]uint64 // closed segments → highest Seq
	unsynced int               // appends written since the last fsync
	syncErr  error
	closed   bool
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".seg"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

// Open creates or reopens a disk store rooted at dir. Reopening scans
// every segment: a torn tail write (a crash mid-append) is truncated
// away; corruption anywhere else fails the open so a damaged log is
// never silently replayed.
func Open(dir string, opts DiskOptions) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	// One writer per data directory: two processes appending to the
	// same WAL interleave frames and corrupt it, so turn that mistake
	// into a clean startup error instead.
	lock, err := acquireDirLock(dir)
	if err != nil {
		return nil, err
	}
	d := &Disk{
		dir:    dir,
		opts:   opts.normalized(),
		lock:   lock,
		segMax: make(map[string]uint64),
	}
	ok := false
	defer func() {
		if !ok {
			releaseDirLock(lock)
		}
	}()
	segs, err := d.segments()
	if err != nil {
		return nil, err
	}
	for i, name := range segs {
		last := i == len(segs)-1
		maxSeq, goodLen, err := scanSegment(filepath.Join(dir, name), last)
		if err != nil {
			return nil, err
		}
		if goodLen >= 0 { // torn tail on the final segment: drop it
			if err := os.Truncate(filepath.Join(dir, name), goodLen); err != nil {
				return nil, fmt.Errorf("storage: truncate torn tail of %s: %w", name, err)
			}
		}
		d.segMax[name] = maxSeq
		idx, _ := segIndex(name)
		if idx >= d.nextSeg {
			d.nextSeg = idx + 1
		}
	}
	// Append to the newest segment if one exists; otherwise start fresh.
	if len(segs) > 0 {
		name := segs[len(segs)-1]
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("storage: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: %w", err)
		}
		d.cur, d.curName, d.curSize = f, name, st.Size()
		d.curMax = d.segMax[name]
		delete(d.segMax, name)
		ok = true
		return d, nil
	}
	if err := d.rotate(); err != nil {
		return nil, err
	}
	ok = true
	return d, nil
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// segments lists WAL segment file names sorted by index.
func (d *Disk) segments() ([]string, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	var out []string
	for _, e := range entries {
		if _, ok := segIndex(e.Name()); ok {
			out = append(out, e.Name())
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, _ := segIndex(out[i])
		b, _ := segIndex(out[j])
		return a < b
	})
	return out, nil
}

func segIndex(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	var idx uint64
	if _, err := fmt.Sscanf(mid, "%016d", &idx); err != nil {
		return 0, false
	}
	return idx, true
}

func segName(idx uint64) string { return fmt.Sprintf("%s%016d%s", segPrefix, idx, segSuffix) }

// gcSeq is the sequence number a record counts for during segment GC:
// view and stable markers are always re-established by the truncation
// epoch, so they never pin a segment.
func gcSeq(rec Record) uint64 {
	switch rec.Kind {
	case KindView, KindStable:
		return 0
	default:
		return rec.Seq
	}
}

// scanSegment validates every frame of one segment. It returns the
// highest GC-relevant Seq seen and, when tornOK and the segment ends in
// a torn frame, the length of the intact prefix (otherwise -1). A bad
// frame that is not a clean tail is an error.
func scanSegment(path string, tornOK bool) (maxSeq uint64, goodLen int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, -1, fmt.Errorf("storage: %w", err)
	}
	off := int64(0)
	for int(off) < len(b) {
		rec, n, ferr := readFrame(b[off:])
		if ferr != nil {
			// A torn tail — the crash interrupted the final append — is
			// a frame that runs into end-of-file. A bad frame with more
			// intact data behind it is real corruption.
			if tornOK && frameReachesEOF(b[off:]) {
				return maxSeq, off, nil
			}
			return 0, -1, fmt.Errorf("storage: %s corrupt at offset %d: %w", filepath.Base(path), off, ferr)
		}
		if s := gcSeq(rec); s > maxSeq {
			maxSeq = s
		}
		off += int64(n)
	}
	return maxSeq, -1, nil
}

// frameReachesEOF reports whether the frame starting at the front of b
// extends to or past the end of b (the signature of an interrupted
// append, as opposed to mid-file damage).
func frameReachesEOF(b []byte) bool {
	if len(b) < 8 {
		return true
	}
	n := binary.LittleEndian.Uint32(b)
	return 8+int64(n) >= int64(len(b))
}

// readFrame decodes one length|crc|body frame from the front of b,
// returning the record and the total frame size.
func readFrame(b []byte) (Record, int, error) {
	if len(b) < 8 {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxPayload+64 {
		return Record{}, 0, errors.New("frame length exceeds limit")
	}
	if len(b) < 8+int(n) {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	want := binary.LittleEndian.Uint32(b[4:])
	body := b[8 : 8+n]
	if crc32.Checksum(body, castagnoli) != want {
		return Record{}, 0, errors.New("CRC mismatch")
	}
	rec, err := decodeRecord(body)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, 8 + int(n), nil
}

func appendFrame(buf []byte, rec *Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	buf = rec.encode(buf)
	body := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(body, castagnoli))
	return buf
}

// rotate closes the active segment and opens a fresh one. It requires
// d.mu held and leaves the outgoing segment fully durable, so a later
// fsync of the new file covers every append.
func (d *Disk) rotate() error {
	if d.cur != nil {
		if err := d.fsync(); err != nil {
			return err
		}
		if err := d.cur.Close(); err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		d.segMax[d.curName] = d.curMax
	}
	name := segName(d.nextSeg)
	d.nextSeg++
	f, err := os.OpenFile(filepath.Join(d.dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	d.cur, d.curName, d.curSize, d.curMax = f, name, 0, 0
	syncDir(d.dir)
	return nil
}

// fsync makes every append so far durable. A failed fsync latches: the
// page cache may have dropped dirty pages the kernel could not write, so
// no later fsync can retroactively make earlier appends durable — every
// subsequent append and sync reports the failure rather than pretending
// to recover. Caller holds d.mu.
func (d *Disk) fsync() error {
	if d.syncErr != nil || d.unsynced == 0 {
		return d.syncErr
	}
	if err := d.cur.Sync(); err != nil {
		d.syncErr = fmt.Errorf("storage: %w", err)
		return d.syncErr
	}
	d.unsynced = 0
	return nil
}

// Append implements Store: it writes the record and leaves it to Sync
// to make durable.
func (d *Disk) Append(rec Record) error {
	if !rec.Kind.Valid() {
		return fmt.Errorf("storage: append of invalid record kind %d", uint8(rec.Kind))
	}
	frame := appendFrame(nil, &rec)
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.appendLocked(rec, frame)
}

// appendLocked writes one pre-encoded record frame to the active
// segment. The frame is built by the caller outside the lock. Caller
// holds d.mu.
func (d *Disk) appendLocked(rec Record, frame []byte) error {
	if d.closed {
		return errors.New("storage: store closed")
	}
	if d.syncErr != nil {
		return d.syncErr
	}
	if d.curSize > d.opts.SegmentBytes {
		if err := d.rotate(); err != nil {
			return err
		}
	}
	if _, err := d.cur.Write(frame); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	d.curSize += int64(len(frame))
	if s := gcSeq(rec); s > d.curMax {
		d.curMax = s
	}
	d.unsynced++
	return nil
}

// Sync implements Store: it fsyncs once at least FsyncEvery appends are
// unsynced, which at the default of 1 makes every earlier append
// durable.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	if d.unsynced < d.opts.FsyncEvery {
		return d.syncErr
	}
	return d.fsync()
}

// Replay implements Store.
func (d *Disk) Replay(fn func(rec Record) error) error {
	segs, err := d.segments()
	if err != nil {
		return err
	}
	for _, name := range segs {
		b, err := os.ReadFile(filepath.Join(d.dir, name))
		if err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		off := 0
		for off < len(b) {
			rec, n, ferr := readFrame(b[off:])
			if ferr != nil {
				// Open already truncated torn tails; hitting one here
				// means the file changed underneath us.
				return fmt.Errorf("storage: %s corrupt at offset %d: %w", name, off, ferr)
			}
			if err := fn(rec); err != nil {
				return err
			}
			off += n
		}
	}
	return nil
}

// Truncate implements Store: epoch records start a fresh segment, then
// every closed segment whose records all sit at or below seq is
// deleted.
func (d *Disk) Truncate(seq uint64, epoch []Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("storage: store closed")
	}
	if err := d.rotate(); err != nil {
		return err
	}
	for _, rec := range epoch {
		if err := d.appendLocked(rec, appendFrame(nil, &rec)); err != nil {
			return err
		}
	}
	if err := d.fsync(); err != nil {
		return err
	}
	for name, maxSeq := range d.segMax {
		if maxSeq <= seq {
			if err := os.Remove(filepath.Join(d.dir, name)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("storage: %w", err)
			}
			delete(d.segMax, name)
		}
	}
	syncDir(d.dir)
	return nil
}

// Close implements Store: it syncs the tail and releases the directory.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	err := d.fsync()
	if cerr := d.cur.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("storage: %w", cerr)
	}
	releaseDirLock(d.lock)
	d.closed = true
	return err
}

// ---------------------------------------------------------------------------
// Snapshot store

func snapName(seq uint64) string { return fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix) }

func snapSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	var seq uint64
	if _, err := fmt.Sscanf(mid, "%020d", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

func encodeSnapshot(s *Snapshot) []byte {
	body := make([]byte, 0, 8+crypto.DigestSize+8+len(s.Proof)+len(s.Data))
	body = binary.LittleEndian.AppendUint64(body, s.Seq)
	body = append(body, s.Digest[:]...)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(s.Proof)))
	body = append(body, s.Proof...)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(s.Data)))
	body = append(body, s.Data...)
	out := make([]byte, 0, 4+len(body))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, castagnoli))
	return append(out, body...)
}

func decodeSnapshot(b []byte) (*Snapshot, error) {
	if len(b) < 4+8+crypto.DigestSize+8 {
		return nil, errors.New("storage: short snapshot")
	}
	want := binary.LittleEndian.Uint32(b)
	body := b[4:]
	if crc32.Checksum(body, castagnoli) != want {
		return nil, errors.New("storage: snapshot CRC mismatch")
	}
	s := &Snapshot{Seq: binary.LittleEndian.Uint64(body)}
	copy(s.Digest[:], body[8:])
	off := 8 + crypto.DigestSize
	pn := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if pn > maxPayload || off+pn+4 > len(body) {
		return nil, errors.New("storage: malformed snapshot proof")
	}
	s.Proof = append([]byte(nil), body[off:off+pn]...)
	off += pn
	dn := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if dn > maxPayload || off+dn != len(body) {
		return nil, errors.New("storage: malformed snapshot data")
	}
	s.Data = append([]byte(nil), body[off:]...)
	return s, nil
}

// SaveSnapshot implements Store: write-temp, fsync, rename, then prune
// older snapshots. A crash at any point leaves either the old or the
// new snapshot intact, never a torn one.
func (d *Disk) SaveSnapshot(snap Snapshot) error {
	if d.closed {
		return errors.New("storage: store closed")
	}
	tmp := filepath.Join(d.dir, snapName(snap.Seq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	_, werr := f.Write(encodeSnapshot(&snap))
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: %w", werr)
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, snapName(snap.Seq))); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: %w", err)
	}
	syncDir(d.dir)
	// Prune every other snapshot (and stray temp files).
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") && strings.HasPrefix(name, snapPrefix) {
			os.Remove(filepath.Join(d.dir, name))
			continue
		}
		if seq, ok := snapSeq(name); ok && seq != snap.Seq {
			os.Remove(filepath.Join(d.dir, name))
		}
	}
	return nil
}

// LatestSnapshot implements Store: the newest snapshot that decodes
// intact. A corrupt newer file falls back to an older intact one
// rather than failing recovery outright.
func (d *Disk) LatestSnapshot() (*Snapshot, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := snapSeq(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, seq := range seqs {
		b, err := os.ReadFile(filepath.Join(d.dir, snapName(seq)))
		if err != nil {
			continue
		}
		if s, err := decodeSnapshot(b); err == nil {
			return s, nil
		}
	}
	return nil, nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable. Best effort: not every filesystem supports it.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		f.Sync()
		f.Close()
	}
}
