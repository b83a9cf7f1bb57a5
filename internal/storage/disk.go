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
	// FsyncEvery batches fsyncs: Sync always writes what was appended,
	// but fdatasyncs only once at least N appends are unsynced. 1 (and
	// anything below) makes every Sync cover every earlier append — the
	// safest setting and the default. Larger values trade a bounded
	// window of recent appends (on power failure; not on process crash)
	// for throughput.
	FsyncEvery int
	// SegmentBytes is each WAL segment's preallocated size: a segment is
	// created at this size, and a write that would run past it goes to a
	// fresh segment instead (default 4 MiB).
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
// Append only encodes into a buffer the Disk owns; Sync writes that
// buffer with one positioned write at the active segment's logical end
// and makes it durable with one fdatasync. Segments are preallocated,
// so the fdatasync journals no change of file size, and a segment's log
// ends where its bytes turn to zeros for good. One engine goroutine
// drives a Disk, syncing once per drain before it lets anything the
// drain's appends describe leave (see replica.Journal), so the mutex
// only guards against a stray concurrent caller.
type Disk struct {
	dir  string
	opts DiskOptions
	lock *os.File // flock on LOCK, held for the store's lifetime

	mu       sync.Mutex
	cur      *os.File
	curName  string
	curSize  int64  // the active segment's logical end: bytes written
	curMax   uint64 // highest GC-relevant Seq in the active segment
	dirty    bool   // the active segment holds writes not yet fdatasynced
	buf      []byte // frames appended since the last write, in order
	bufMax   uint64 // highest GC-relevant Seq in buf
	nextSeg  uint64
	segMax   map[string]uint64 // closed segments → highest Seq
	unsynced int               // appends not yet covered by an fdatasync
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
// every segment: a torn tail write (a crash mid-write) is truncated
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
	var end int64 // the newest segment's logical end
	for i, name := range segs {
		last := i == len(segs)-1
		maxSeq, segEnd, torn, err := scanSegment(filepath.Join(dir, name), last)
		if err != nil {
			return nil, err
		}
		if torn { // torn tail on the final segment: drop it
			if err := os.Truncate(filepath.Join(dir, name), segEnd); err != nil {
				return nil, fmt.Errorf("storage: truncate torn tail of %s: %w", name, err)
			}
		}
		d.segMax[name] = maxSeq
		end = segEnd
		idx, _ := segIndex(name)
		if idx >= d.nextSeg {
			d.nextSeg = idx + 1
		}
	}
	// Write on at the newest segment's logical end if one exists;
	// otherwise start fresh. A segment cut back by a torn-tail repair is
	// preallocated again.
	if len(segs) > 0 {
		name := segs[len(segs)-1]
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY, 0o644)
		if err != nil {
			return nil, fmt.Errorf("storage: %w", err)
		}
		if err := preallocate(f, d.opts.SegmentBytes); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: preallocate %s: %w", name, err)
		}
		d.cur, d.curName, d.curSize = f, name, end
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
// highest GC-relevant Seq seen and the segment's logical end: the
// offset after its last intact frame. When tornOK and the segment ends
// in a torn frame, torn is set and the logical end is where the torn
// frame starts. A bad frame that is not a clean tail is an error.
func scanSegment(path string, tornOK bool) (maxSeq uint64, end int64, torn bool, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("storage: %w", err)
	}
	off, err := walkFrames(b, func(rec Record) error {
		if s := gcSeq(rec); s > maxSeq {
			maxSeq = s
		}
		return nil
	})
	if err != nil {
		// A torn tail — the crash interrupted the final write — is a bad
		// frame with nothing but zeros (or end-of-file) behind it. A bad
		// frame with more data behind it is real corruption.
		if tornOK && frameReachesEnd(b[off:], logEnd(b)-off) {
			return maxSeq, int64(off), true, nil
		}
		return 0, 0, false, fmt.Errorf("storage: %s corrupt at offset %d: %w", filepath.Base(path), off, err)
	}
	return maxSeq, int64(off), false, nil
}

// walkFrames passes each frame of one segment's bytes to fn, in order,
// up to the segment's end of log: the first frame boundary from which
// every byte is zero, which is where a preallocated segment's writes
// stop. It returns the offset it stopped at and, on a bad frame, the
// frame's error with the offset at its start.
func walkFrames(b []byte, fn func(rec Record) error) (int, error) {
	end := logEnd(b)
	off := 0
	for off < end {
		rec, n, err := readFrame(b[off:])
		if err != nil {
			return off, err
		}
		if err := fn(rec); err != nil {
			return off, err
		}
		off += n
	}
	return off, nil
}

// logEnd is the offset from which every byte of b is zero. A frame
// never ends there mid-way unless its own last bytes are zeros, and
// every frame holds a non-zero kind byte, so no frame starts at or past
// it.
func logEnd(b []byte) int {
	end := len(b)
	for end > 0 && b[end-1] == 0 {
		end--
	}
	return end
}

// frameReachesEnd reports whether the frame starting at the front of b
// extends to or past the first rest bytes, the ones before the zeros
// (the signature of an interrupted write, as opposed to mid-file
// damage).
func frameReachesEnd(b []byte, rest int) bool {
	if rest < 8 {
		return true
	}
	n := binary.LittleEndian.Uint32(b)
	return 8+int64(n) >= int64(rest)
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

// rotate closes the active segment and opens a fresh, preallocated
// one. It requires d.mu held and leaves the outgoing segment's writes
// durable, so a later fdatasync of the new file covers every append.
// Buffered frames stay buffered: they go to the new segment.
func (d *Disk) rotate() error {
	if d.cur != nil {
		if err := d.datasync(); err != nil {
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
	if err := preallocate(f, d.opts.SegmentBytes); err != nil {
		f.Close()
		return fmt.Errorf("storage: preallocate %s: %w", name, err)
	}
	d.cur, d.curName, d.curSize, d.curMax, d.dirty = f, name, 0, 0, false
	syncDir(d.dir)
	return nil
}

// latch records a failed write or fdatasync. A failure latches: the
// page cache may have dropped dirty pages the kernel could not write, so
// no later fdatasync can retroactively make earlier appends durable —
// every subsequent append and sync reports the failure rather than
// pretending to recover. Caller holds d.mu.
func (d *Disk) latch(err error) error {
	d.syncErr = fmt.Errorf("storage: %w", err)
	return d.syncErr
}

// write issues the buffered frames as one positioned write at the
// active segment's logical end, first rotating to a fresh segment when
// they would run past this one's preallocated size. Caller holds d.mu.
func (d *Disk) write() error {
	if d.syncErr != nil || len(d.buf) == 0 {
		return d.syncErr
	}
	if d.curSize > 0 && d.curSize+int64(len(d.buf)) > d.opts.SegmentBytes {
		if err := d.rotate(); err != nil {
			return err
		}
	}
	if _, err := d.cur.WriteAt(d.buf, d.curSize); err != nil {
		return d.latch(err)
	}
	d.curSize += int64(len(d.buf))
	d.curMax = max(d.curMax, d.bufMax)
	d.buf, d.bufMax, d.dirty = d.buf[:0], 0, true
	return nil
}

// datasync fdatasyncs the active segment if it holds unsynced writes.
// Caller holds d.mu.
func (d *Disk) datasync() error {
	if d.syncErr != nil || !d.dirty {
		return d.syncErr
	}
	if err := fdatasync(d.cur); err != nil {
		return d.latch(err)
	}
	d.dirty = false
	return nil
}

// fsync makes every append so far durable: one write, one fdatasync.
// Caller holds d.mu.
func (d *Disk) fsync() error {
	if err := d.write(); err != nil {
		return err
	}
	if err := d.datasync(); err != nil {
		return err
	}
	d.unsynced = 0
	return nil
}

// Append implements Store: it encodes the record into the Disk's buffer
// and leaves it to Sync to write and make durable.
func (d *Disk) Append(rec Record) error {
	if !rec.Kind.Valid() {
		return fmt.Errorf("storage: append of invalid record kind %d", uint8(rec.Kind))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("storage: store closed")
	}
	if d.syncErr != nil {
		return d.syncErr
	}
	d.buffer(&rec)
	return nil
}

// buffer encodes one record frame onto the buffer. Caller holds d.mu.
func (d *Disk) buffer(rec *Record) {
	d.buf = appendFrame(d.buf, rec)
	d.bufMax = max(d.bufMax, gcSeq(*rec))
	d.unsynced++
}

// Sync implements Store: it writes every buffered append, and
// fdatasyncs once at least FsyncEvery appends are unsynced, which at the
// default of 1 makes every earlier append durable.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	if d.unsynced < d.opts.FsyncEvery {
		return d.write()
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
		var fnErr error
		off, err := walkFrames(b, func(rec Record) error {
			fnErr = fn(rec)
			return fnErr
		})
		if fnErr != nil {
			return fnErr
		}
		if err != nil {
			// Open already truncated torn tails; hitting one here
			// means the file changed underneath us.
			return fmt.Errorf("storage: %s corrupt at offset %d: %w", name, off, err)
		}
	}
	return nil
}

// Truncate implements Store: it writes the buffered appends, epoch
// records start a fresh segment, then every closed segment whose
// records all sit at or below seq is deleted.
func (d *Disk) Truncate(seq uint64, epoch []Record) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("storage: store closed")
	}
	if err := d.write(); err != nil {
		return err
	}
	if err := d.rotate(); err != nil {
		return err
	}
	for i := range epoch {
		d.buffer(&epoch[i])
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

// Close implements Store: it writes and syncs the buffered tail and
// releases the directory.
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
