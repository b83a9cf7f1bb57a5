package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/crypto"
)

func rec(kind Kind, seq uint64, payload []byte) Record {
	return Record{
		Kind:    kind,
		Seq:     seq,
		View:    3,
		Mode:    1,
		Digest:  crypto.Sum(payload),
		Payload: payload,
	}
}

func collect(t *testing.T, s Store) []Record {
	t.Helper()
	var out []Record
	if err := s.Replay(func(r Record) error { out = append(out, r); return nil }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestDiskAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		rec(KindView, 0, nil),
		rec(KindProposal, 1, []byte("proposal-one")),
		rec(KindVote, 1, []byte("vote-one")),
		rec(KindCommit, 1, nil),
		rec(KindStable, 1, []byte("proof")),
	}
	for _, r := range want {
		if err := d.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen, as a restarted process would.
	d2, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got := collect(t, d2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].Seq != want[i].Seq ||
			got[i].View != want[i].View || got[i].Mode != want[i].Mode ||
			got[i].Digest != want[i].Digest || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestDiskTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := d.Append(rec(KindProposal, i, []byte("p"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	name, end := d.curName, d.curSize

	// Simulate a crash mid-write: the last 7 bytes of the final record
	// never reached the preallocated segment, so they read as zeros.
	path := filepath.Join(dir, name)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	clear(b[end-7 : end])
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatalf("open after torn tail: %v", err)
	}
	got := collect(t, d2)
	if len(got) != 2 {
		t.Fatalf("replayed %d records after torn tail, want 2", len(got))
	}
	st, err := d2.cur.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "linux" && st.Size() != d2.opts.SegmentBytes {
		t.Fatalf("repaired segment is %d bytes, want %d preallocated again", st.Size(), d2.opts.SegmentBytes)
	}
	// The log must remain appendable after the repair.
	if err := d2.Append(rec(KindCommit, 4, nil)); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if got := collect(t, d3); len(got) != 3 || got[2].Seq != 4 {
		t.Fatalf("post-repair log = %d records (last %+v), want 3 ending at seq 4", len(got), got[len(got)-1])
	}
}

func TestDiskMidFileCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := d.Append(rec(KindProposal, i, []byte("payload"))); err != nil {
			t.Fatal(err)
		}
	}
	name := d.curName
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[12] ^= 0xff // flip a byte inside the first record's body
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// The damage is followed by intact frames, so it is not a torn
	// tail and must be reported, not silently swallowed.
	if _, err := Open(dir, DiskOptions{}); err == nil {
		t.Fatal("open succeeded over mid-file corruption")
	}
}

func TestDiskSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of records.
	d, err := Open(dir, DiskOptions{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	payload := bytes.Repeat([]byte("x"), 64)
	for i := uint64(1); i <= 20; i++ {
		if err := d.Append(rec(KindProposal, i, payload)); err != nil {
			t.Fatal(err)
		}
		if err := d.Sync(); err != nil { // rotation happens as a Sync writes
			t.Fatal(err)
		}
	}
	segs, err := d.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}

	// Checkpoint at 15: everything at or below must go, the rest stays.
	epoch := []Record{rec(KindView, 0, nil), rec(KindStable, 15, []byte("proof"))}
	if err := d.Truncate(15, epoch); err != nil {
		t.Fatal(err)
	}
	got := collect(t, d)
	var haveView, haveStable, have20 bool
	lowSurvivors := 0
	for _, r := range got {
		switch r.Kind {
		case KindView:
			haveView = true
		case KindStable:
			haveStable = true
		default:
			if r.Seq == 20 {
				have20 = true
			}
			if r.Seq <= 15 {
				lowSurvivors++
			}
		}
	}
	if !haveView || !haveStable {
		t.Fatalf("epoch records missing from truncated log: %+v", got)
	}
	if !have20 {
		t.Fatal("seq 20 lost by truncation")
	}
	// GC is segment-granular: a record at or below the checkpoint may
	// survive only if its segment also holds newer records, so at most
	// one segment's worth remains.
	if lowSurvivors > 2 {
		t.Fatalf("%d records at or below the checkpoint survived truncation", lowSurvivors)
	}
}

// TestDiskOpenRefusesFsyncEvery pins that a returned Sync always means
// durable: Open refuses any FsyncEvery above 1 (a value that once let
// Sync skip its fdatasync) and takes 0 and 1 as the default.
func TestDiskOpenRefusesFsyncEvery(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{2, 8} {
		if d, err := Open(dir, DiskOptions{FsyncEvery: n}); err == nil {
			d.Close()
			t.Fatalf("Open accepted FsyncEvery %d", n)
		}
	}
	for _, n := range []int{0, 1} {
		d, err := Open(dir, DiskOptions{FsyncEvery: n})
		if err != nil {
			t.Fatalf("Open with FsyncEvery %d: %v", n, err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDiskSnapshotSaveLoadPrune(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if s, err := d.LatestSnapshot(); err != nil || s != nil {
		t.Fatalf("fresh store snapshot = %v, %v; want nil, nil", s, err)
	}
	for _, seq := range []uint64{128, 256} {
		data := bytes.Repeat([]byte{byte(seq)}, 100)
		snap := Snapshot{Seq: seq, Digest: crypto.Sum(data), Proof: []byte("xi"), Data: data}
		if err := d.SaveSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	}
	got, err := d.LatestSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Seq != 256 || !bytes.Equal(got.Proof, []byte("xi")) ||
		got.Digest != crypto.Sum(got.Data) {
		t.Fatalf("latest snapshot = %+v", got)
	}
	// The older snapshot must have been pruned.
	if _, err := os.Stat(filepath.Join(dir, snapName(128))); !os.IsNotExist(err) {
		t.Fatalf("old snapshot not pruned: %v", err)
	}

	// A corrupted snapshot is skipped, not fatal.
	path := filepath.Join(dir, snapName(256))
	b, _ := os.ReadFile(path)
	b[10] ^= 0xff
	os.WriteFile(path, b, 0o644)
	if s, err := d.LatestSnapshot(); err != nil || s != nil {
		t.Fatalf("corrupt snapshot load = %v, %v; want nil, nil", s, err)
	}
}

func TestDiskDirectoryLock(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A second opener of the same directory must be refused: two WALs
	// interleaving appends would corrupt the log.
	if _, err := Open(dir, DiskOptions{}); err == nil {
		t.Fatal("second Open of a locked data directory succeeded")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Close releases the lock; the next process may take over.
	d2, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	d2.Close()
}

func TestMemMirrorsDiskSemantics(t *testing.T) {
	m := NewMem()
	for i := uint64(1); i <= 5; i++ {
		if err := m.Append(rec(KindProposal, i, []byte("p"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SaveSnapshot(Snapshot{Seq: 3, Data: []byte("state")}); err != nil {
		t.Fatal(err)
	}
	if err := m.Truncate(3, []Record{rec(KindStable, 3, nil)}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, m)
	if len(got) != 3 || got[0].Kind != KindStable || got[1].Seq != 4 || got[2].Seq != 5 {
		t.Fatalf("mem truncation kept %+v", got)
	}
	s, err := m.LatestSnapshot()
	if err != nil || s == nil || s.Seq != 3 || string(s.Data) != "state" {
		t.Fatalf("mem snapshot = %+v, %v", s, err)
	}
	m.Close()
	if err := m.Append(rec(KindCommit, 6, nil)); err == nil {
		t.Fatal("append after close succeeded")
	}
	m.Reopen()
	if err := m.Append(rec(KindCommit, 6, nil)); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

// TestMemPendingUntilSync checks that Mem draws Disk's line: an append
// is pending until a Sync, Replay yields only synced records, Close
// syncs what is pending, and a Reopen without Close — a crash — drops
// it.
func TestMemPendingUntilSync(t *testing.T) {
	m := NewMem()
	for i := uint64(1); i <= 2; i++ {
		if err := m.Append(rec(KindProposal, i, []byte("p"))); err != nil {
			t.Fatal(err)
		}
	}
	if got := collect(t, m); len(got) != 0 {
		t.Fatalf("replayed %d records before any Sync, want 0", len(got))
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(rec(KindCommit, 3, nil)); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, m.Reopen()); len(got) != 2 || got[1].Seq != 2 {
		t.Fatalf("after a crash replayed %+v, want the 2 synced records", got)
	}
	if err := m.Append(rec(KindCommit, 3, nil)); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, m.Reopen()); len(got) != 3 || got[2].Seq != 3 {
		t.Fatalf("after Close replayed %+v, want all 3 records", got)
	}
}

// TestMemFailNth checks the scripted fault: the nth Sync fails, the
// calls before it do not, the store stays failed afterwards, and what
// the failed Sync should have covered never becomes durable.
func TestMemFailNth(t *testing.T) {
	m := NewMem()
	m.FailNth(2)
	if err := m.Append(rec(KindProposal, 1, nil)); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatalf("first Sync = %v, want nil", err)
	}
	if err := m.Append(rec(KindProposal, 2, nil)); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("second Sync = %v, want ErrInjected", err)
	}
	if err := m.Append(rec(KindProposal, 3, nil)); !errors.Is(err, ErrInjected) {
		t.Fatalf("Append after the fault = %v, want ErrInjected", err)
	}
	if err := m.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Close after the fault = %v, want ErrInjected", err)
	}
	if got := collect(t, m.Reopen()); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("replayed %+v, want only the record synced before the fault", got)
	}
}
