package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// TestDiskSyncCoversEarlierAppends checks the append/sync split: Append
// only buffers, and one Sync makes every append before it durable —
// across segment rotations, which sync the outgoing file themselves —
// while FsyncEvery defers the fdatasync until enough appends are
// pending.
func TestDiskSyncCoversEarlierAppends(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskOptions{FsyncEvery: 1, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := d.Append(rec(KindProposal, uint64(i+1), []byte(fmt.Sprintf("r%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	if d.unsynced == 0 {
		t.Fatal("appends were synced before any Sync")
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if d.unsynced != 0 {
		t.Fatalf("%d appends still unsynced after Sync", d.unsynced)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, d2)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, r := range got {
		if want := fmt.Sprintf("r%d", i); string(r.Payload) != want {
			t.Fatalf("record %d = %q, want %q: replay lost append order", i, r.Payload, want)
		}
	}
	d2.Close()

	batched, err := Open(t.TempDir(), DiskOptions{FsyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	for i := 1; i <= 4; i++ {
		if err := batched.Append(rec(KindCommit, uint64(i), nil)); err != nil {
			t.Fatal(err)
		}
		if err := batched.Sync(); err != nil {
			t.Fatal(err)
		}
		if want := i % 4; batched.unsynced != want {
			t.Fatalf("FsyncEvery:4 after %d appends and a Sync: %d unsynced, want %d", i, batched.unsynced, want)
		}
	}
}

// TestDiskAppendWritesNothingUntilSync checks that Append only buffers:
// the segment holds nothing but zeros past its logical end until one
// Sync writes every appended frame there.
func TestDiskAppendWritesNothingUntilSync(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	path := filepath.Join(dir, d.curName)
	for i := uint64(1); i <= 3; i++ {
		if err := d.Append(rec(KindProposal, i, []byte("p"))); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := logEnd(b); n != 0 {
		t.Fatalf("3 appends wrote %d bytes before any Sync, want 0", n)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if b, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	end, err := walkFrames(b, func(r Record) error { seqs = append(seqs, r.Seq); return nil })
	if err != nil || len(seqs) != 3 || seqs[2] != 3 || int64(end) != d.curSize {
		t.Fatalf("after one Sync the segment holds slots %v up to offset %d (%v), want 1..3 up to the logical end %d",
			seqs, end, err, d.curSize)
	}
}

// TestDiskEndOfLog checks where a reopened segment's log ends: at the
// first offset from which every byte is zero, after the last record a
// Sync wrote. A record appended but never synced is lost in a crash; a
// bad frame with anything but zeros behind it fails Open.
func TestDiskEndOfLog(t *testing.T) {
	const segBytes = 64 << 10
	synced := []Record{
		rec(KindProposal, 1, []byte("proposal")),
		rec(KindVote, 1, []byte("vote")),
		rec(KindCommit, 1, nil), // its frame ends in zero bytes
	}
	for _, c := range []struct {
		name string
		// after leaves the synced records' store as a crash or damage
		// would.
		after func(t *testing.T, d *Disk)
		want  int // records replayed; -1 when Open must fail
	}{
		{"zeroed preallocated tail", func(t *testing.T, d *Disk) {
			st, err := d.cur.Stat()
			if err != nil {
				t.Fatal(err)
			}
			if runtime.GOOS == "linux" && st.Size() != segBytes {
				t.Fatalf("segment is %d bytes, want %d preallocated", st.Size(), segBytes)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		}, len(synced)},
		{"abandoned without Close", func(t *testing.T, d *Disk) {
			for i := uint64(2); i <= 3; i++ {
				if err := d.Append(rec(KindProposal, i, []byte("never synced"))); err != nil {
					t.Fatal(err)
				}
			}
			d.cur.Close()
			releaseDirLock(d.lock)
		}, len(synced)},
		{"bad frame before non-zero bytes", func(t *testing.T, d *Disk) {
			path, end := filepath.Join(d.dir, d.curName), d.curSize
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[end-1] ^= 0xff // damage the final frame...
			b[end+100] = 1   // ...with a stray byte behind it
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}, -1},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := Open(dir, DiskOptions{SegmentBytes: segBytes})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range synced {
				if err := d.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
			end := d.curSize
			c.after(t, d)

			d2, err := Open(dir, DiskOptions{SegmentBytes: segBytes})
			if c.want < 0 {
				if err == nil {
					d2.Close()
					t.Fatal("Open succeeded over a bad frame with data behind it")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := collect(t, d2); len(got) != c.want {
				t.Fatalf("replayed %d records, want %d", len(got), c.want)
			}
			if d2.curSize != end {
				t.Fatalf("reopened at offset %d, want the logical end %d", d2.curSize, end)
			}
			// The log stays appendable at its logical end.
			if err := d2.Append(rec(KindCommit, 9, nil)); err != nil {
				t.Fatal(err)
			}
			if err := d2.Close(); err != nil {
				t.Fatal(err)
			}
			d3, err := Open(dir, DiskOptions{SegmentBytes: segBytes})
			if err != nil {
				t.Fatal(err)
			}
			defer d3.Close()
			if got := collect(t, d3); len(got) != c.want+1 || got[c.want].Seq != 9 {
				t.Fatalf("after one more append replayed %d records, want %d ending at seq 9", len(got), c.want+1)
			}
		})
	}
}

// TestDiskSyncErrorSticky checks that a failed fsync poisons the log: the
// appends it was meant to cover may be lost, so every later Append, Sync
// and Close reports the failure instead of carrying on.
func TestDiskSyncErrorSticky(t *testing.T) {
	d, err := Open(t.TempDir(), DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(rec(KindProposal, 1, []byte("p"))); err != nil {
		t.Fatal(err)
	}
	d.cur.Close() // the next fsync fails
	first := d.Sync()
	if first == nil {
		t.Fatal("Sync over a failed file returned nil")
	}
	if err := d.Append(rec(KindProposal, 2, []byte("p"))); !errors.Is(err, first) {
		t.Fatalf("Append after a failed fsync = %v, want the latched %v", err, first)
	}
	if err := d.Sync(); !errors.Is(err, first) {
		t.Fatalf("second Sync = %v, want the latched %v", err, first)
	}
	if err := d.Close(); !errors.Is(err, first) {
		t.Fatalf("Close = %v, want the latched %v", err, first)
	}
}

// TestDiskConcurrentAppendWithTruncate interleaves appends with
// checkpoint truncations: the mutex serializes appends with the
// rotation a truncation performs.
func TestDiskConcurrentAppendWithTruncate(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, DiskOptions{FsyncEvery: 1, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				payload := []byte(fmt.Sprintf("w%d-%d", w, i))
				if err := d.Append(rec(KindProposal, uint64(1000+w), payload)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 8; i++ {
		epoch := []Record{rec(KindStable, uint64(i), []byte("ckpt"))}
		if err := d.Truncate(uint64(i), epoch); err != nil {
			t.Fatalf("truncate: %v", err)
		}
	}
	wg.Wait()
}

// BenchmarkWALAppendSync measures what one record costs when a Sync
// covers a batch of 1 or 8 appends — one engine drain's worth.
func BenchmarkWALAppendSync(b *testing.B) {
	for _, batch := range []int{1, 8} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			d, err := Open(b.TempDir(), DiskOptions{FsyncEvery: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			payload := make([]byte, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Append(rec(KindProposal, 1, payload)); err != nil {
					b.Fatal(err)
				}
				if (i+1)%batch == 0 {
					if err := d.Sync(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
