package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestDiskSyncCoversEarlierAppends checks the write/sync split: Append
// only writes, and one Sync makes every append before it durable — across
// segment rotations, which sync the outgoing file themselves — while
// FsyncEvery defers the fsync until enough appends are pending.
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
