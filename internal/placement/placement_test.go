package placement

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ids"
)

func mustBootstrap(t *testing.T, owners, groups int) *Map {
	t.Helper()
	m, err := Bootstrap(owners, groups, 4)
	if err != nil {
		t.Fatalf("Bootstrap(%d, %d): %v", owners, groups, err)
	}
	return m
}

func TestBootstrapOwners(t *testing.T) {
	// Epoch 1 splits the ring into equal contiguous ranges: group g owns
	// [g*width, (g+1)*width), the last range closing at the top.
	for _, shards := range []int{1, 2, 3, 4, 7} {
		m := mustBootstrap(t, shards, shards)
		width := uint64(math.MaxUint64)/uint64(shards) + 1
		for i := 0; i < 1000; i++ {
			key := fmt.Sprintf("key-%d", i)
			want := ids.GroupID(0)
			if shards > 1 {
				want = ids.GroupID(Hash(key) / width)
			}
			if got := m.Owner(key); got != want {
				t.Fatalf("shards=%d key=%q: owner %v, want %v", shards, key, got, want)
			}
		}
	}
}

func TestBootstrapSpares(t *testing.T) {
	m := mustBootstrap(t, 2, 4)
	if m.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4 (spares are provisioned)", m.Shards())
	}
	if len(m.OwnedRanges(3)) != 0 {
		t.Fatalf("spare group 3 owns ranges: %v", m.OwnedRanges(3))
	}
}

// TestOwnerDistribution pins the property the whole throughput story
// rests on: short, similar keys (the realistic workload shape) spread
// across every shard instead of clumping in one hash range.
func TestOwnerDistribution(t *testing.T) {
	const shards, keys = 4, 2000
	m := mustBootstrap(t, shards, shards)
	counts := make([]int, shards)
	for i := 0; i < keys; i++ {
		counts[m.Owner(fmt.Sprintf("k%d", i))]++
	}
	for g, n := range counts {
		// Each shard should hold roughly keys/shards = 500; accept a
		// generous ±50% band — the test targets clumping, not perfection.
		if n < keys/shards/2 || n > keys*3/shards/2 {
			t.Fatalf("group %d owns %d of %d keys (distribution %v)", g, n, keys, counts)
		}
	}
}

func TestSplitMoveMergeRoundTrip(t *testing.T) {
	m := mustBootstrap(t, 2, 3)

	// Split group 0 at its midpoint into the spare group 2.
	next, err := Cmd{Kind: CmdSplit, Group: 0, To: 2}.Apply(m)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if next.Epoch != 2 {
		t.Fatalf("epoch after split = %d, want 2", next.Epoch)
	}
	p := next.Pending
	if p == nil || p.From != 0 || p.To != 2 || p.Epoch != 2 {
		t.Fatalf("pending after split = %+v", p)
	}
	if got := next.OwnerHash(p.Range.Lo); got != 2 {
		t.Fatalf("split range owner = %v, want 2", got)
	}
	// One migration at a time: a second command must be refused.
	if _, err := (Cmd{Kind: CmdSplit, Group: 1, To: 2}).Apply(next); err == nil {
		t.Fatal("second command accepted while a migration is pending")
	}

	done, err := next.CompletePending(2)
	if err != nil {
		t.Fatalf("complete: %v", err)
	}
	if done.Pending != nil {
		t.Fatal("pending survived CompletePending")
	}
	// Idempotent: completing again is a no-op.
	if again, err := done.CompletePending(2); err != nil || again.Pending != nil {
		t.Fatalf("re-complete: map %+v err %v", again, err)
	}

	// Merge group 2 back into group 0.
	merged, err := Cmd{Kind: CmdMerge, Group: 2, To: 0}.Apply(done)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	merged, err = merged.CompletePending(merged.Epoch)
	if err != nil {
		t.Fatalf("complete merge: %v", err)
	}
	if len(merged.OwnedRanges(2)) != 0 {
		t.Fatalf("group 2 still owns %v after merge", merged.OwnedRanges(2))
	}
	// Every key must route to the same group as the original two-way
	// bootstrap again (ranges are not coalesced, but ownership is).
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("rt-%d", i)
		if merged.Owner(key) != m.Owner(key) {
			t.Fatalf("key %q: owner %v after round trip, originally %v", key, merged.Owner(key), m.Owner(key))
		}
	}
}

func TestMoveValidation(t *testing.T) {
	m := mustBootstrap(t, 2, 3)
	mid := m.Ranges[1].Range.Lo
	cases := []struct {
		name string
		cmd  Cmd
	}{
		{"empty range", Cmd{Kind: CmdMove, Range: Range{Lo: 5, Hi: 5}, To: 2}},
		{"unprovisioned target", Cmd{Kind: CmdMove, Range: Range{Lo: 0, Hi: 10}, To: 9}},
		{"crosses owner boundary", Cmd{Kind: CmdMove, Range: Range{Lo: mid - 10, Hi: mid + 10}, To: 2}},
		{"already owned", Cmd{Kind: CmdMove, Range: Range{Lo: 0, Hi: 10}, To: 0}},
		{"split at boundary", Cmd{Kind: CmdSplit, Group: 0, At: 0, To: 2, Range: Range{}}},
		{"merge multi-range group", Cmd{Kind: CmdMerge, Group: 9, To: 0}},
		{"set-replicas zero", Cmd{Kind: CmdSetReplicas, Group: 0, Replicas: 0}},
	}
	for _, tc := range cases {
		if tc.name == "split at boundary" {
			tc.cmd.At = 0 // midpoint default; force boundary via explicit Lo
			tc.cmd.At = m.Ranges[0].Range.Lo
			if tc.cmd.At == 0 {
				// Lo of the first range is 0, and At=0 means "midpoint",
				// so use the second range's boundary instead.
				tc.cmd.Group = 1
				tc.cmd.At = mid
			}
		}
		if _, err := tc.cmd.Apply(m); err == nil {
			t.Errorf("%s: command accepted", tc.name)
		}
	}
}

func TestSetReplicas(t *testing.T) {
	m := mustBootstrap(t, 2, 2)
	next, err := Cmd{Kind: CmdSetReplicas, Group: 1, Replicas: 7}.Apply(m)
	if err != nil {
		t.Fatalf("set-replicas: %v", err)
	}
	if next.Pending != nil {
		t.Fatal("set-replicas left a pending migration")
	}
	if next.Epoch != 2 || next.ReplicasOf(1) != 7 || next.ReplicasOf(0) != 4 {
		t.Fatalf("after set-replicas: epoch %d, replicas %d/%d", next.Epoch, next.ReplicasOf(0), next.ReplicasOf(1))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := mustBootstrap(t, 3, 5)
	withPending, err := Cmd{Kind: CmdSplit, Group: 1, To: 3}.Apply(m)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	for _, mm := range []*Map{m, withPending} {
		enc := mm.Encode()
		dec, err := DecodeMap(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(mm, dec) {
			t.Fatalf("round trip mismatch:\n%+v\n%+v", mm, dec)
		}
		if !bytes.Equal(enc, dec.Encode()) {
			t.Fatal("re-encode not canonical")
		}
	}

	cmds := []Cmd{
		{Kind: CmdSplit, Group: 2, At: 42, To: 4},
		{Kind: CmdMove, Range: Range{Lo: 1, Hi: 2}, To: 1},
		{Kind: CmdSetReplicas, Group: 0, Replicas: 9},
	}
	for _, c := range cmds {
		dec, err := DecodeCmd(EncodeCmd(c))
		if err != nil {
			t.Fatalf("cmd decode: %v", err)
		}
		if dec != c {
			t.Fatalf("cmd round trip: %+v != %+v", dec, c)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	m := mustBootstrap(t, 2, 2)
	enc := m.Encode()
	for _, b := range [][]byte{
		nil,
		{},
		{99},                    // bad version
		enc[:len(enc)-1],        // truncated
		append(enc[:1:1], 0xff), // truncated epoch
		append(enc, 0),          // trailing byte
		{1, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}, // huge range count
	} {
		if _, err := DecodeMap(b); err == nil {
			t.Errorf("DecodeMap(%x) accepted", b)
		}
	}
}

func TestCacheNewerEpochWins(t *testing.T) {
	m1 := mustBootstrap(t, 2, 3)
	m2, err := Cmd{Kind: CmdSplit, Group: 0, To: 2}.Apply(m1)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	c := NewCache(m1)
	if !c.Update(m2) {
		t.Fatal("newer map rejected")
	}
	if c.Update(m1) {
		t.Fatal("stale map adopted")
	}
	if c.Epoch() != m2.Epoch {
		t.Fatalf("cache epoch %d, want %d", c.Epoch(), m2.Epoch)
	}
}

// TestCacheConcurrentUpdate exercises the Cache's concurrency contract:
// router fan-out legs read it from their own goroutines while a
// rejection on another leg adopts a newer map. Readers must see epochs
// only move forward and owners only among the provisioned groups (run
// it under -race).
func TestCacheConcurrentUpdate(t *testing.T) {
	const groups, epochs, readers = 4, 1000, 4
	shapes := []*Map{mustBootstrap(t, 2, groups), mustBootstrap(t, 4, groups)}
	c := NewCache(shapes[0])
	var wg, ready sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		ready.Add(1)
		go func(r int) {
			defer wg.Done()
			ready.Done()
			var last uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				e := c.Epoch()
				if e < last {
					errs <- fmt.Errorf("reader %d: epoch went back from %d to %d", r, last, e)
					return
				}
				last = e
				if g := c.Owner(fmt.Sprintf("k%d", i)); int(g) >= groups {
					errs <- fmt.Errorf("reader %d: owner %v outside %d groups", r, g, groups)
					return
				}
			}
		}(r)
	}
	ready.Wait()
	for e := uint64(2); e <= epochs; e++ {
		next := shapes[e%2].Clone()
		next.Epoch = e
		if !c.Update(next) {
			t.Errorf("epoch %d not adopted over %d", e, e-1)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if c.Epoch() != epochs {
		t.Fatalf("cache epoch %d, want %d", c.Epoch(), epochs)
	}
}

// FuzzPlacement drives the map codec and command application with
// arbitrary bytes: decoding must never panic, every successfully
// decoded map must validate and re-encode canonically, and applying a
// decoded command to it must yield either an error or another valid
// map.
func FuzzPlacement(f *testing.F) {
	seedMap := func(m *Map) { f.Add(m.Encode(), EncodeCmd(Cmd{Kind: CmdSplit, Group: 0, To: 1})) }
	m2, _ := Bootstrap(2, 4, 4)
	seedMap(m2)
	m1, _ := Bootstrap(1, 1, 1)
	seedMap(m1)
	if split, err := (Cmd{Kind: CmdSplit, Group: 0, To: 2}).Apply(m2); err == nil {
		f.Add(split.Encode(), EncodeCmd(Cmd{Kind: CmdMerge, Group: 1, To: 0}))
	}
	f.Add([]byte{1, 0, 0}, []byte{1, 9})

	f.Fuzz(func(t *testing.T, mapBytes, cmdBytes []byte) {
		m, err := DecodeMap(mapBytes)
		if err != nil {
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("decoded map fails Validate: %v", verr)
		}
		re := m.Encode()
		if !bytes.Equal(re, mapBytes) {
			t.Fatalf("decode/encode not canonical: %x != %x", re, mapBytes)
		}
		// Ownership must be total regardless of map shape.
		for _, h := range []uint64{0, 1, math.MaxUint64 / 2, math.MaxUint64} {
			if g := m.OwnerHash(h); !m.provisioned(g) {
				t.Fatalf("OwnerHash(%#x) = unprovisioned %v", h, g)
			}
		}
		cmd, err := DecodeCmd(cmdBytes)
		if err != nil {
			return
		}
		next, err := cmd.Apply(m)
		if err != nil {
			return
		}
		if verr := next.Validate(); verr != nil {
			t.Fatalf("Apply produced invalid map: %v (cmd %+v)", verr, cmd)
		}
		if next.Epoch != m.Epoch+1 {
			t.Fatalf("Apply bumped epoch %d -> %d", m.Epoch, next.Epoch)
		}
		if _, err := DecodeMap(next.Encode()); err != nil {
			t.Fatalf("successor map does not round trip: %v", err)
		}
	})
}
