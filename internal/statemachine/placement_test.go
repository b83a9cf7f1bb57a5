package statemachine

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/placement"
)

// splitScenario is the canonical handoff fixture: group 0 owns the whole
// hash space at epoch 1, and the split at the midpoint moves the upper
// half to spare group 1 at epoch 2.
func splitScenario(t *testing.T) (boot, next *placement.Map) {
	t.Helper()
	boot, err := placement.Bootstrap(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	next, err = placement.Cmd{Kind: placement.CmdSplit, Group: 0, To: 1}.Apply(boot)
	if err != nil {
		t.Fatal(err)
	}
	if next.Pending == nil || next.Pending.From != 0 || next.Pending.To != 1 {
		t.Fatalf("split produced pending %+v", next.Pending)
	}
	return boot, next
}

// placedStore builds a KV store fenced as group g under map m.
func placedStore(t *testing.T, g ids.GroupID, m *placement.Map) *KVStore {
	t.Helper()
	kv := NewKVStore()
	if st, _ := DecodeResult(kv.Apply(EncodePlaceInit(g, m))); st != KVOK {
		t.Fatalf("place init of group %v: status %d", g, st)
	}
	return kv
}

// splitKeys returns n keys inside the migrating range and n outside it.
func splitKeys(t *testing.T, rng placement.Range, n int) (moved, kept []string) {
	t.Helper()
	for i := 0; len(moved) < n || len(kept) < n; i++ {
		if i > 100000 {
			t.Fatal("key search did not converge")
		}
		k := fmt.Sprintf("key-%d", i)
		if rng.Contains(placement.Hash(k)) {
			moved = append(moved, k)
		} else {
			kept = append(kept, k)
		}
	}
	return moved[:n], kept[:n]
}

// exportAll drives the paged export of a sealed range, start-key
// pagination exactly as the controller does it.
func exportAll(t *testing.T, kv *KVStore, epoch uint64, limit int) [][2]string {
	t.Helper()
	var out [][2]string
	start := ""
	for {
		res := kv.Apply(EncodePlaceExport(epoch, start, limit))
		pairs, more, err := DecodeScanResult(res)
		if err != nil {
			t.Fatalf("export page from %q: %v", start, err)
		}
		for _, p := range pairs {
			out = append(out, [2]string{p.Key, string(p.Value)})
		}
		if !more {
			return out
		}
		start = pairs[len(pairs)-1].Key + "\x00"
	}
}

func TestPlacementHandoffLifecycle(t *testing.T) {
	boot, next := splitScenario(t)
	src := placedStore(t, 0, boot)
	dst := placedStore(t, 1, boot)
	moved, kept := splitKeys(t, next.Pending.Range, 5)

	for _, k := range append(append([]string(nil), moved...), kept...) {
		if st, _ := DecodeResult(src.Apply(EncodePut(k, []byte("v-"+k)))); st != KVOK {
			t.Fatalf("put %q on owner: status %d", k, st)
		}
	}
	// The spare owns nothing: it fences every key and attaches its map.
	res := dst.Apply(EncodePut(moved[0], []byte("x")))
	if st, _ := DecodeResult(res); st != KVWrongEpoch {
		t.Fatalf("write on spare: status %d, want KVWrongEpoch", st)
	}
	if m, err := DecodeMapResult(res); err != nil || m.Epoch != boot.Epoch {
		t.Fatalf("rejection map: %v / %+v", err, m)
	}

	// Seal freezes the outgoing range and reports its manifest.
	sr, err := DecodeSealResult(src.Apply(EncodePlaceSeal(next)))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Done || sr.Count != uint64(len(moved)) {
		t.Fatalf("seal result %+v, want count %d", sr, len(moved))
	}
	if src.PlacementEpoch() != next.Epoch {
		t.Fatalf("source epoch %d after seal, want %d", src.PlacementEpoch(), next.Epoch)
	}
	// From the seal on, the source fences the range but serves the rest.
	if st, _ := DecodeResult(src.Apply(EncodePut(moved[0], []byte("late")))); st != KVWrongEpoch {
		t.Fatalf("in-range write after seal: status %d, want KVWrongEpoch", st)
	}
	if st, _ := DecodeResult(src.Apply(EncodeGet(kept[0]))); st != KVOK {
		t.Fatalf("retained read after seal: status %d", st)
	}
	// Scans skip the sealed range so the new owner's copy is never
	// double-counted.
	pairs, _, err := DecodeScanResult(src.Apply(EncodeScan("", "", 0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != len(kept) {
		t.Fatalf("scan returned %d pairs during handoff, want %d retained", len(pairs), len(kept))
	}

	// Page the range across with a tiny page size to exercise pagination.
	exported := exportAll(t, src, next.Epoch, 2)
	if len(exported) != len(moved) {
		t.Fatalf("exported %d pairs, want %d", len(exported), len(moved))
	}
	for i, kvp := range exported {
		done := i == len(exported)-1
		var digest crypto.Digest
		if done {
			digest = crypto.Digest(sr.Digest)
		}
		page := []placement.Pair{{Key: kvp[0], Value: []byte(kvp[1])}}
		code, err := DecodeInstallResult(dst.Apply(EncodePlaceInstall(next, page, done, digest)))
		if err != nil {
			t.Fatalf("install page %d: %v", i, err)
		}
		want := PlaceInstallStaged
		if done {
			want = PlaceInstallDone
		}
		if code != want {
			t.Fatalf("install page %d: code %d, want %d", i, code, want)
		}
		if !done {
			// Mid-import the target still fences the range: staged pairs
			// must stay invisible until the digest verifies.
			if st, _ := DecodeResult(dst.Apply(EncodeGet(kvp[0]))); st != KVWrongEpoch {
				t.Fatalf("read of staged key: status %d, want KVWrongEpoch", st)
			}
		}
	}
	// Install committed: the new owner serves the range.
	for _, k := range moved {
		st, v := DecodeResult(dst.Apply(EncodeGet(k)))
		if st != KVOK || string(v) != "v-"+k {
			t.Fatalf("migrated read %q: status %d value %q", k, st, v)
		}
	}

	// Complete purges the source copy; the fence stays.
	if st, _ := DecodeResult(src.Apply(EncodePlaceComplete(next.Epoch))); st != KVOK {
		t.Fatalf("complete: status %d", st)
	}
	if got := src.Len(); got != len(kept) {
		t.Fatalf("source holds %d keys after purge, want %d", got, len(kept))
	}
	if st, _ := DecodeResult(src.Apply(EncodeGet(moved[0]))); st != KVWrongEpoch {
		t.Fatalf("migrated read on source: status %d, want KVWrongEpoch", st)
	}

	// Every step is idempotent — the resumed-controller replay path.
	sr2, err := DecodeSealResult(src.Apply(EncodePlaceSeal(next)))
	if err != nil || !sr2.Done {
		t.Fatalf("re-seal after completion: %+v / %v (want Done)", sr2, err)
	}
	code, err := DecodeInstallResult(dst.Apply(EncodePlaceInstall(next, nil, true, crypto.Digest{})))
	if err != nil || code != PlaceInstallAlready {
		t.Fatalf("re-install: code %d / %v, want PlaceInstallAlready", code, err)
	}
	if st, _ := DecodeResult(src.Apply(EncodePlaceComplete(next.Epoch))); st != KVOK {
		t.Fatalf("re-complete: status %d", st)
	}
}

func TestPlacementSealWaitsForPreparedTx(t *testing.T) {
	boot, next := splitScenario(t)
	src := placedStore(t, 0, boot)
	moved, _ := splitKeys(t, next.Pending.Range, 1)

	id := TxID{Client: 3, Seq: 7}
	prep(t, src, id, EncodePut(moved[0], []byte("tx")))

	res := src.Apply(EncodePlaceSeal(next))
	st, payload := DecodeResult(res)
	if st != KVLocked {
		t.Fatalf("seal over prepared tx: status %d, want KVLocked", st)
	}
	holder, ok := DecodeLockHolder(payload)
	if !ok || holder != id {
		t.Fatalf("lock holder %v (ok=%v), want %v", holder, ok, id)
	}

	// The transaction commits on the OLD owner — it was prepared before
	// the seal, so it must land entirely here — and then the seal's
	// manifest includes its write.
	if st, _ := DecodeResult(src.Apply(EncodeTxCommit(id))); st != KVOK {
		t.Fatalf("commit: status %d", st)
	}
	sr, err := DecodeSealResult(src.Apply(EncodePlaceSeal(next)))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Count != 1 {
		t.Fatalf("sealed %d pairs, want the committed tx write", sr.Count)
	}
}

// TestPlacementSealLockedDeterministic pins that a seal blocked by
// several prepared transactions answers the same bytes on every replica
// in the same state: the holder of the smallest locked key in range,
// never whichever lock map iteration reaches first.
func TestPlacementSealLockedDeterministic(t *testing.T) {
	boot, next := splitScenario(t)
	src := placedStore(t, 0, boot)
	moved, _ := splitKeys(t, next.Pending.Range, 8)
	smallest := 0
	for i, k := range moved {
		prep(t, src, TxID{Client: 3, Seq: uint64(i + 1)}, EncodePut(k, []byte("tx")))
		if k < moved[smallest] {
			smallest = i
		}
	}
	snap := src.Snapshot()
	want := TxID{Client: 3, Seq: uint64(smallest + 1)}
	var first []byte
	for i := 0; i < 24; i++ {
		kv := NewKVStore()
		if err := kv.Restore(snap); err != nil {
			t.Fatal(err)
		}
		res := kv.Apply(EncodePlaceSeal(next))
		if i == 0 {
			first = res
			st, payload := DecodeResult(res)
			if holder, ok := DecodeLockHolder(payload); st != KVLocked || !ok || holder != want {
				t.Fatalf("seal: status %d holder %v (ok=%v), want KVLocked by %v", st, holder, ok, want)
			}
		} else if !bytes.Equal(res, first) {
			t.Fatalf("store %d sealed to %x, store 0 to %x", i, res, first)
		}
	}
}

func TestPlacementInstallDigestMismatchRestarts(t *testing.T) {
	boot, next := splitScenario(t)
	src := placedStore(t, 0, boot)
	dst := placedStore(t, 1, boot)
	moved, _ := splitKeys(t, next.Pending.Range, 3)
	for _, k := range moved {
		src.Apply(EncodePut(k, []byte("v-"+k)))
	}
	sr, err := DecodeSealResult(src.Apply(EncodePlaceSeal(next)))
	if err != nil {
		t.Fatal(err)
	}

	pairs := make([]placement.Pair, 0, len(moved))
	for _, kvp := range exportAll(t, src, next.Epoch, 100) {
		pairs = append(pairs, placement.Pair{Key: kvp[0], Value: []byte(kvp[1])})
	}
	// Final page missing one pair: the digest cannot verify, the staging
	// area is dropped, and nothing merged.
	if st, _ := DecodeResult(dst.Apply(EncodePlaceInstall(next, pairs[:len(pairs)-1], true, crypto.Digest(sr.Digest)))); st != KVBadOp {
		t.Fatalf("short install: status %d, want KVBadOp", st)
	}
	if st, _ := DecodeResult(dst.Apply(EncodeGet(moved[0]))); st != KVWrongEpoch {
		t.Fatalf("after failed install: status %d, want range still fenced", st)
	}
	// The controller restarts the copy from the first page and succeeds.
	code, err := DecodeInstallResult(dst.Apply(EncodePlaceInstall(next, pairs, true, crypto.Digest(sr.Digest))))
	if err != nil || code != PlaceInstallDone {
		t.Fatalf("retried install: code %d / %v", code, err)
	}
	if st, v := DecodeResult(dst.Apply(EncodeGet(moved[0]))); st != KVOK || string(v) != "v-"+moved[0] {
		t.Fatalf("post-retry read: status %d value %q", st, v)
	}
}

func TestPlacementSnapshotRoundTripMidHandoff(t *testing.T) {
	boot, next := splitScenario(t)
	src := placedStore(t, 0, boot)
	dst := placedStore(t, 1, boot)
	moved, kept := splitKeys(t, next.Pending.Range, 3)
	for _, k := range append(append([]string(nil), moved...), kept...) {
		src.Apply(EncodePut(k, []byte("v-"+k)))
	}
	sr, err := DecodeSealResult(src.Apply(EncodePlaceSeal(next)))
	if err != nil {
		t.Fatal(err)
	}
	// Stage one page on the target, then snapshot both sides mid-flight —
	// the state a kill -9 plus state transfer must reconstruct exactly.
	first := exportAll(t, src, next.Epoch, 1)[0]
	if _, err := DecodeInstallResult(dst.Apply(EncodePlaceInstall(next,
		[]placement.Pair{{Key: first[0], Value: []byte(first[1])}}, false, crypto.Digest{}))); err != nil {
		t.Fatal(err)
	}

	for name, kv := range map[string]*KVStore{"source": src, "target": dst} {
		snap := kv.Snapshot()
		clone := NewKVStore()
		if err := clone.Restore(snap); err != nil {
			t.Fatalf("%s restore: %v", name, err)
		}
		if got := clone.Snapshot(); !bytes.Equal(got, snap) {
			t.Fatalf("%s snapshot not canonical across restore", name)
		}
		if clone.PlacementEpoch() != kv.PlacementEpoch() {
			t.Fatalf("%s epoch %d after restore, want %d", name, clone.PlacementEpoch(), kv.PlacementEpoch())
		}
	}

	// The restored pair finishes the migration as if nothing happened.
	src2, dst2 := NewKVStore(), NewKVStore()
	if err := src2.Restore(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := dst2.Restore(dst.Snapshot()); err != nil {
		t.Fatal(err)
	}
	pairs := make([]placement.Pair, 0, len(moved))
	for _, kvp := range exportAll(t, src2, next.Epoch, 100) {
		pairs = append(pairs, placement.Pair{Key: kvp[0], Value: []byte(kvp[1])})
	}
	code, err := DecodeInstallResult(dst2.Apply(EncodePlaceInstall(next, pairs, true, crypto.Digest(sr.Digest))))
	if err != nil || code != PlaceInstallDone {
		t.Fatalf("install after restore: code %d / %v", code, err)
	}
	if st, _ := DecodeResult(src2.Apply(EncodePlaceComplete(next.Epoch))); st != KVOK {
		t.Fatalf("complete after restore: status %d", st)
	}
	for _, k := range moved {
		if st, _ := DecodeResult(dst2.Apply(EncodeGet(k))); st != KVOK {
			t.Fatalf("migrated key %q unreadable after restored handoff: status %d", k, st)
		}
	}
}

func TestPlacementSnapshotAbsentStaysLegacy(t *testing.T) {
	kv := NewKVStore()
	kv.Apply(EncodePut("a", []byte("1")))
	snap := kv.Snapshot()

	clone := NewKVStore()
	if err := clone.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if clone.PlacementEpoch() != 0 {
		t.Fatalf("legacy snapshot produced placement epoch %d", clone.PlacementEpoch())
	}
	if !bytes.Equal(clone.Snapshot(), snap) {
		t.Fatal("legacy snapshot not byte-stable across restore")
	}
	// And a legacy store never fences.
	if st, _ := DecodeResult(clone.Apply(EncodeGet("a"))); st != KVOK {
		t.Fatalf("legacy read: status %d", st)
	}
}

func TestMetaGroupCommandLifecycle(t *testing.T) {
	boot, _ := splitScenario(t)
	kv := NewKVStore()

	if st, _ := DecodeResult(kv.Apply(EncodeMetaApply(placement.Cmd{Kind: placement.CmdSplit, Group: 0, To: 1}))); st != KVBadOp {
		t.Fatalf("apply before init: status %d, want KVBadOp", st)
	}
	if st, _ := DecodeResult(kv.Apply(EncodeMetaGet())); st != KVNotFound {
		t.Fatalf("get before init: status %d, want KVNotFound", st)
	}
	m, err := DecodeMapResult(kv.Apply(EncodeMetaInit(boot)))
	if err != nil || m.Epoch != boot.Epoch {
		t.Fatalf("init: %+v / %v", m, err)
	}
	// Replayed init changes nothing.
	if m, _ := DecodeMapResult(kv.Apply(EncodeMetaInit(boot))); m.Epoch != boot.Epoch {
		t.Fatalf("re-init bumped epoch to %d", m.Epoch)
	}

	next, err := DecodeMapResult(kv.Apply(EncodeMetaApply(placement.Cmd{Kind: placement.CmdSplit, Group: 0, To: 1})))
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch != boot.Epoch+1 || next.Pending == nil {
		t.Fatalf("split applied: %+v", next)
	}

	// One migration at a time: further commands bounce with the current
	// map attached.
	res := kv.Apply(EncodeMetaApply(placement.Cmd{Kind: placement.CmdSetReplicas, Group: 1, Replicas: 5}))
	if st, _ := DecodeResult(res); st != KVWrongEpoch {
		t.Fatalf("apply while pending: status %d, want KVWrongEpoch", st)
	}
	if cur, err := DecodeMapResult(res); err != nil || cur.Epoch != next.Epoch {
		t.Fatalf("pending rejection map: %+v / %v", cur, err)
	}

	done, err := DecodeMapResult(kv.Apply(EncodeMetaDone(next.Epoch)))
	if err != nil || done.Pending != nil {
		t.Fatalf("done: %+v / %v", done, err)
	}
	// Retiring is idempotent; a stale retire is not an error.
	if st, _ := DecodeResult(kv.Apply(EncodeMetaDone(next.Epoch))); st != KVOK {
		t.Fatalf("re-done: status %d", st)
	}

	after, err := DecodeMapResult(kv.Apply(EncodeMetaApply(placement.Cmd{Kind: placement.CmdSetReplicas, Group: 1, Replicas: 5})))
	if err != nil || after.Epoch != done.Epoch+1 {
		t.Fatalf("apply after done: %+v / %v", after, err)
	}
}
