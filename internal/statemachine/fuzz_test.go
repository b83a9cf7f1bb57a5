package statemachine

import (
	"bytes"
	"testing"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/placement"
)

// FuzzKVApply hammers the KV store's untrusted-input surfaces. The
// operation bytes a replica applies arrive through consensus, but they
// originate at clients — any client can submit arbitrary bytes, and
// every replica must make the identical, non-crashing decision about
// them. The snapshot path is equally untrusted during state transfer: a
// Byzantine peer can ship arbitrary bytes as a "snapshot" (the digest
// check happens at a different layer). So the target drives, per input:
//
//   - KVOpKey: must never panic, and an extracted key must be in bounds.
//   - Apply: must never panic and must always return a decodable result.
//   - Apply determinism: the same op on an equal store yields the same
//     result and the same successor state (the state-machine contract).
//   - Snapshot/Restore round trip: post-Apply state survives
//     serialization canonically.
//   - Restore on the raw input: arbitrary bytes either error or restore
//     to a store whose snapshot is canonical (Restore→Snapshot→Restore
//     is a fixed point).
func FuzzKVApply(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeGet("k"))
	f.Add(EncodePut("k", []byte("value")))
	f.Add(EncodeDelete("k"))
	f.Add(EncodeAdd("counter", 42))
	f.Add(EncodePut("", nil))
	f.Add([]byte{0xFF, 0, 0, 0, 0})
	txid := TxID{Client: 3, Seq: 9}
	f.Add(EncodeTxPrepare(txid, []ids.GroupID{0, 1}, [][]byte{EncodePut("a", []byte("x"))}))
	f.Add(EncodeTxCommit(txid))
	f.Add(EncodeTxAbort(txid))
	f.Add(EncodeTxDecide(txid, true))
	f.Add(EncodeTxStatus(txid))
	f.Add(EncodeScan("a", "z", 2))
	f.Add(EncodeScan("", "", 0))
	boot, err := placement.Bootstrap(1, 2, 3)
	if err != nil {
		f.Fatal(err)
	}
	split := placement.Cmd{Kind: placement.CmdSplit, Group: 0, To: 1}
	next, err := split.Apply(boot)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodePlaceInit(0, boot))
	f.Add(EncodePlaceSeal(next))
	f.Add(EncodePlaceExport(next.Epoch, "", 2))
	f.Add(EncodePlaceInstall(next, []placement.Pair{{Key: "k", Value: []byte("v")}}, true, crypto.Digest{1}))
	f.Add(EncodePlaceComplete(next.Epoch))
	f.Add(EncodeMetaInit(boot))
	f.Add(EncodeMetaApply(split))
	f.Add(EncodeMetaDone(next.Epoch))
	f.Add(EncodeMetaGet())
	// Valid snapshot seeds so the Restore arm starts somewhere useful:
	// a small store, and one holding every section.
	seedKV := NewKVStore()
	seedKV.Apply(EncodePut("a", []byte("1")))
	seedKV.Apply(EncodePut("b", []byte("2")))
	f.Add(seedKV.Snapshot())
	f.Add(AllSections(f).Snapshot())

	f.Fuzz(func(t *testing.T, in []byte) {
		// Two stores with identical contents: determinism harness.
		kv1 := NewKVStore()
		kv2 := NewKVStore()
		for _, pre := range [][]byte{
			EncodePut("a", []byte("1")),
			EncodePut("counter", []byte{0, 0, 0, 0, 0, 0, 0, 5}),
		} {
			kv1.Apply(pre)
			kv2.Apply(pre)
		}

		if key, ok := KVOpKey(in); ok && len(key) > len(in) {
			t.Fatalf("extracted key longer than the operation: %d > %d", len(key), len(in))
		}

		r1 := kv1.Apply(in)
		r2 := kv2.Apply(in)
		if !bytes.Equal(r1, r2) {
			t.Fatalf("Apply not deterministic: %x vs %x", r1, r2)
		}
		status, _ := DecodeResult(r1)
		switch status {
		case KVOK, KVNotFound, KVBadOp, KVLocked, TxVoteYes, TxVoteNo:
		default:
			t.Fatalf("Apply returned undecodable status %d", status)
		}

		// Post-Apply state round-trips through the snapshot codec.
		snap1 := kv1.Snapshot()
		if !bytes.Equal(snap1, kv2.Snapshot()) {
			t.Fatal("equal stores produced different snapshots")
		}
		back := NewKVStore()
		if err := back.Restore(snap1); err != nil {
			t.Fatalf("own snapshot rejected: %v", err)
		}
		if !bytes.Equal(back.Snapshot(), snap1) {
			t.Fatal("snapshot round trip not canonical")
		}

		// Arbitrary bytes into Restore: error or canonical fixed point,
		// never a panic.
		hostile := NewKVStore()
		if err := hostile.Restore(in); err == nil {
			again := hostile.Snapshot()
			reread := NewKVStore()
			if err := reread.Restore(again); err != nil {
				t.Fatalf("re-snapshot of a restored store rejected: %v", err)
			}
			if !bytes.Equal(reread.Snapshot(), again) {
				t.Fatal("restored store's snapshot not a fixed point")
			}
		}
	})
}
