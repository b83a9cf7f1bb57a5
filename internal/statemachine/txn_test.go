package statemachine

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/ids"
)

var txGroups = []ids.GroupID{0, 1}

func prep(t *testing.T, kv *KVStore, id TxID, writes ...[]byte) {
	t.Helper()
	res := kv.Apply(EncodeTxPrepare(id, txGroups, writes))
	if st, _ := DecodeResult(res); st != TxVoteYes {
		t.Fatalf("prepare %v: status %d, want TxVoteYes", id, st)
	}
}

func TestTxPrepareCommitAppliesAtomically(t *testing.T) {
	kv := NewKVStore()
	kv.Apply(EncodePut("pre", []byte("old")))
	id := TxID{Client: 1, Seq: 10}
	prep(t, kv, id,
		EncodePut("a", []byte("1")),
		EncodePut("pre", []byte("new")),
		EncodeDelete("pre"),
	)

	// Buffered writes are invisible until commit.
	if _, ok := kv.Get("a"); ok {
		t.Fatal("buffered write visible before commit")
	}
	if v, _ := kv.Get("pre"); string(v) != "old" {
		t.Fatalf("pre = %q before commit, want \"old\"", v)
	}
	if kv.Fate(id) != TxPrepared {
		t.Fatalf("fate = %d, want TxPrepared", kv.Fate(id))
	}

	// Writes are blocked on locked keys; reads pass through.
	res := kv.Apply(EncodePut("a", []byte("other")))
	st, payload := DecodeResult(res)
	if st != KVLocked {
		t.Fatalf("write on locked key: status %d, want KVLocked", st)
	}
	if holder, ok := DecodeLockHolder(payload); !ok || holder != id {
		t.Fatalf("lock holder = %v (%v), want %v", holder, ok, id)
	}
	if st, _ := DecodeResult(kv.Apply(EncodeGet("pre"))); st != KVOK {
		t.Fatal("read on locked key blocked")
	}

	if st, pl := DecodeResult(kv.Apply(EncodeTxCommit(id))); st != KVOK || pl[0] != TxCommitted {
		t.Fatalf("commit: status %d payload %v", st, pl)
	}
	// All writes applied in order: a=1, pre overwritten then deleted.
	if v, _ := kv.Get("a"); string(v) != "1" {
		t.Fatalf("a = %q after commit", v)
	}
	if _, ok := kv.Get("pre"); ok {
		t.Fatal("deleted key survived commit")
	}
	// Locks released.
	if st, _ := DecodeResult(kv.Apply(EncodePut("a", []byte("2")))); st != KVOK {
		t.Fatalf("write after commit: status %d", st)
	}
	// Idempotent re-commit; mismatched abort rejected.
	if st, pl := DecodeResult(kv.Apply(EncodeTxCommit(id))); st != KVOK || pl[0] != TxCommitted {
		t.Fatalf("re-commit: status %d", st)
	}
	if st, _ := DecodeResult(kv.Apply(EncodeTxAbort(id))); st != KVBadOp {
		t.Fatalf("abort after commit: status %d, want KVBadOp", st)
	}
}

func TestTxAbortDropsWritesAndReleasesLocks(t *testing.T) {
	kv := NewKVStore()
	id := TxID{Client: 2, Seq: 1}
	prep(t, kv, id, EncodePut("x", []byte("v")))
	if st, pl := DecodeResult(kv.Apply(EncodeTxAbort(id))); st != KVOK || pl[0] != TxAborted {
		t.Fatalf("abort: status %d", st)
	}
	if _, ok := kv.Get("x"); ok {
		t.Fatal("aborted write applied")
	}
	if st, _ := DecodeResult(kv.Apply(EncodePut("x", []byte("v")))); st != KVOK {
		t.Fatal("lock survived abort")
	}
	// A late prepare of the aborted transaction must vote no.
	res := kv.Apply(EncodeTxPrepare(id, txGroups, [][]byte{EncodePut("y", nil)}))
	if st, _ := DecodeResult(res); st != TxVoteNo {
		t.Fatalf("re-prepare after abort: status %d, want TxVoteNo", st)
	}
}

func TestTxPrepareConflictVotesNoAcquiringNothing(t *testing.T) {
	kv := NewKVStore()
	first := TxID{Client: 1, Seq: 1}
	second := TxID{Client: 2, Seq: 1}
	prep(t, kv, first, EncodePut("shared", []byte("1")))

	res := kv.Apply(EncodeTxPrepare(second, txGroups, [][]byte{
		EncodePut("free", []byte("2")),
		EncodePut("shared", []byte("2")),
	}))
	st, payload := DecodeResult(res)
	if st != TxVoteNo {
		t.Fatalf("conflicting prepare: status %d, want TxVoteNo", st)
	}
	if blocker, ok := DecodeLockHolder(payload); !ok || blocker != first {
		t.Fatalf("blocker = %v, want %v", blocker, first)
	}
	// All-or-nothing: the non-conflicting key was not locked either.
	if st, _ := DecodeResult(kv.Apply(EncodePut("free", []byte("w")))); st != KVOK {
		t.Fatal("no-voting prepare leaked a lock")
	}
	// Idempotent re-prepare of the holder still votes yes.
	prep(t, kv, first, EncodePut("shared", []byte("1")))
}

func TestTxPrepareRejectsNonWrites(t *testing.T) {
	kv := NewKVStore()
	id := TxID{Client: 1, Seq: 1}
	for _, bad := range [][]byte{
		EncodeGet("k"),        // reads cannot be buffered
		{kvOpPut, 0, 0, 0, 1}, // truncated
		{0xEE, 0, 0, 0, 0},    // unknown opcode
	} {
		res := kv.Apply(EncodeTxPrepare(id, txGroups, [][]byte{bad}))
		if st, _ := DecodeResult(res); st != KVBadOp {
			t.Fatalf("prepare with write %x: status %d, want KVBadOp", bad, st)
		}
	}
}

// TestTxPrepareRejectsEmptyParticipants: recovery derives the
// coordinator shard from the stored participant list, so a prepare
// without one would create locks nothing could ever release.
func TestTxPrepareRejectsEmptyParticipants(t *testing.T) {
	kv := NewKVStore()
	id := TxID{Client: 1, Seq: 2}
	res := kv.Apply(EncodeTxPrepare(id, nil, [][]byte{EncodePut("k", []byte("v"))}))
	if st, _ := DecodeResult(res); st != KVBadOp {
		t.Fatalf("empty participant list: status %d, want KVBadOp", st)
	}
	if st, _ := DecodeResult(kv.Apply(EncodePut("k", []byte("w")))); st != KVOK {
		t.Fatal("rejected prepare leaked a lock")
	}
}

func TestTxDecideFirstWriterWins(t *testing.T) {
	kv := NewKVStore()
	id := TxID{Client: 4, Seq: 2}
	if st, pl := DecodeResult(kv.Apply(EncodeTxDecide(id, false))); st != KVOK || pl[0] != TxAborted {
		t.Fatalf("first decide: %d %v", st, pl)
	}
	// The racing commit decision gets the recorded abort back.
	if st, pl := DecodeResult(kv.Apply(EncodeTxDecide(id, true))); st != KVOK || pl[0] != TxAborted {
		t.Fatalf("second decide: %d %v, want recorded TxAborted", st, pl)
	}
}

func TestTxCommitUnknownIsNotFound(t *testing.T) {
	kv := NewKVStore()
	id := TxID{Client: 9, Seq: 9}
	if st, _ := DecodeResult(kv.Apply(EncodeTxCommit(id))); st != KVNotFound {
		t.Fatalf("commit of unknown txn: status %d, want KVNotFound", st)
	}
	// Presumed abort: aborting an unknown transaction records the abort.
	if st, _ := DecodeResult(kv.Apply(EncodeTxAbort(id))); st != KVOK {
		t.Fatal("abort of unknown txn failed")
	}
	if kv.Fate(id) != TxAborted {
		t.Fatalf("fate = %d, want TxAborted", kv.Fate(id))
	}
}

func TestTxStatusReportsParticipants(t *testing.T) {
	kv := NewKVStore()
	id := TxID{Client: 5, Seq: 5}

	st, pl := DecodeResult(kv.Apply(EncodeTxStatus(id)))
	if fate, _, ok := DecodeTxStatusReply(pl); st != KVOK || !ok || fate != TxUnknown {
		t.Fatalf("status of unknown txn: %d/%d", st, fate)
	}

	prep(t, kv, id, EncodePut("k", []byte("v")))
	_, pl = DecodeResult(kv.Apply(EncodeTxStatus(id)))
	fate, parts, ok := DecodeTxStatusReply(pl)
	if !ok || fate != TxPrepared {
		t.Fatalf("status of prepared txn: fate %d ok %v", fate, ok)
	}
	if len(parts) != 2 || parts[0] != 0 || parts[1] != 1 {
		t.Fatalf("participants = %v, want [0 1]", parts)
	}

	// In-doubt beats a decision record: with both present (decision
	// recorded here but locks not yet released) recovery must keep
	// driving the finish leg.
	kv.Apply(EncodeTxDecide(id, true))
	_, pl = DecodeResult(kv.Apply(EncodeTxStatus(id)))
	if fate, _, _ := DecodeTxStatusReply(pl); fate != TxPrepared {
		t.Fatalf("fate with pending+decided = %d, want TxPrepared", fate)
	}

	kv.Apply(EncodeTxCommit(id))
	_, pl = DecodeResult(kv.Apply(EncodeTxStatus(id)))
	if fate, _, _ := DecodeTxStatusReply(pl); fate != TxCommitted {
		t.Fatalf("fate after commit = %d, want TxCommitted", fate)
	}
}

func TestTxSnapshotCarriesInDoubtState(t *testing.T) {
	kv := NewKVStore()
	kv.Apply(EncodePut("committed", []byte("c")))
	id := TxID{Client: 7, Seq: 3}
	prep(t, kv, id, EncodePut("locked", []byte("l")))
	done := TxID{Client: 7, Seq: 1}
	kv.Apply(EncodeTxAbort(done))

	snap := kv.Snapshot()
	back := NewKVStore()
	if err := back.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !bytes.Equal(back.Snapshot(), snap) {
		t.Fatal("snapshot round trip not canonical")
	}
	// The restored replica still holds the locks...
	if st, _ := DecodeResult(back.Apply(EncodePut("locked", []byte("x")))); st != KVLocked {
		t.Fatalf("restored store lost the lock: status %d", st)
	}
	if back.Fate(id) != TxPrepared || back.Fate(done) != TxAborted {
		t.Fatalf("restored fates: %d/%d", back.Fate(id), back.Fate(done))
	}
	// ...and can still commit the in-doubt transaction.
	if st, _ := DecodeResult(back.Apply(EncodeTxCommit(id))); st != KVOK {
		t.Fatal("restored store cannot finish the in-doubt txn")
	}
	if v, _ := back.Get("locked"); string(v) != "l" {
		t.Fatalf("buffered write lost across snapshot: %q", v)
	}
}

// TestTxAddUpsertsInTransaction: a committed transaction must apply
// every buffered write — an Add whose key does not exist yet starts
// from zero instead of silently vanishing (the standalone-Add
// KVNotFound path would break all-or-nothing).
func TestTxAddUpsertsInTransaction(t *testing.T) {
	kv := NewKVStore()
	id := TxID{Client: 3, Seq: 1}
	prep(t, kv, id,
		EncodePut("fresh", []byte("v")),
		EncodeAdd("counter", 7), // key does not exist
	)
	if st, _ := DecodeResult(kv.Apply(EncodeTxCommit(id))); st != KVOK {
		t.Fatalf("commit status %d", st)
	}
	v, ok := kv.Get("counter")
	if !ok {
		t.Fatal("transactional Add on a missing key vanished at commit")
	}
	if n := binary.BigEndian.Uint64(v); n != 7 {
		t.Fatalf("counter = %d, want 7 (upsert from zero)", n)
	}
	// Standalone Add keeps its historical semantics.
	if st, _ := DecodeResult(kv.Apply(EncodeAdd("other", 1))); st != KVNotFound {
		t.Fatalf("standalone Add on missing key: status %d, want KVNotFound", st)
	}
}

// TestLegacySnapshotRefused: a snapshot that ends after its data
// section, the layout written before transactions landed, is refused and
// leaves the store as it was: Restore accepts exactly what Snapshot
// writes, the placement section alone being optional.
func TestLegacySnapshotRefused(t *testing.T) {
	var legacy []byte
	legacy = binary.BigEndian.AppendUint32(legacy, 1) // one entry
	legacy = binary.BigEndian.AppendUint32(legacy, 1)
	legacy = append(legacy, 'k')
	legacy = binary.BigEndian.AppendUint32(legacy, 1)
	legacy = append(legacy, 'v')

	kv := NewKVStore()
	kv.Apply(EncodePut("k", []byte("old")))
	if err := kv.Restore(legacy); err == nil {
		t.Fatal("data-only snapshot accepted")
	}
	if v, _ := kv.Get("k"); string(v) != "old" {
		t.Fatalf("a refused snapshot changed k to %q", v)
	}
	// Its data section followed by empty transactional sections, as
	// Snapshot writes them, restores.
	full := append(bytes.Clone(legacy), make([]byte, 4*4)...)
	if err := kv.Restore(full); err != nil {
		t.Fatal(err)
	}
	if v, _ := kv.Get("k"); string(v) != "v" {
		t.Fatalf("k = %q", v)
	}
	if !bytes.Equal(kv.Snapshot(), full) {
		t.Fatal("the restored store snapshots to other bytes")
	}
}

// TestAbortLedgerBounded: abort records evict FIFO past the cap, so
// replicated state cannot grow without bound on the churn path, and the
// per-client abort horizon keeps evicted aborts binding: a fenced
// transaction still reads as aborted, cannot be re-prepared, and —
// critically — a late TxDecide(commit) cannot re-open the decision.
// Commit records must NOT be evicted: an in-doubt participant may need
// the recorded commit to roll forward arbitrarily later.
func TestAbortLedgerBounded(t *testing.T) {
	kv := NewKVStore()
	// One committed transaction recorded before the abort flood.
	committed := TxID{Client: 9, Seq: 1}
	kv.Apply(EncodeTxDecide(committed, true))

	first := TxID{Client: 1, Seq: 1}
	for i := 0; i <= txAbortLedgerCap; i++ { // one past the cap
		kv.Apply(EncodeTxAbort(TxID{Client: 1, Seq: uint64(i + 1)}))
	}
	// The evicted abort stays binding through the horizon fence.
	if kv.Fate(first) != TxAborted {
		t.Fatalf("evicted abort not fenced: fate %d", kv.Fate(first))
	}
	if st, pl := DecodeResult(kv.Apply(EncodeTxDecide(first, true))); st != KVOK || pl[0] != TxAborted {
		t.Fatalf("late commit decision re-opened an evicted abort: %d %v", st, pl)
	}
	if st, _ := DecodeResult(kv.Apply(EncodeTxPrepare(first, txGroups, [][]byte{EncodePut("z", nil)}))); st != TxVoteNo {
		t.Fatalf("fenced transaction re-prepared: status %d", st)
	}
	if st, _ := DecodeResult(kv.Apply(EncodeTxCommit(first))); st != KVBadOp {
		t.Fatalf("commit leg for a fenced transaction: status %d, want KVBadOp", st)
	}
	last := TxID{Client: 1, Seq: uint64(txAbortLedgerCap + 1)}
	if kv.Fate(last) != TxAborted {
		t.Fatalf("newest abort missing: fate %d", kv.Fate(last))
	}
	if kv.Fate(committed) != TxCommitted {
		t.Fatalf("commit record evicted by abort churn: fate %d", kv.Fate(committed))
	}
	// Ledger order and horizon survive a snapshot round trip (eviction
	// is part of canonical state).
	back := NewKVStore()
	if err := back.Restore(kv.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Snapshot(), kv.Snapshot()) {
		t.Fatal("ledger/horizon lost across snapshot round trip")
	}
	if back.Fate(first) != TxAborted {
		t.Fatalf("restored horizon does not fence: fate %d", back.Fate(first))
	}
}

// TestTxFinishHonorsRecordedDecisionWhilePending: a finish leg that
// contradicts the decision recorded on the same shard is refused
// without touching the pending state, so opposite legs sent to
// different shards cannot split an outcome.
func TestTxFinishHonorsRecordedDecisionWhilePending(t *testing.T) {
	kv := NewKVStore()
	id := TxID{Client: 2, Seq: 2}
	prep(t, kv, id, EncodePut("k", []byte("v")))
	kv.Apply(EncodeTxDecide(id, false)) // this shard recorded the abort
	if st, _ := DecodeResult(kv.Apply(EncodeTxCommit(id))); st != KVBadOp {
		t.Fatalf("commit contradicting a recorded abort: status %d, want KVBadOp", st)
	}
	if kv.Fate(id) != TxPrepared {
		t.Fatalf("refused leg mutated pending state: fate %d", kv.Fate(id))
	}
	if st, _ := DecodeResult(kv.Apply(EncodeTxAbort(id))); st != KVOK {
		t.Fatal("matching abort leg refused")
	}
	if _, ok := kv.Get("k"); ok {
		t.Fatal("aborted write applied")
	}
}

func TestIsKVWrite(t *testing.T) {
	for _, w := range [][]byte{
		EncodePut("k", []byte("v")), EncodeDelete("k"), EncodeAdd("k", 1),
	} {
		if !IsKVWrite(w) {
			t.Errorf("IsKVWrite(%x) = false", w)
		}
	}
	for _, notW := range [][]byte{
		nil, EncodeGet("k"), {kvOpPut}, EncodeTxCommit(TxID{}),
	} {
		if IsKVWrite(notW) {
			t.Errorf("IsKVWrite(%x) = true", notW)
		}
	}
}
