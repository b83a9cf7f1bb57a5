package replica

import (
	"testing"

	"repro/internal/message"
	"repro/internal/mlog"
	"repro/internal/statemachine"
)

// commitBatch installs a committed batched proposal at seq.
func commitBatch(t *testing.T, l *mlog.Log, seq uint64, reqs []*message.Request) {
	t.Helper()
	prop := &message.Signed{
		Kind:   message.KindPrepare,
		Seq:    seq,
		Digest: message.BatchDigest(reqs),
	}
	prop.Payload = reqs
	entry := l.Entry(seq)
	if entry == nil {
		t.Fatalf("seq %d outside window", seq)
	}
	if err := entry.SetProposal(prop); err != nil {
		t.Fatal(err)
	}
	entry.MarkCommitted()
}

// TestExecuteReadyBatchedSlot proves one committed slot carrying a
// batch applies every member in order and fires onExec once per
// request — the foundation of per-request client replies.
func TestExecuteReadyBatchedSlot(t *testing.T) {
	l := mlog.New(64)
	x := NewExecutor(statemachine.NewKVStore(), 16)

	reqs := []*message.Request{
		{Op: statemachine.EncodePut("a", []byte("1")), Timestamp: 1, Client: 0},
		{Op: statemachine.EncodePut("b", []byte("2")), Timestamp: 1, Client: 1},
		{Op: statemachine.EncodePut("c", []byte("3")), Timestamp: 1, Client: 2},
	}
	commitBatch(t, l, 1, reqs)

	var seen []*message.Request
	n := x.ExecuteReady(l, func(seq uint64, req *message.Request, result []byte) {
		if seq != 1 {
			t.Errorf("exec callback seq %d, want 1", seq)
		}
		seen = append(seen, req)
	})
	if n != 1 {
		t.Fatalf("executed %d slots, want 1", n)
	}
	if x.LastExecuted() != 1 {
		t.Fatalf("cursor %d, want 1", x.LastExecuted())
	}
	if len(seen) != 3 {
		t.Fatalf("onExec fired %d times, want 3 (one per batched request)", len(seen))
	}
	for i, req := range seen {
		if req.Client != reqs[i].Client {
			t.Fatalf("batch order violated at %d: client %d, want %d", i, req.Client, reqs[i].Client)
		}
	}
}

// TestExecuteReadyBatchExactlyOnce: a request already executed for its
// client is a silent no-op inside a later batch, but the other members
// still execute.
func TestExecuteReadyBatchExactlyOnce(t *testing.T) {
	l := mlog.New(64)
	x := NewExecutor(statemachine.NewKVStore(), 16)

	dup := &message.Request{Op: statemachine.EncodePut("a", []byte("1")), Timestamp: 1, Client: 0}
	commitBatch(t, l, 1, []*message.Request{dup})
	if n := x.ExecuteReady(l, nil); n != 1 {
		t.Fatalf("executed %d, want 1", n)
	}

	fresh := &message.Request{Op: statemachine.EncodePut("b", []byte("2")), Timestamp: 2, Client: 1}
	commitBatch(t, l, 2, []*message.Request{dup, fresh})
	var fired int
	if n := x.ExecuteReady(l, func(uint64, *message.Request, []byte) { fired++ }); n != 1 {
		t.Fatalf("executed %d slots, want 1", n)
	}
	if fired != 1 {
		t.Fatalf("onExec fired %d times, want 1 (duplicate suppressed)", fired)
	}
	if x.LastExecuted() != 2 {
		t.Fatalf("cursor %d, want 2", x.LastExecuted())
	}
}

// TestExecuteReadyBatchSnapshotBoundary: checkpoints snapshot after the
// whole batch of the boundary slot has applied.
func TestExecuteReadyBatchSnapshotBoundary(t *testing.T) {
	l := mlog.New(64)
	x := NewExecutor(statemachine.NewKVStore(), 2)

	commitBatch(t, l, 1, []*message.Request{
		{Op: statemachine.EncodePut("a", []byte("1")), Timestamp: 1, Client: 0},
	})
	commitBatch(t, l, 2, []*message.Request{
		{Op: statemachine.EncodePut("b", []byte("2")), Timestamp: 1, Client: 1},
		{Op: statemachine.EncodePut("c", []byte("3")), Timestamp: 1, Client: 2},
	})
	if n := x.ExecuteReady(l, nil); n != 2 {
		t.Fatalf("executed %d slots, want 2", n)
	}
	snap, ok := x.SnapshotAt(2)
	if !ok {
		t.Fatal("no snapshot at the checkpoint boundary")
	}
	// The snapshot must contain the full batch's effect: restoring it
	// yields all three keys.
	y := NewExecutor(statemachine.NewKVStore(), 2)
	if err := y.JumpTo(2, snap); err != nil {
		t.Fatal(err)
	}
	if y.LastExecuted() != 2 {
		t.Fatalf("restored cursor %d, want 2", y.LastExecuted())
	}
}
