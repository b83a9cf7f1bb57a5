package replica

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/mlog"
	"repro/internal/statemachine"
)

func req(client ids.ClientID, ts uint64) *message.Request {
	return &message.Request{Op: []byte("op"), Timestamp: ts, Client: client}
}

func TestPendingPerSlotTimers(t *testing.T) {
	clk := clock.NewVirtual()
	p := NewPending(clk)
	tau := 100 * time.Millisecond

	p.Mark(RelaySentinel)
	clk.Advance(tau)
	p.Mark(1) // stalled
	clk.Advance(2 * tau)
	p.Mark(2) // fresh
	now := clk.Now()

	if got := p.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2 (sentinel excluded)", got)
	}
	// Re-marking must not refresh the original arming time.
	p.Mark(1)
	seq, ok := p.Expired(now, tau)
	if !ok {
		t.Fatal("stalled slot not reported expired")
	}
	// The sentinel is older still, so it is the oldest expired entry;
	// slot 1 must surface once the sentinel clears.
	if seq != RelaySentinel {
		t.Fatalf("Expired = %d, want the relay sentinel (oldest)", seq)
	}
	p.Clear(RelaySentinel)
	if seq, ok = p.Expired(now, tau); !ok || seq != 1 {
		t.Fatalf("Expired = %d/%v, want slot 1", seq, ok)
	}
	// Clearing a fresh neighbor must not forgive the stalled slot.
	p.Clear(2)
	if _, ok = p.Expired(now, tau); !ok {
		t.Fatal("clearing slot 2 masked the stalled slot 1")
	}
	p.Clear(1)
	if _, ok = p.Expired(now, tau); ok {
		t.Fatal("expired after all slots cleared")
	}
	p.Mark(3)
	p.Reset()
	if p.Len() != 0 || p.InFlight() != 0 {
		t.Fatal("Reset left armed timers behind")
	}
}

// TestExecutorGapHandling: the pipeline commits n and n+2 before n+1;
// execution must stop at the gap, report the parked backlog, and apply
// everything in order — each request exactly once — when the gap fills.
func TestExecutorGapHandling(t *testing.T) {
	l := mlog.New(64)
	x := NewExecutor(statemachine.NewKVStore(), 16)

	commitBatch(t, l, 1, []*message.Request{
		{Op: statemachine.EncodePut("a", []byte("1")), Timestamp: 1, Client: 0},
	})
	commitBatch(t, l, 3, []*message.Request{
		{Op: statemachine.EncodePut("c", []byte("3")), Timestamp: 1, Client: 2},
	})

	var order []uint64
	onExec := func(seq uint64, _ *message.Request, _ []byte) { order = append(order, seq) }

	if n := x.ExecuteReady(l, onExec); n != 1 {
		t.Fatalf("executed %d slots, want 1 (slot 3 is behind the gap)", n)
	}
	if x.LastExecuted() != 1 {
		t.Fatalf("cursor %d, want 1", x.LastExecuted())
	}
	if got := x.Backlog(l); got != 1 {
		t.Fatalf("Backlog = %d, want 1 (slot 3 parked)", got)
	}

	// Slot 2 commits late; both it and the parked slot 3 execute, in
	// sequence order.
	commitBatch(t, l, 2, []*message.Request{
		{Op: statemachine.EncodePut("b", []byte("2")), Timestamp: 1, Client: 1},
	})
	if n := x.ExecuteReady(l, onExec); n != 2 {
		t.Fatalf("executed %d slots after gap filled, want 2", n)
	}
	want := []uint64{1, 2, 3}
	for i, seq := range order {
		if seq != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
	if got := x.Backlog(l); got != 0 {
		t.Fatalf("Backlog = %d after drain, want 0", got)
	}
	// Exactly-once across the gap: nothing re-executes.
	if n := x.ExecuteReady(l, onExec); n != 0 || len(order) != 3 {
		t.Fatalf("re-execution after drain: %d slots, %d callbacks", n, len(order))
	}
}
