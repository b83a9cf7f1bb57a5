package replica

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/message"
	"repro/internal/mlog"
	"repro/internal/statemachine"
)

// intakeRig is one Intake over a virtual clock with the engine's two
// answers scripted: open is what Open returns, reject makes the next
// Propose report failure, and every proposed slot is recorded and marked
// pending under its 1-based index.
type intakeRig struct {
	t      *testing.T
	clk    *clock.Virtual
	pend   *Pending
	exec   *Executor
	in     *Intake
	open   bool
	reject bool
	slots  [][]*message.Request
}

func newIntakeRig(t *testing.T, b config.Batching, p config.Pipelining) *intakeRig {
	g := &intakeRig{t: t, clk: clock.NewVirtual(), open: true}
	g.pend = NewPending(g.clk)
	g.exec = NewExecutor(statemachine.NewCounter(), 64)
	g.in = NewIntake(IntakeConfig{
		Batching: b, Pipelining: p, Clock: g.clk, Pending: g.pend, Exec: g.exec,
		Open: func() bool { return g.open },
		Propose: func(reqs []*message.Request) bool {
			if g.reject {
				g.reject = false
				return false
			}
			g.slots = append(g.slots, reqs)
			g.pend.Mark(uint64(len(g.slots)))
			return true
		},
	})
	return g
}

// admit admits timestamps from..to of client 0.
func (g *intakeRig) admit(from, to uint64) {
	for ts := from; ts <= to; ts++ {
		g.in.Admit(req(0, ts))
	}
}

// commit frees slot seq's window room the way an engine does.
func (g *intakeRig) commit(seq uint64) {
	g.pend.Clear(seq)
	g.in.Pump()
}

// want checks how many slots went out and how many requests wait.
func (g *intakeRig) want(slots, buffered int, when string) {
	g.t.Helper()
	if len(g.slots) != slots || g.in.Buffered() != buffered {
		g.t.Fatalf("%s: %d slots proposed, %d requests buffered; want %d and %d",
			when, len(g.slots), g.in.Buffered(), slots, buffered)
	}
}

// wantOrder checks the timestamps of everything proposed so far, slot
// by slot.
func (g *intakeRig) wantOrder(want ...[]uint64) {
	g.t.Helper()
	if len(g.slots) != len(want) {
		g.t.Fatalf("%d slots proposed, want %d", len(g.slots), len(want))
	}
	for i, slot := range g.slots {
		if len(slot) != len(want[i]) {
			g.t.Fatalf("slot %d carries %d requests, want %d", i+1, len(slot), len(want[i]))
		}
		for j, r := range slot {
			if r.Timestamp != want[i][j] {
				g.t.Fatalf("slot %d request %d has timestamp %d, want %d", i+1, j, r.Timestamp, want[i][j])
			}
		}
	}
}

func TestIntake(t *testing.T) {
	batch := func(n int) config.Batching {
		return config.Batching{BatchSize: n, BatchTimeout: 50 * time.Millisecond}
	}
	depth := func(k int) config.Pipelining { return config.Pipelining{Depth: k} }

	cases := []struct {
		name string
		b    config.Batching
		p    config.Pipelining
		run  func(g *intakeRig)
	}{
		{"zero-value knobs: one request per slot under the default window", config.Batching{}, config.Pipelining{}, func(g *intakeRig) {
			g.admit(1, config.DefaultPipelineDepth+2)
			g.want(config.DefaultPipelineDepth, 2, "past the default window")
			g.commit(1)
			g.want(config.DefaultPipelineDepth+1, 1, "after one commit")
		}},
		{"duplicate while buffered", batch(4), depth(4), func(g *intakeRig) {
			g.admit(1, 2)
			g.admit(2, 2)
			g.want(0, 2, "retransmission of a buffered request")
		}},
		{"duplicate while in flight, forgotten once executed", batch(1), depth(4), func(g *intakeRig) {
			g.admit(1, 1)
			g.admit(1, 1)
			g.want(1, 0, "retransmission of a proposed request")
			g.in.Executed(req(0, 1))
			g.admit(1, 1)
			g.want(2, 0, "after execution")
		}},
		{"a slot that did not go out is not in flight", batch(1), depth(4), func(g *intakeRig) {
			g.reject = true
			g.admit(1, 1)
			g.want(0, 0, "rejected proposal")
			g.admit(1, 1)
			g.want(1, 0, "retransmission after the rejected proposal")
		}},
		{"window bound honoured and refilled on commit; partial batch flushed at its deadline, not before", batch(2), depth(2), func(g *intakeRig) {
			g.admit(1, 7)
			g.want(2, 3, "depth 2")
			g.commit(1)
			g.want(3, 1, "one commit frees one slot; the lone leftover is partial and not due")
			g.clk.Advance(49 * time.Millisecond)
			g.commit(2)
			g.want(3, 1, "window room, one millisecond before the deadline")
			g.clk.Advance(time.Second)
			g.pend.Mark(2)
			g.in.Pump()
			g.want(3, 1, "past the deadline with a full window")
			g.commit(2)
			g.want(4, 0, "past the deadline with room")
			g.wantOrder([]uint64{1, 2}, []uint64{3, 4}, []uint64{5, 6}, []uint64{7})
		}},
		{"a carved batch's remainder keeps its own deadline", batch(4), depth(1), func(g *intakeRig) {
			g.admit(1, 4)
			g.clk.Advance(10 * time.Millisecond)
			g.admit(5, 10) // the backlog grows past BatchSize behind a full window
			g.want(1, 6, "full window")
			g.clk.Advance(60 * time.Millisecond) // the backlog's deadline passes
			g.commit(1)
			g.want(2, 2, "one full batch carved off the backlog")
			g.clk.Advance(10 * time.Millisecond)
			g.commit(2)
			g.want(2, 2, "remainder flushed on the carved batch's expired deadline")
			g.clk.Advance(40 * time.Millisecond)
			g.in.Pump()
			g.want(3, 0, "remainder past its own deadline")
		}},
		{"closed log window holds requests in arrival order", batch(1), depth(4), func(g *intakeRig) {
			g.open = false
			g.admit(1, 3)
			g.want(0, 3, "window closed")
			g.admit(2, 2)
			g.want(0, 3, "retransmission while held")
			g.open = true
			g.in.Pump()
			g.wantOrder([]uint64{1}, []uint64{2}, []uint64{3})
		}},
		{"view entry as proposer: buffer, then parked, in arrival order", batch(1), depth(4), func(g *intakeRig) {
			g.admit(1, 1) // in flight in the old view
			g.open = false
			g.admit(2, 2) // admitted, never proposed
			g.in.Park(req(0, 1))
			g.in.Park(req(0, 3))
			g.in.Park(req(0, 3))
			if g.in.Parked() != 3 {
				g.t.Fatalf("%d parked, want 3", g.in.Parked())
			}
			g.open = true
			g.pend.Reset() // as Recovery.enterView does
			g.in.EnterView(true)
			if g.in.Parked() != 0 {
				g.t.Fatalf("%d still parked after view entry", g.in.Parked())
			}
			// The old view's slot no longer counts as in flight, so the
			// parked retransmission of request 1 is ordered again; the
			// double-parked request 3 is ordered once.
			g.wantOrder([]uint64{1}, []uint64{2}, []uint64{1}, []uint64{3})
		}},
		{"view entry as non-proposer drops everything", batch(4), depth(4), func(g *intakeRig) {
			g.admit(1, 2)
			g.in.Park(req(0, 3))
			g.in.EnterView(false)
			if g.in.Buffered() != 0 || g.in.Parked() != 0 || len(g.slots) != 0 {
				g.t.Fatalf("non-proposer kept %d buffered, %d parked, proposed %d slots",
					g.in.Buffered(), g.in.Parked(), len(g.slots))
			}
			g.admit(1, 1)
			g.want(0, 1, "a dropped request admitted afresh")
		}},
		{"view entry skips what executed meanwhile", batch(1), depth(4), func(g *intakeRig) {
			g.open = false
			g.admit(1, 1)
			g.in.Park(req(0, 2))
			l := mlog.New(64)
			commitSlot(g.t, l, 1, req(0, 1))
			g.exec.ExecuteReady(l, nil)
			g.open = true
			g.in.EnterView(true)
			g.wantOrder([]uint64{2})
		}},
		{"back-off keeps the current view's slots in flight", batch(1), depth(4), func(g *intakeRig) {
			g.admit(1, 1)
			g.open = false
			g.in.Park(req(0, 1))
			g.in.Park(req(0, 2))
			g.open = true
			g.in.Resume(true)
			g.wantOrder([]uint64{1}, []uint64{2})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(newIntakeRig(t, tc.b, tc.p))
		})
	}
}

func TestIntakeTickInterval(t *testing.T) {
	if got := TickInterval(config.Batching{}, 5*time.Millisecond); got != 5*time.Millisecond {
		t.Errorf("unbatched tick = %v, want the base untouched", got)
	}
	batched := config.Batching{BatchSize: 8, BatchTimeout: 2 * time.Millisecond}
	if got := TickInterval(batched, 5*time.Millisecond); got != 2*time.Millisecond {
		t.Errorf("batched tick = %v, want it capped at BatchTimeout", got)
	}
	if got := TickInterval(batched, time.Millisecond); got != time.Millisecond {
		t.Errorf("batched tick = %v, want a shorter base untouched", got)
	}
}
