package paxos

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/message"
	"repro/internal/statemachine"
	"repro/internal/transport"
)

// TestStabilizationReleasesHeldRequests is core's test of the same name
// for Paxos, where the leader's own checkpoint is stable as it executes:
// the leader's log window is full, the slots execute, and the request
// held back is proposed at once — no tick, no client retransmission —
// leaving nothing behind in the intake. The engine is not started: the
// handler is driven by hand.
func TestStabilizationReleasesHeldRequests(t *testing.T) {
	const (
		n   = 3
		lag = 4 // the whole log window, and one checkpoint period
	)
	for _, depth := range []int{0, 4} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			net := transport.NewSimNetwork(transport.LAN(n, 95))
			defer net.Close()
			suite := crypto.NewHMACSuite(95, n, 4)
			r, err := NewReplica(Options{
				ID: 0, N: n, Suite: suite, Network: net,
				StateMachine: statemachine.NewKVStore(),
				Timing: config.Timing{
					ViewChange: 100 * time.Millisecond, ClientRetry: 150 * time.Millisecond,
					CheckpointPeriod: lag, HighWaterMarkLag: lag,
				},
				Pipelining: config.Pipelining{Depth: depth},
			})
			if err != nil {
				t.Fatal(err)
			}

			for ts := uint64(1); ts <= lag+1; ts++ {
				req := &message.Request{Op: statemachine.EncodePut(fmt.Sprintf("k%d", ts), []byte("v")), Timestamp: ts}
				req.Sig = suite.Sign(crypto.ClientPrincipal(0), req.SignedBytes())
				r.HandleMessage(&message.Message{Kind: message.KindRequest, Request: req})
			}
			if r.nextSeq != lag+1 || r.in.Buffered() != 1 {
				t.Fatalf("full window: nextSeq %d with %d held, want %d with 1", r.nextSeq, r.in.Buffered(), lag+1)
			}
			for seq := uint64(1); seq <= lag; seq++ {
				r.log.Peek(seq).MarkCommitted()
				r.pending.Clear(seq)
			}
			r.executeReady()

			if r.StableCheckpoint() != lag {
				t.Fatalf("stable checkpoint %d, want %d", r.StableCheckpoint(), lag)
			}
			if r.nextSeq != lag+2 || r.in.Buffered() != 0 || r.in.Parked() != 0 {
				t.Fatalf("after stabilization: nextSeq %d, %d buffered, %d parked; want the held request proposed as slot %d and nothing left",
					r.nextSeq, r.in.Buffered(), r.in.Parked(), lag+1)
			}
		})
	}
}
