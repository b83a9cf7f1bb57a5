package pbft

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/replica"
	"repro/internal/statemachine"
	"repro/internal/transport"
)

// TestStabilizationReleasesHeldRequests is core's test of the same name
// for PBFT: the primary's log window is full, the slots execute, and the
// request held back is proposed when the 2f+1st CHECKPOINT message makes
// the checkpoint stable — no tick, no client retransmission. The engine
// is not started: the handler is driven by hand.
func TestStabilizationReleasesHeldRequests(t *testing.T) {
	const (
		n   = 4
		lag = 4 // the whole log window, and one checkpoint period
	)
	for _, depth := range []int{0, 4} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			net := transport.NewSimNetwork(transport.LAN(n, 96))
			defer net.Close()
			suite := crypto.NewHMACSuite(96, n, 4)
			r, err := NewReplica(Options{
				ID: 0, N: n, Byz: 1, Suite: suite, Network: net,
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
			if r.StableCheckpoint() != 0 || r.nextSeq != lag+1 {
				t.Fatalf("stable %d, nextSeq %d before any peer's CHECKPOINT", r.StableCheckpoint(), r.nextSeq)
			}

			snap, _ := r.exec.SnapshotAt(lag)
			for from := ids.ReplicaID(1); int(from) < r.Quorum(); from++ {
				cp := message.Signed{Kind: message.KindCheckpoint, From: from, Seq: lag, Digest: replica.DigestOf(snap)}
				cp.Sig = suite.Sign(crypto.ReplicaPrincipal(int(from)), cp.SignedBytes())
				r.HandleMessage(cp.Wire())
			}
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
