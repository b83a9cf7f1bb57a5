package core

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/replica"
	"repro/internal/statemachine"
	"repro/internal/transport"
)

// TestStabilizationReleasesHeldRequests: a primary whose log window is
// full holds further requests back, and proposes them the moment the
// checkpoint that moves the window stabilizes — with no tick and no
// client retransmission. In Lion the trusted primary's own checkpoint is
// stable as it executes; in Peacock stability arrives afterwards, with
// the 2m+1st proxy's CHECKPOINT message. The CFT row is Lion with no
// public cloud (S=3 P=0), where every replica is trusted. The engine is
// not started: the handler is driven by hand and nothing else runs.
func TestStabilizationReleasesHeldRequests(t *testing.T) {
	const lag = 4 // the whole log window, and one checkpoint period
	for _, sh := range []budgetShape{
		{"Lion", baseMembership(), ids.Lion},
		{"Peacock", baseMembership(), ids.Peacock},
		{"CFT", ids.MustMembership(3, 0, 1, 0), ids.Lion},
	} {
		mb, mode := sh.mb, sh.mode
		for _, depth := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/depth%d", sh.name, depth), func(t *testing.T) {
				tm := fastTiming()
				tm.CheckpointPeriod, tm.HighWaterMarkLag = lag, lag
				cl, err := config.NewCluster(mb, mode, tm)
				if err != nil {
					t.Fatal(err)
				}
				cl.Pipelining = config.Pipelining{Depth: depth}
				net := transport.NewSimNetwork(transport.LAN(mb.S(), 97))
				defer net.Close()
				suite := crypto.NewEd25519Suite(97, mb.N(), 4)
				r, err := NewReplica(Options{
					ID: mb.Primary(mode, 0), Cluster: cl, Suite: suite, Network: net,
					StateMachine: statemachine.NewKVStore(),
				})
				if err != nil {
					t.Fatal(err)
				}

				for ts := uint64(1); ts <= lag+1; ts++ {
					r.HandleMessage(clientRequest(suite, mb, makeRequest(t, suite, 0, ts)))
				}
				if r.nextSeq != lag+1 || r.in.Buffered() != 1 {
					t.Fatalf("full window: nextSeq %d with %d held, want %d with 1", r.nextSeq, r.in.Buffered(), lag+1)
				}
				for seq := uint64(1); seq <= lag; seq++ {
					r.log.Peek(seq).MarkCommitted()
					r.pending.Clear(seq)
				}
				r.executeReady()

				if mode == ids.Peacock {
					if r.StableCheckpoint() != 0 || r.nextSeq != lag+1 {
						t.Fatalf("stable %d, nextSeq %d before any peer's CHECKPOINT", r.StableCheckpoint(), r.nextSeq)
					}
					snap, _ := r.exec.SnapshotAt(lag)
					for _, from := range mb.Proxies(mode, 0) {
						if from == r.ID() {
							continue
						}
						cp := message.Signed{Kind: message.KindCheckpoint, From: from, Seq: lag, Digest: replica.DigestOf(snap)}
						cp.Sig = suite.Sign(crypto.ReplicaPrincipal(int(from)), cp.SignedBytes())
						r.HandleMessage(cp.Wire())
					}
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
}
