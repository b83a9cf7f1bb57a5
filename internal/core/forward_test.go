package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/transport"
)

// TestProxyTakesForwardedClientTag: a Peacock primary forwards each
// member's client authenticator in its PRE-PREPARE, and a proxy takes
// the member on its own tag there, verifying the client's signature
// only where that tag is missing or bad (ARCHITECTURE.md,
// "Authentication", the third case, step 6). Each stepped row hands
// proxy 3 one sealed PRE-PREPARE from primary 2 and reads whether it
// voted and what it checked. The cluster row shows what a Byzantine
// primary colluding with its client gains from good tags over a bad
// signature: the client's own operation, ordered, which every honest
// replica executes and a laggard adopts by state transfer.
func TestProxyTakesForwardedClientTag(t *testing.T) {
	const primary, proxy = 2, 3
	mb := baseMembership()
	suite := crypto.NewEd25519Suite(92, mb.N(), 1)
	client := crypto.ClientPrincipal(0)
	// forward returns req carrying the client's authenticator for every
	// replica, as the primary forwards it.
	forward := func(req *message.Request) *message.Request {
		req.Auth = message.AuthenticateRequest(suite, req, mb.All())
		return req
	}
	for _, tc := range []struct {
		name  string
		build func() *message.Request
		// voted: the proxy sends its PREPARE vote. verifies is what the
		// frame costs it in signature checks (σ included), clientSigs and
		// clientTags what of that and its tag checks are the client's.
		voted                            bool
		verifies, clientSigs, clientTags uint64
	}{
		{"forwarded authenticator", func() *message.Request {
			return forward(makeRequest(t, suite, 0, 1))
		}, true, 1, 0, 1},
		{"stripped authenticator", func() *message.Request {
			return makeRequest(t, suite, 0, 1)
		}, true, 2, 1, 0},
		{"tag in another slot", func() *message.Request {
			req := forward(makeRequest(t, suite, 0, 1))
			copy(message.TagOf(req.Auth, proxy), message.TagOf(req.Auth, proxy+1))
			return req
		}, true, 2, 1, 1},
		{"forged member: bad tag, bad signature", func() *message.Request {
			req := forward(makeRequest(t, suite, 0, 1))
			message.TagOf(req.Auth, proxy)[0] ^= 0xff
			req.Sig[0] ^= 0xff
			return req
		}, false, 2, 1, 1},
		{"good tag over a bad signature", func() *message.Request {
			req := makeRequest(t, suite, 0, 1)
			req.Sig[0] ^= 0xff
			return forward(req)
		}, true, 1, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := &captureNet{}
			ledger := crypto.Count(crypto.Restrict(suite, crypto.ReplicaPrincipal(proxy)))
			r := loneReplica(t, ids.Peacock, proxy, ledger, net, nil)
			req := tc.build()
			s := message.Signed{Kind: message.KindPrePrepare, From: primary, Seq: 1, Digest: req.Digest(), Payload: []*message.Request{req}}
			frame := sealedFrame(suite, primary, proxy, s, suite.Sign(crypto.ReplicaPrincipal(primary), s.SignedBytes()))
			r.StepEnvelope(transport.Envelope{From: transport.ReplicaAddr(primary), Frame: frame})

			for _, m := range net.sent {
				if m.Kind != message.KindPrepare || m.From != proxy {
					t.Fatalf("the proxy sent a %v from %d", m.Kind, m.From)
				}
			}
			if voted := len(net.sent) > 0; voted != tc.voted {
				t.Fatalf("the proxy voted: %v, want %v", voted, tc.voted)
			}
			if logged := r.log.Peek(1) != nil && r.log.Peek(1).Proposal() != nil; logged != tc.voted {
				t.Fatalf("the proxy logged the proposal: %v, want %v", logged, tc.voted)
			}
			if got := ledger.Totals().Verifies; got != tc.verifies {
				t.Errorf("%d signature verifications, want %d", got, tc.verifies)
			}
			if got := ledger.By(client); got.Verifies != tc.clientSigs || got.TagVerifies != tc.clientTags {
				t.Errorf("%d client signature and %d client tag checks, want %d and %d",
					got.Verifies, got.TagVerifies, tc.clientSigs, tc.clientTags)
			}
		})
	}

	t.Run("good tag over a bad signature, executed and adopted", func(t *testing.T) {
		// The test plays primary 2 of view 0; the five real replicas run.
		// Passive node 0 misses the first checkpoint period, the bad
		// signature's included, and catches up by state transfer.
		const laggard = 0
		period := fastTiming().CheckpointPeriod
		cl, err := config.NewCluster(mb, ids.Peacock, fastTiming())
		if err != nil {
			t.Fatal(err)
		}
		h := &harness{t: t, mb: mb, cluster: cl, suite: suite, net: transport.NewSimNetwork(transport.LAN(mb.S(), 92))}
		t.Cleanup(h.stop)
		for _, id := range mb.All() {
			if id != primary {
				h.add(id, h.net, nil)
			}
		}
		for _, r := range h.replicas {
			r.Start()
		}
		ep := h.net.Endpoint(transport.ReplicaAddr(primary))
		propose := func(seq uint64, req *message.Request) {
			s := message.Signed{Kind: message.KindPrePrepare, From: primary, Seq: seq, Digest: req.Digest(), Payload: []*message.Request{req}}
			sig := suite.Sign(crypto.ReplicaPrincipal(primary), s.SignedBytes())
			for _, to := range mb.All() {
				if to != primary {
					ep.Send(transport.ReplicaAddr(to), sealedFrame(suite, primary, to, s, sig))
				}
			}
		}
		executed := func(n uint64, skip ids.ReplicaID) func() bool {
			return func() bool {
				for _, r := range h.replicas {
					if r.ID() != skip && r.LastExecuted() != n {
						return false
					}
				}
				return true
			}
		}

		h.net.Isolate(transport.ReplicaAddr(laggard))
		bad := makeRequest(t, suite, 0, 1)
		bad.Sig[0] ^= 0xff
		propose(1, forward(bad))
		for seq := uint64(2); seq <= period; seq++ {
			propose(seq, forward(makeRequest(t, suite, 0, seq)))
		}
		waitFor(t, "every replica but the laggard to execute the first period", 10*time.Second, executed(period, laggard))
		// The laggard learns it is a period behind from the CHECKPOINTs
		// of the next, and asks for the state.
		h.net.Heal(transport.ReplicaAddr(laggard))
		for seq := period + 1; seq <= 2*period; seq++ {
			propose(seq, forward(makeRequest(t, suite, 0, seq)))
		}
		waitFor(t, "every replica, the laggard by state transfer, to execute the next period", 10*time.Second, executed(2*period, -1))
		h.stop()
		want := h.kvs[0].Snapshot()
		for i, kv := range h.kvs {
			if !bytes.Equal(kv.Snapshot(), want) {
				t.Fatalf("replica %d's state differs from the laggard's", h.replicas[i].ID())
			}
		}
		for _, r := range h.replicas {
			if r.View() != 0 {
				t.Errorf("replica %d left view 0 for view %d", r.ID(), r.View())
			}
		}
	})
}
