package core

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

// TestEveryKindClassified walks Kind × mode: every pair must be
// classified exactly once. authTable is an array literal indexed by
// kind, so the compiler already rejects a kind listed twice; what is
// left to catch is a kind added to message without a row here.
func TestEveryKindClassified(t *testing.T) {
	kinds := 0
	for k := message.Kind(1); k.Valid(); k++ {
		kinds++
		if int(k) >= len(authTable) {
			t.Errorf("%v is not classified", k)
			continue
		}
		for _, mode := range []ids.Mode{ids.Lion, ids.Dog, ids.Peacock} {
			switch authTable[k][mode] {
			case replica.AuthSigned, replica.AuthTagged, replica.AuthNone:
			default:
				t.Errorf("%v in %v mode is not classified", k, mode)
			}
		}
	}
	if len(authTable) != kinds+1 {
		t.Errorf("authTable has %d rows for %d kinds", len(authTable)-1, kinds)
	}
}

// taggedVote builds the vote s as its claimed sender s.From would send
// it to replica to, authenticated with keyHolder's key for to. An honest
// vote has keyHolder == s.From; a forger can only use its own.
func taggedVote(suite crypto.Suite, keyHolder, to ids.ReplicaID, s message.Signed) *message.Message {
	m := s.Wire()
	m.Sig = message.SetTag(nil, to,
		suite.Tag(crypto.ReplicaPrincipal(int(keyHolder)), crypto.ReplicaPrincipal(int(to)), s.SignedBytes()))
	return m
}

// signedFrame encodes s under its sender's signature.
func signedFrame(suite crypto.Suite, s message.Signed) []byte {
	s.Sig = suite.Sign(crypto.ReplicaPrincipal(int(s.From)), s.SignedBytes())
	return message.Marshal(s.Wire())
}

// TestForgedTagsRejected is the attack TCPNode's unchecked hello allows:
// public replica 5 opens links under other replicas' names and sends the
// votes that would complete a quorum, authenticated with the only keys
// it holds. Each case first shows the forged quorum changes nothing, then
// that the same votes from their real senders do — so the rejection is
// the tag check's doing, not a malformed test frame's.
func TestForgedTagsRejected(t *testing.T) {
	mb := baseMembership()
	suite := crypto.NewEd25519Suite(96, mb.N(), 4)
	forger := crypto.Restrict(suite, crypto.ReplicaPrincipal(5))
	req := makeRequest(t, suite, 0, 1)
	d := req.Digest()
	deliver := func(r *Replica, from transport.Addr, frame []byte) {
		r.StepEnvelope(transport.Envelope{From: from, Frame: frame})
	}
	proposal := func(kind message.Kind, from ids.ReplicaID) []byte {
		return signedFrame(suite, message.Signed{Kind: kind, From: from, Seq: 1, Digest: d, Request: req})
	}

	for _, tc := range []struct {
		name    string
		mode    ids.Mode
		self    ids.ReplicaID
		prepare func(r *Replica)
		kind    message.Kind
		claimed []ids.ReplicaID
	}{
		{
			// The Lion primary needs three ACCEPTs beside its own; the
			// forger claims a private backup's and two public ones'.
			name: "lion-accept", mode: ids.Lion, self: 0, kind: message.KindAccept,
			prepare: func(r *Replica) {
				deliver(r, transport.ClientAddr(0), message.Marshal(
					&message.Message{Kind: message.KindRequest, From: -1, Request: req}))
			},
			claimed: []ids.ReplicaID{1, 2, 3},
		},
		{
			// A passive Peacock node executes on m+1 = 2 INFORMs that
			// match the pre-prepare it holds.
			name: "peacock-inform", mode: ids.Peacock, self: 1, kind: message.KindInform,
			prepare: func(r *Replica) { deliver(r, transport.ReplicaAddr(2), proposal(message.KindPrePrepare, 2)) },
			claimed: []ids.ReplicaID{3, 4},
		},
		{
			// A prepared Peacock proxy commits on two COMMIT votes beside
			// its own.
			name: "peacock-commit", mode: ids.Peacock, self: 3, kind: message.KindCommit,
			prepare: func(r *Replica) {
				deliver(r, transport.ReplicaAddr(2), proposal(message.KindPrePrepare, 2))
				deliver(r, transport.ReplicaAddr(4), signedFrame(suite,
					message.Signed{Kind: message.KindPrepare, From: 4, Seq: 1, Digest: d}))
			},
			claimed: []ids.ReplicaID{2, 4},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := config.NewCluster(mb, tc.mode, fastTiming())
			if err != nil {
				t.Fatal(err)
			}
			net := transport.NewSimNetwork(transport.LAN(mb.S(), 96))
			defer net.Close()
			r, err := NewReplica(Options{
				ID: tc.self, Cluster: cl, Suite: crypto.Restrict(suite, crypto.ReplicaPrincipal(int(tc.self))),
				Network: net, StateMachine: statemachine.NewKVStore(),
			})
			if err != nil {
				t.Fatal(err)
			}
			tc.prepare(r)
			if r.log.Peek(1) == nil || r.log.Peek(1).Proposal() == nil {
				t.Fatal("setup did not log the proposal")
			}
			for _, from := range tc.claimed {
				deliver(r, transport.ReplicaAddr(from), message.Marshal(taggedVote(forger, 5, tc.self,
					message.Signed{Kind: tc.kind, From: from, Seq: 1, Digest: d})))
			}
			if r.LastExecuted() != 0 {
				t.Fatalf("a quorum of %v forged by replica 5 executed the slot", tc.kind)
			}
			for _, from := range tc.claimed {
				deliver(r, transport.ReplicaAddr(from), message.Marshal(taggedVote(suite, from, tc.self,
					message.Signed{Kind: tc.kind, From: from, Seq: 1, Digest: d})))
			}
			if r.LastExecuted() != 1 {
				t.Fatalf("the same %v votes from their real senders did not execute the slot", tc.kind)
			}
		})
	}
}

// authBudget is what one committed request may cost in signatures and
// signature verifications, cluster-wide, client included, at batch 1 on
// S=2 P=4 (ARCHITECTURE.md derives the numbers). Verifications are a
// range only in Peacock, where a PREPARE vote that overtakes the
// pre-prepare, or the vote before it, still has to be checked.
var authBudget = map[ids.Mode]struct{ signs, minVerifies, maxVerifies uint64 }{
	ids.Lion:    {3, 16, 16},
	ids.Dog:     {2, 11, 11},
	ids.Peacock: {5, 16, 20},
}

// TestAuthBudgetPerOp pins the per-request authentication budget with a
// counting suite, so a regression in signatures or verifications per
// request fails here instead of waiting for a traced benchmark run.
func TestAuthBudgetPerOp(t *testing.T) {
	const ops = 12 // below the checkpoint period: CHECKPOINTs are not per-request cost
	for _, mode := range []ids.Mode{ids.Lion, ids.Dog, ids.Peacock} {
		t.Run(mode.String(), func(t *testing.T) {
			mb := baseMembership()
			timing := fastTiming()
			// No retransmission and no suspicion, however loaded the host:
			// either would add verifications that are not the budget's.
			timing.ViewChange, timing.ClientRetry = time.Minute, time.Minute
			cl, err := config.NewCluster(mb, mode, timing)
			if err != nil {
				t.Fatal(err)
			}
			counted := crypto.Count(crypto.NewEd25519Suite(95, mb.N(), 1))
			h := &harness{
				t: t, mb: mb, cluster: cl, suite: counted,
				net: transport.NewSimNetwork(transport.LAN(mb.S(), 95)),
			}
			for _, id := range mb.All() {
				kv := statemachine.NewKVStore()
				r, err := NewReplica(Options{
					ID: id, Cluster: cl, Suite: counted, Network: h.net,
					StateMachine: kv, TickInterval: 2 * time.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				h.replicas = append(h.replicas, r)
				h.kvs = append(h.kvs, kv)
				r.Start()
			}
			t.Cleanup(h.stop)

			c := h.client(0)
			for i := 0; i < ops; i++ {
				h.mustPut(c, fmt.Sprintf("k%d", i), "v")
			}
			// Once every replica has executed every request no signature is
			// left to check: what may still be in flight is tagged, or a
			// PREPARE vote for a slot its receiver has already prepared.
			waitFor(t, "every replica to execute every request", 10*time.Second, func() bool {
				for _, r := range h.replicas {
					if r.LastExecuted() != ops {
						return false
					}
				}
				return true
			})
			got, want := counted.Totals(), authBudget[mode]
			if got.Signs != want.signs*ops {
				t.Errorf("%d signatures for %d requests, want %d per request", got.Signs, ops, want.signs)
			}
			if got.Verifies < want.minVerifies*ops || got.Verifies > want.maxVerifies*ops {
				t.Errorf("%d signature verifications for %d requests, want %d–%d per request",
					got.Verifies, ops, want.minVerifies, want.maxVerifies)
			}
			if got.BadVerifies+got.BadTagVerifies != 0 {
				t.Errorf("honest run rejected %d signatures and %d tags", got.BadVerifies, got.BadTagVerifies)
			}
			t.Logf("%v per request: %.1f signatures, %.1f verifications, %.1f tags, %.1f tag checks", mode,
				float64(got.Signs)/ops, float64(got.Verifies)/ops, float64(got.Tags)/ops, float64(got.TagVerifies)/ops)
		})
	}
}
