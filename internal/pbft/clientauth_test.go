package pbft

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/statemachine"
	"repro/internal/transport"
)

// PBFT takes client requests on the path SeeMoRe's public primary does
// (replica.Intake): these tests are core's tests of the same names, on
// PBFT's N = 4, where every node is public and every backup votes.

const (
	authN       = 4
	authPrimary = ids.ReplicaID(0) // the primary of view 0
)

// loneReplica builds one unstarted PBFT replica of N = 4, to be stepped
// by hand.
func loneReplica(t *testing.T, self ids.ReplicaID, suite crypto.Suite, net transport.Network) *Replica {
	t.Helper()
	r, err := NewReplica(Options{
		ID: self, N: authN, Byz: 1, Suite: suite, Network: net,
		StateMachine: statemachine.NewKVStore(), Timing: config.DefaultTiming(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// signedRequest is client's Put number ts, signed.
func signedRequest(suite crypto.Suite, client ids.ClientID, ts uint64) *message.Request {
	req := &message.Request{Op: statemachine.EncodePut(fmt.Sprintf("k%d", ts), []byte("v")), Timestamp: ts, Client: client}
	req.Sig = suite.Sign(crypto.ClientPrincipal(int64(client)), req.SignedBytes())
	return req
}

// clientOutcome names what a stepped replica did with a client REQUEST,
// from the frames it sent: served it (a REPLY), relayed it to the
// primary, admitted it (its PRE-PREPARE went out), or nothing.
func clientOutcome(self ids.ReplicaID, sent []*message.Message) (string, *message.Message) {
	for _, m := range sent {
		switch {
		case m.Kind == message.KindReply:
			return "reply", m
		case m.Kind == message.KindRequest && m.From == self:
			return "relay", m
		case m.Kind == message.KindPrePrepare && m.From == self:
			return "admit", m
		}
	}
	if len(sent) > 0 {
		return fmt.Sprintf("%d other frames", len(sent)), nil
	}
	return "nothing", nil
}

// TestClientAuthenticatedByTag: every PBFT replica takes a client's
// REQUEST on its own tag in the client's authenticator. The primary
// then verifies the client's signature before it admits the request and
// forwards the authenticator in its PRE-PREPARE; a backup verifies it
// before it relays, and the primary takes the relay on that signature
// alone. A forged authenticator gets nothing and costs no signature
// check.
func TestClientAuthenticatedByTag(t *testing.T) {
	suite := crypto.NewEd25519Suite(98, authN, 1)
	all := []ids.ReplicaID{0, 1, 2, 3}
	cases := []struct {
		name string
		// build returns what the client sends replica self: its request
		// and authenticator.
		build  func(self ids.ReplicaID) (*message.Request, []byte)
		forged bool
		badSig bool
		// badAtPrimary: forged only in the primary's slot.
		badAtPrimary bool
	}{
		{name: "honest", build: func(ids.ReplicaID) (*message.Request, []byte) {
			req := signedRequest(suite, 0, 1)
			return req, message.AuthenticateRequest(suite, req, all)
		}},
		{name: "another replica's tag in this one's slot", forged: true, build: func(self ids.ReplicaID) (*message.Request, []byte) {
			req := signedRequest(suite, 0, 1)
			auth := message.AuthenticateRequest(suite, req, all)
			copy(message.TagOf(auth, self), message.TagOf(auth, (self+1)%authN))
			return req, auth
		}},
		{name: "no authenticator", forged: true, build: func(ids.ReplicaID) (*message.Request, []byte) {
			return signedRequest(suite, 0, 1), nil
		}},
		{name: "a bad tag in the primary's slot only", badAtPrimary: true, build: func(ids.ReplicaID) (*message.Request, []byte) {
			req := signedRequest(suite, 0, 1)
			auth := message.AuthenticateRequest(suite, req, all)
			message.TagOf(auth, authPrimary)[0] ^= 0xff
			return req, auth
		}},
		{name: "good tags over a bad signature", badSig: true, build: func(ids.ReplicaID) (*message.Request, []byte) {
			req := signedRequest(suite, 0, 1)
			req.Sig[0] ^= 0xff
			return req, message.AuthenticateRequest(suite, req, all)
		}},
	}

	// step hands frame to a fresh replica self, from from, and returns
	// what it sent and what it checked.
	step := func(t *testing.T, self ids.ReplicaID, from transport.Addr, frame []byte) ([]*message.Message, crypto.Counts) {
		t.Helper()
		net := &captureNet{}
		ledger := crypto.Count(crypto.Restrict(suite, crypto.ReplicaPrincipal(int(self))))
		loneReplica(t, self, ledger, net).StepEnvelope(transport.Envelope{From: from, Frame: frame})
		return net.sent, ledger.Totals()
	}

	for _, self := range []ids.ReplicaID{authPrimary, 2} {
		atPrimary := self == authPrimary
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%d/%s", self, tc.name), func(t *testing.T) {
				req, auth := tc.build(self)
				frame := message.Marshal(&message.Message{Kind: message.KindRequest, From: -1, Payload: []*message.Request{req}, Sig: auth})
				sent, got := step(t, self, transport.ClientAddr(0), frame)

				forged := tc.forged || tc.badAtPrimary && atPrimary
				want, wantVerifies := "admit", uint64(1)
				switch {
				case forged:
					want, wantVerifies = "nothing", 0
				case tc.badSig:
					want = "nothing"
				case !atPrimary:
					want = "relay"
				}
				o, m := clientOutcome(self, sent)
				if o != want {
					t.Fatalf("outcome %s, want %s", o, want)
				}
				if got.Verifies != wantVerifies || got.TagVerifies != 1 {
					t.Fatalf("%d signature and %d tag checks, want %d and 1", got.Verifies, got.TagVerifies, wantVerifies)
				}
				if forged && got.BadTagVerifies != 1 {
					t.Fatalf("%d tag checks refused, want 1: the tag check must be what stops it", got.BadTagVerifies)
				}
				switch want {
				case "admit":
					// The PRE-PREPARE forwards the client's authenticator.
					if fwd := m.Payload[0].Auth; string(fwd) != string(auth) {
						t.Fatalf("the PRE-PREPARE forwards %x, want the client's authenticator", fwd)
					}
				case "relay":
					// The relay carries nothing but µ, and the primary takes
					// it on the client's signature, whatever its own tag.
					if len(m.Sig) != 0 {
						t.Fatalf("the relay carries Sig %x, want none", m.Sig)
					}
					sent, got = step(t, authPrimary, transport.ReplicaAddr(self), message.Marshal(m))
					if o, _ := clientOutcome(authPrimary, sent); o != "admit" {
						t.Fatalf("the relay's outcome at the primary is %s, want admit", o)
					}
					if got.Verifies != 1 || got.TagVerifies != 0 {
						t.Fatalf("%d signature and %d tag checks at the primary, want 1 and 0", got.Verifies, got.TagVerifies)
					}
				}
			})
		}
	}
}

// TestClientCannotFrameThePrimary: a client that sends every PBFT
// replica a request whose tag is bad at the primary alone, or good only
// at the primary, or good tags over a bad signature, cannot get the
// honest primary suspected. A backup arms its suspicion timer only for
// what it relays, it relays only on the client's signature, and the
// primary takes the relay on that same signature. So the first two
// requests execute, the first one a relay later; the third is dropped
// by every replica; and nobody leaves view 0.
func TestClientCannotFrameThePrimary(t *testing.T) {
	timing := config.Timing{
		ViewChange:       50 * time.Millisecond,
		ClientRetry:      time.Minute,
		CheckpointPeriod: 16,
		HighWaterMarkLag: 256,
	}
	all := []ids.ReplicaID{0, 1, 2, 3}
	for _, tc := range []struct {
		name string
		// build returns client 1's request and the authenticator it
		// sends with it to every replica.
		build    func(suite crypto.Suite) (*message.Request, []byte)
		executed uint64
	}{
		{"bad tag at the primary", func(suite crypto.Suite) (*message.Request, []byte) {
			req := signedRequest(suite, 1, 1)
			auth := message.AuthenticateRequest(suite, req, all)
			message.TagOf(auth, authPrimary)[0] ^= 0xff
			return req, auth
		}, 1},
		{"bad tags at every replica but the primary", func(suite crypto.Suite) (*message.Request, []byte) {
			req := signedRequest(suite, 1, 1)
			auth := message.AuthenticateRequest(suite, req, all)
			for _, r := range all[1:] {
				message.TagOf(auth, r)[0] ^= 0xff
			}
			return req, auth
		}, 1},
		{"good tags over a bad signature", func(suite crypto.Suite) (*message.Request, []byte) {
			req := signedRequest(suite, 1, 1)
			req.Sig[0] ^= 0xff
			return req, message.AuthenticateRequest(suite, req, all)
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			suite := crypto.NewHMACSuite(97, authN, 2)
			h := buildHarness(t, 1, 0, suite, 97, timing, nil)
			h.start()
			req, auth := tc.build(suite)
			frame := message.Marshal(&message.Message{Kind: message.KindRequest, From: -1, Payload: []*message.Request{req}, Sig: auth})
			ep := h.net.Endpoint(transport.ClientAddr(1))
			for r := ids.ReplicaID(0); r < authN; r++ {
				ep.Send(transport.ReplicaAddr(r), frame)
			}
			deadline := time.Now().Add(10 * time.Second)
			for !h.executedAll(tc.executed) {
				if time.Now().After(deadline) {
					t.Fatalf("not every replica executed %d request(s)", tc.executed)
				}
				time.Sleep(time.Millisecond)
			}
			// Several suspicion periods: time for a backup's timer to
			// fire, had it armed one that nothing clears.
			time.Sleep(4 * timing.ViewChange)
			h.stop()
			for _, r := range h.replicas {
				if r.View() != 0 || r.LastExecuted() != tc.executed {
					t.Errorf("replica %d is in view %d, executed through %d; want view 0, %d",
						r.ID(), r.View(), r.LastExecuted(), tc.executed)
				}
			}
		})
	}
}

// executedAll reports whether every replica's execution cursor is n.
func (h *harness) executedAll(n uint64) bool {
	for _, r := range h.replicas {
		if r.LastExecuted() != n {
			return false
		}
	}
	return true
}

// TestBackupTakesForwardedClientTag: a PBFT primary forwards each
// member's client authenticator in its PRE-PREPARE, and a backup takes
// the member on its own tag there, verifying the client's signature
// only where that tag is missing or bad (ARCHITECTURE.md,
// "Authentication", the third case, step 6, with "proxy" read as
// "backup"). Each row hands backup 1 one signed PRE-PREPARE from
// primary 0 and reads whether it voted and what it checked.
func TestBackupTakesForwardedClientTag(t *testing.T) {
	const backup = 1
	suite := crypto.NewEd25519Suite(92, authN, 1)
	client := crypto.ClientPrincipal(0)
	forward := func(req *message.Request) *message.Request {
		req.Auth = message.AuthenticateRequest(suite, req, []ids.ReplicaID{0, 1, 2, 3})
		return req
	}
	for _, tc := range []struct {
		name  string
		build func() *message.Request
		// voted: the backup sends its PREPARE vote. verifies is what the
		// frame costs it in signature checks (the PRE-PREPARE's
		// included), clientSigs and clientTags what of that and its tag
		// checks are the client's.
		voted                            bool
		verifies, clientSigs, clientTags uint64
	}{
		{"forwarded authenticator", func() *message.Request {
			return forward(signedRequest(suite, 0, 1))
		}, true, 1, 0, 1},
		{"stripped authenticator", func() *message.Request {
			return signedRequest(suite, 0, 1)
		}, true, 2, 1, 0},
		{"tag in another slot", func() *message.Request {
			req := forward(signedRequest(suite, 0, 1))
			copy(message.TagOf(req.Auth, backup), message.TagOf(req.Auth, backup+1))
			return req
		}, true, 2, 1, 1},
		{"forged member: bad tag, bad signature", func() *message.Request {
			req := forward(signedRequest(suite, 0, 1))
			message.TagOf(req.Auth, backup)[0] ^= 0xff
			req.Sig[0] ^= 0xff
			return req
		}, false, 2, 1, 1},
		{"good tag over a bad signature", func() *message.Request {
			req := signedRequest(suite, 0, 1)
			req.Sig[0] ^= 0xff
			return forward(req)
		}, true, 1, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := &captureNet{}
			ledger := crypto.Count(crypto.Restrict(suite, crypto.ReplicaPrincipal(backup)))
			r := loneReplica(t, backup, ledger, net)
			req := tc.build()
			s := message.Signed{Kind: message.KindPrePrepare, From: authPrimary, Seq: 1, Digest: req.Digest(), Payload: []*message.Request{req}}
			m := s.Wire()
			m.Sig = suite.Sign(crypto.ReplicaPrincipal(int(authPrimary)), s.SignedBytes())
			r.StepEnvelope(transport.Envelope{From: transport.ReplicaAddr(authPrimary), Frame: message.Marshal(m)})

			for _, m := range net.sent {
				if m.Kind != message.KindPrepare || m.From != backup {
					t.Fatalf("the backup sent a %v from %d", m.Kind, m.From)
				}
			}
			if voted := len(net.sent) > 0; voted != tc.voted {
				t.Fatalf("the backup voted: %v, want %v", voted, tc.voted)
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
}
