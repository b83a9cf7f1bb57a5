package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/statemachine"
	"repro/internal/transport"
)

// clientOutcome names what a stepped replica did with a client message,
// from the frames it sent: served it (a REPLY), relayed it to the
// primary, admitted it (its own proposal went out), or nothing.
func clientOutcome(self ids.ReplicaID, sent []*message.Message) string {
	for _, m := range sent {
		switch {
		case m.Kind == message.KindReply:
			return "reply"
		case m.Kind == message.KindRequest && m.From == self:
			return "relay"
		case (m.Kind == message.KindPrepare || m.Kind == message.KindPrePrepare) && m.From == self:
			return "admit"
		}
	}
	if len(sent) > 0 {
		return fmt.Sprintf("%d other frames", len(sent))
	}
	return "nothing"
}

// TestClientAuthenticatedByTag: every receiver of a client's REQUEST or
// READ checks its own tag in the client's authenticator and nothing
// else, except that a Peacock primary verifies the client's signature
// before it admits a REQUEST (ARCHITECTURE.md, "Authentication", the
// third case). Each row steps one replica with one client message and
// reads what it sent and what it checked. A forged authenticator gets no
// reply, no relay and no admission, and costs no signature check; a good
// tag over a bad or missing signature is admitted by a trusted primary
// and refused by a Peacock one. A backup relays only on the client's
// signature, and the primary takes the relay on that signature alone, so
// a request a backup relays reaches admission even when the client's tag
// for the primary is bad. A READ is unsigned, and whatever signature it
// carries is ignored: one the fast path cannot serve is admitted by a
// trusted primary and dropped by everyone else, with no signature check.
func TestClientAuthenticatedByTag(t *testing.T) {
	mb := baseMembership()
	suite := crypto.NewEd25519Suite(98, mb.N(), 2)
	all := mb.All()
	authenticate := func(req *message.Request) []byte { return message.AuthenticateRequest(suite, req, all) }
	edited := func(req *message.Request, edit func(*message.Request)) (*message.Request, []byte) {
		auth := authenticate(req)
		edit(req)
		return req, auth
	}

	// Each case turns client 0's honest request req into the request and
	// authenticator it sends to replica self.
	cases := []struct {
		name   string
		build  func(self, primary ids.ReplicaID, req *message.Request) (*message.Request, []byte)
		forged bool
		badSig bool
		// badAtPrimary: forged only in the primary's slot.
		badAtPrimary bool
	}{
		{name: "honest", build: func(_, _ ids.ReplicaID, req *message.Request) (*message.Request, []byte) {
			return req, authenticate(req)
		}},
		{name: "another replica's tag in this one's slot", forged: true, build: func(self, _ ids.ReplicaID, req *message.Request) (*message.Request, []byte) {
			auth := authenticate(req)
			other := append([]byte(nil), message.TagOf(auth, (self+1)%ids.ReplicaID(mb.N()))...)
			copy(message.TagOf(auth, self), other)
			return req, auth
		}},
		{name: "another client's tags", forged: true, build: func(_, _ ids.ReplicaID, req *message.Request) (*message.Request, []byte) {
			var auth []byte
			for _, r := range all {
				auth = message.SetTag(auth, r, suite.Tag(crypto.ClientPrincipal(1), crypto.ReplicaPrincipal(int(r)), req.TaggedBytes()))
			}
			return req, auth
		}},
		{name: "tags over another op", forged: true, build: func(_, _ ids.ReplicaID, req *message.Request) (*message.Request, []byte) {
			return edited(req, func(r *message.Request) { r.Op = statemachine.EncodeGet("forged") })
		}},
		{name: "tags over another timestamp", forged: true, build: func(_, _ ids.ReplicaID, req *message.Request) (*message.Request, []byte) {
			return edited(req, func(r *message.Request) { r.Timestamp++ })
		}},
		{name: "tags over another signature of the client's", forged: true, build: func(_, _ ids.ReplicaID, req *message.Request) (*message.Request, []byte) {
			return edited(req, func(r *message.Request) { r.Sig = makeRequest(t, suite, 0, 2).Sig })
		}},
		{name: "an authenticator cut short of this replica's slot", forged: true, build: func(self, _ ids.ReplicaID, req *message.Request) (*message.Request, []byte) {
			return req, authenticate(req)[:(int(self)+1)*crypto.TagSize-1]
		}},
		{name: "no authenticator", forged: true, build: func(_, _ ids.ReplicaID, req *message.Request) (*message.Request, []byte) {
			return req, nil
		}},
		{name: "a bad tag in the primary's slot only", badAtPrimary: true, build: func(_, primary ids.ReplicaID, req *message.Request) (*message.Request, []byte) {
			auth := authenticate(req)
			message.TagOf(auth, primary)[0] ^= 0xff
			return req, auth
		}},
		{name: "good tags over a bad signature", badSig: true, build: func(_, _ ids.ReplicaID, req *message.Request) (*message.Request, []byte) {
			req.Sig[0] ^= 0xff
			return req, authenticate(req)
		}},
		{name: "good tags and no signature", badSig: true, build: func(_, _ ids.ReplicaID, req *message.Request) (*message.Request, []byte) {
			req.Sig = nil
			return req, authenticate(req)
		}},
	}
	put, get := statemachine.EncodePut("k", []byte("v")), statemachine.EncodeGet("k")
	kinds := []struct {
		name        string
		kind        message.Kind
		consistency message.Consistency
		op          []byte
	}{
		{"REQUEST", message.KindRequest, message.ConsistencyLinearizable, put},
		// No lease is held, so a leased read is ordered like a write.
		{"leased-READ", message.KindRead, message.ConsistencyLeased, get},
		{"stale-READ", message.KindRead, message.ConsistencyStale, get},
	}
	receivers := []struct {
		mode ids.Mode
		self ids.ReplicaID
	}{
		{ids.Lion, 0}, {ids.Lion, 4},
		{ids.Dog, 0}, {ids.Dog, 3},
		{ids.Peacock, 2}, {ids.Peacock, 0},
	}

	// step hands frame to a fresh replica self of mode, from from, and
	// returns what it sent and what it checked.
	step := func(t *testing.T, mode ids.Mode, self ids.ReplicaID, from transport.Addr, frame []byte) ([]*message.Message, crypto.Counts) {
		t.Helper()
		net := &captureNet{}
		ledger := crypto.Count(crypto.Restrict(suite, crypto.ReplicaPrincipal(int(self))))
		r := loneReplica(t, mode, self, ledger, net, nil)
		r.StepEnvelope(transport.Envelope{From: from, Frame: frame})
		return net.sent, ledger.Totals()
	}

	for _, rc := range receivers {
		primary := mb.Primary(rc.mode, 0)
		atPrimary := rc.self == primary
		// Verifications a request reaching admission costs at primary.
		admitVerifies := uint64(0)
		if rc.mode == ids.Peacock {
			admitVerifies = 1
		}
		for _, k := range kinds {
			for _, tc := range cases {
				role := "backup"
				if atPrimary {
					role = "primary"
				}
				t.Run(fmt.Sprintf("%v/%d-%s/%s/%s", rc.mode, rc.self, role, k.name, tc.name), func(t *testing.T) {
					req := &message.Request{Op: k.op, Timestamp: 1, Client: 0}
					req.Sig = suite.Sign(crypto.ClientPrincipal(0), req.SignedBytes())
					req, auth := tc.build(rc.self, primary, req)
					frame := message.Marshal(&message.Message{
						Kind: k.kind, From: -1, Payload: []*message.Request{req}, Consistency: k.consistency, Sig: auth,
					})
					sent, got := step(t, rc.mode, rc.self, transport.ClientAddr(0), frame)

					forged := tc.forged || tc.badAtPrimary && atPrimary
					want, wantVerifies := "admit", uint64(0)
					switch {
					case forged:
						want = "nothing"
					case k.consistency == message.ConsistencyStale:
						want = "reply"
					case k.kind == message.KindRead && (!atPrimary || rc.mode == ids.Peacock):
						// Only a trusted primary orders an unsigned READ.
						want = "nothing"
					case !atPrimary:
						// A backup relays only what every replica judges
						// alike: the client's signature.
						want, wantVerifies = "relay", 1
						if tc.badSig {
							want = "nothing"
						}
					default:
						wantVerifies = admitVerifies
						if tc.badSig && rc.mode == ids.Peacock {
							want = "nothing"
						}
					}
					if o := clientOutcome(rc.self, sent); o != want {
						t.Fatalf("outcome %s, want %s", o, want)
					}
					if got.Verifies != wantVerifies {
						t.Fatalf("%d signature checks, want %d", got.Verifies, wantVerifies)
					}
					if forged && got.BadTagVerifies != 1 {
						t.Fatalf("%d tag checks refused, want 1: the tag check must be what stops it", got.BadTagVerifies)
					}
					if want != "relay" {
						return
					}

					// The relay carries nothing but µ, and the primary takes
					// it on the client's signature, whatever its own tag.
					var relay *message.Message
					for _, m := range sent {
						if m.Kind == message.KindRequest {
							relay = m
						}
					}
					if len(relay.Sig) != 0 {
						t.Fatalf("the relay carries Sig %x, want none", relay.Sig)
					}
					sent, got = step(t, rc.mode, primary, transport.ReplicaAddr(rc.self), message.Marshal(relay))
					if o := clientOutcome(primary, sent); o != "admit" {
						t.Fatalf("the relay's outcome at primary %d is %s, want admit", primary, o)
					}
					if got.Verifies != 1 || got.TagVerifies != 0 {
						t.Fatalf("%d signature and %d tag checks at primary %d, want 1 and 0", got.Verifies, got.TagVerifies, primary)
					}
				})
			}
		}
	}

	// A client whose tags are good and whose signature is bad gets its
	// request ordered and executed by a trusted primary, and nobody in
	// the cluster checks the signature: the tag proves the client sent
	// the request, so it is the client's own operation.
	for _, mode := range []ids.Mode{ids.Lion, ids.Dog} {
		t.Run(mode.String()+"/bad-signature-executed", func(t *testing.T) {
			counted := crypto.Count(suite)
			h := quietHarness(t, baseMembership(), mode, counted)
			for _, id := range all {
				h.add(id, h.net, nil)
			}
			for _, r := range h.replicas {
				r.Start()
			}
			ep := h.net.Endpoint(transport.ClientAddr(1))
			req := makeRequest(t, suite, 1, 1)
			req.Sig[0] ^= 0xff
			ep.Send(transport.ReplicaAddr(mb.Primary(mode, 0)), message.Marshal(&message.Message{
				Kind: message.KindRequest, From: -1, Payload: []*message.Request{req}, Sig: message.AuthenticateRequest(suite, req, all),
			}))
			select {
			case env := <-ep.Inbox():
				if m := mustUnmarshal(t, env.Frame); m.Kind != message.KindReply || m.Timestamp != 1 {
					t.Fatalf("client got %v, want the REPLY to its request", m)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("no REPLY to a request with good tags and a bad signature")
			}
			waitFor(t, "every replica to execute the request", 10*time.Second, func() bool {
				for _, r := range h.replicas {
					if r.LastExecuted() != 1 {
						return false
					}
				}
				return true
			})
			if v := counted.Totals().Verifies; v != 0 {
				t.Fatalf("%d signature checks, want 0", v)
			}
		})
	}
}

// TestClientCannotFrameThePrimary: a client that sends every replica a
// request whose tag is bad at the primary alone, or good tags over a bad
// signature, cannot get an honest primary suspected. A backup arms the
// suspicion timer only for what it relays, it relays only on the
// client's signature, and the primary takes the relay on that same
// signature. So the first request executes; the second is executed by a
// trusted primary, which takes it on its tag, and dropped by every
// replica of Peacock; and nobody leaves view 0. Nor can tags good at the
// primary alone get its PRE-PREPARE refused: a Peacock proxy whose
// forwarded tag is bad verifies the good signature instead.
func TestClientCannotFrameThePrimary(t *testing.T) {
	for _, tc := range []struct {
		name string
		// build returns client 1's request and the authenticator it
		// sends with it to every replica.
		build func(suite crypto.Suite, all []ids.ReplicaID, primary ids.ReplicaID) (*message.Request, []byte)
		// executed is what each replica has executed by the end.
		executed func(ids.Mode) uint64
	}{
		{
			name: "bad tag at the primary",
			build: func(suite crypto.Suite, all []ids.ReplicaID, primary ids.ReplicaID) (*message.Request, []byte) {
				req := makeRequest(t, suite, 1, 1)
				auth := message.AuthenticateRequest(suite, req, all)
				message.TagOf(auth, primary)[0] ^= 0xff
				return req, auth
			},
			executed: func(ids.Mode) uint64 { return 1 },
		},
		{
			name: "bad tags at every replica but the primary",
			build: func(suite crypto.Suite, all []ids.ReplicaID, primary ids.ReplicaID) (*message.Request, []byte) {
				req := makeRequest(t, suite, 1, 1)
				auth := message.AuthenticateRequest(suite, req, all)
				for _, r := range all {
					if r != primary {
						message.TagOf(auth, r)[0] ^= 0xff
					}
				}
				return req, auth
			},
			executed: func(ids.Mode) uint64 { return 1 },
		},
		{
			name: "good tags over a bad signature",
			build: func(suite crypto.Suite, all []ids.ReplicaID, _ ids.ReplicaID) (*message.Request, []byte) {
				req := makeRequest(t, suite, 1, 1)
				req.Sig[0] ^= 0xff
				return req, message.AuthenticateRequest(suite, req, all)
			},
			executed: func(m ids.Mode) uint64 {
				if m == ids.Peacock {
					return 0
				}
				return 1
			},
		},
	} {
		for _, mode := range []ids.Mode{ids.Lion, ids.Dog, ids.Peacock} {
			t.Run(mode.String()+"/"+tc.name, func(t *testing.T) {
				h := newHarness(t, baseMembership(), mode, 97)
				req, auth := tc.build(h.suite, h.mb.All(), h.mb.Primary(mode, 0))
				frame := message.Marshal(&message.Message{Kind: message.KindRequest, From: -1, Payload: []*message.Request{req}, Sig: auth})
				ep := h.net.Endpoint(transport.ClientAddr(1))
				for _, r := range h.mb.All() {
					ep.Send(transport.ReplicaAddr(r), frame)
				}
				want := tc.executed(mode)
				waitFor(t, "every replica to execute what it should", 10*time.Second, func() bool {
					for _, r := range h.replicas {
						if r.LastExecuted() != want {
							return false
						}
					}
					return true
				})
				// Several suspicion periods: time for a backup's timer to
				// fire, had it armed one that nothing clears.
				time.Sleep(10 * h.cluster.Timing.ViewChange)
				h.stop()
				for _, r := range h.replicas {
					if r.View() != 0 || r.LastExecuted() != want {
						t.Errorf("replica %d is in view %d, executed through %d; want view 0, %d",
							r.ID(), r.View(), r.LastExecuted(), want)
					}
				}
			})
		}
	}
}
