package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/replica"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
)

// TestEveryKindClassified walks Kind × mode: every pair must be
// classified exactly once. authTable is an array literal indexed by
// kind, so the compiler already rejects a kind listed twice; what is
// left to catch is a kind added to message without a row here — and a
// sealed cell anywhere the kind's sender can be a public node. A seal is
// only as good as its sealer's honesty, so the class belongs to the
// trusted primary's own two messages and to nothing in Peacock.
func TestEveryKindClassified(t *testing.T) {
	sealedCells := map[message.Kind][3]bool{
		message.KindPrepare: {ids.Lion: true, ids.Dog: true},
		message.KindCommit:  {ids.Lion: true},
	}
	kinds := 0
	for k := message.Kind(1); k.Valid(); k++ {
		kinds++
		if int(k) >= len(authTable) {
			t.Errorf("%v is not classified", k)
			continue
		}
		for _, mode := range []ids.Mode{ids.Lion, ids.Dog, ids.Peacock} {
			switch authTable[k][mode] {
			case replica.AuthSigned, replica.AuthTagged, replica.AuthSealed, replica.AuthNone:
			default:
				t.Errorf("%v in %v mode is not classified", k, mode)
			}
			if got, want := authTable[k][mode] == replica.AuthSealed, sealedCells[k][mode]; got != want {
				t.Errorf("%v in %v mode: sealed = %v, want %v (only a trusted proposer's own PREPARE and COMMIT are sealed)",
					k, mode, got, want)
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

// sealedFrame encodes the proposal s under sig, sealed for replica to with
// keyHolder's key for to. The honest frame has s.From's signature and
// keyHolder == s.From; a forger can only seal with its own key.
func sealedFrame(suite crypto.Suite, keyHolder, to ids.ReplicaID, s message.Signed, sig []byte) []byte {
	m := s.Wire()
	sealed, auth := message.Seal(sig, int(to)+1)
	message.SetTag(auth, to,
		suite.Tag(crypto.ReplicaPrincipal(int(keyHolder)), crypto.ReplicaPrincipal(int(to)), s.SealedBytes(sig)))
	m.Sig = sealed
	return message.Marshal(m)
}

// captureNet is a transport.Network that delivers nothing and records
// every frame sent through it, so that a stepped replica "sent no
// ACCEPT" is an exact statement and not a timeout.
type captureNet struct{ sent []*message.Message }

func (n *captureNet) Endpoint(a transport.Addr) transport.Endpoint { return captureEndpoint{n, a} }
func (n *captureNet) Close()                                       {}

type captureEndpoint struct {
	net  *captureNet
	addr transport.Addr
}

func (e captureEndpoint) Addr() transport.Addr { return e.addr }
func (e captureEndpoint) Send(_ transport.Addr, frame []byte) {
	m, err := message.Unmarshal(append([]byte(nil), frame...))
	if err != nil {
		panic(err)
	}
	e.net.sent = append(e.net.sent, m)
}
func (e captureEndpoint) Inbox() <-chan transport.Envelope { return nil }
func (e captureEndpoint) Close()                           {}

// loneReplica builds one unstarted replica of the base membership, to be
// stepped by hand.
func loneReplica(t *testing.T, mode ids.Mode, self ids.ReplicaID, suite crypto.Suite, net transport.Network, store storage.Store) *Replica {
	t.Helper()
	cl, err := config.NewCluster(baseMembership(), mode, fastTiming())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplica(Options{
		ID: self, Cluster: cl, Suite: suite, Network: net,
		StateMachine: statemachine.NewKVStore(), Storage: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
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
			net := transport.NewSimNetwork(transport.LAN(mb.S(), 96))
			defer net.Close()
			r := loneReplica(t, tc.mode, tc.self, crypto.Restrict(suite, crypto.ReplicaPrincipal(int(tc.self))), net, nil)
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

	// The sealed rows: the forger names the trusted primary itself and
	// sends the proposal no backup would question — if it got past the
	// seal. It never does, whatever the forger puts where the primary's
	// signature goes, because receipt rests on the tag alone: the ledger
	// shows no signature was verified, before or after the honest frame.
	for _, tc := range []struct {
		name string
		mode ids.Mode
		self ids.ReplicaID
		kind message.Kind
	}{
		{"lion-prepare", ids.Lion, 3, message.KindPrepare},
		{"lion-commit", ids.Lion, 1, message.KindCommit},
		{"dog-prepare", ids.Dog, 2, message.KindPrepare},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := &captureNet{}
			ledger := crypto.Count(crypto.Restrict(suite, crypto.ReplicaPrincipal(int(tc.self))))
			r := loneReplica(t, tc.mode, tc.self, ledger, net, nil)
			primary := transport.ReplicaAddr(0)

			s := message.Signed{Kind: tc.kind, From: 0, Seq: 1, Digest: d, Request: req}
			genuine := suite.Sign(crypto.ReplicaPrincipal(0), s.SignedBytes())
			honest := sealedFrame(suite, 0, tc.self, s, genuine)
			seal := mustUnmarshal(t, honest).Sig
			withSig := func(sig []byte) []byte {
				m := s.Wire()
				m.Sig = sig
				return message.Marshal(m)
			}
			for _, forged := range []struct {
				what  string
				frame []byte
			}{
				{"a garbage signature under the forger's seal", sealedFrame(forger, 5, tc.self, s, bytes.Repeat([]byte{0xab}, len(genuine)))},
				{"the primary's genuine signature re-sealed by the forger", sealedFrame(forger, 5, tc.self, s, genuine)},
				{"the signed-only frame", withSig(genuine)},
				{"a seal cut one byte short", withSig(seal[:len(seal)-1])},
				{"a seal without its authenticator", withSig(seal[:1+len(genuine)])},
				{"a seal cut inside the signature", withSig(seal[:10])},
				{"no Sig at all", withSig(nil)},
			} {
				deliver(r, primary, forged.frame)
				if e := r.log.Peek(1); e != nil && e.Proposal() != nil {
					t.Fatalf("%s logged a proposal", forged.what)
				}
				if len(net.sent) != 0 {
					t.Fatalf("%s drew a %v", forged.what, net.sent[0].Kind)
				}
				if r.LastExecuted() != 0 {
					t.Fatalf("%s executed the slot", forged.what)
				}
			}
			if n := ledger.Totals(); n.BadTagVerifies == 0 || n.Verifies != 0 {
				t.Fatalf("forgeries met %d tag refusals and %d signature checks, want > 0 and 0", n.BadTagVerifies, n.Verifies)
			}

			deliver(r, primary, honest)
			prop := r.log.Peek(1).Proposal()
			if prop == nil || !bytes.Equal(prop.Sig, genuine) {
				t.Fatal("the honest frame did not log the proposal under the bare signature")
			}
			switch tc.kind {
			case message.KindPrepare:
				if len(net.sent) == 0 || net.sent[0].Kind != message.KindAccept {
					t.Fatal("the honest PREPARE drew no ACCEPT")
				}
			case message.KindCommit:
				if r.LastExecuted() != 1 || !bytes.Equal(r.log.Peek(1).CommitCert().Sig, genuine) {
					t.Fatal("the honest COMMIT did not execute the slot under its certificate")
				}
			}
			// Replaying the primary's own frame, seal and all, is the one
			// thing anybody can do, as with a signed frame: it is a
			// duplicate (re-accepted at most), and changes nothing.
			executed := r.LastExecuted()
			deliver(r, primary, honest)
			if got := r.log.Peek(1).Proposal(); got.Digest != d || !bytes.Equal(got.Sig, genuine) || r.LastExecuted() != executed {
				t.Fatal("a replay of the honest frame changed the slot")
			}
			if n := ledger.Totals().Verifies; n != 0 {
				t.Fatalf("the honest frame cost %d signature verifications at receipt", n)
			}
		})
	}
}

func mustUnmarshal(t *testing.T, frame []byte) *message.Message {
	t.Helper()
	m, err := message.Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSealedEvidenceExports: what a backup accepted on the seal alone is
// still evidence. The signature it kept unverified verifies for whoever
// is shown it — a collector harvests it from the backup's VIEW-CHANGE,
// before and after the backup restarts from its journal — and an entry
// whose stored signature is bad is dropped by that harvest, not
// believed: nothing second-hand rides on the seal.
func TestSealedEvidenceExports(t *testing.T) {
	suite := crypto.NewEd25519Suite(94, baseMembership().N(), 4)
	reqs := []*message.Request{makeRequest(t, suite, 0, 1), makeRequest(t, suite, 1, 1)}
	sealed := func(to ids.ReplicaID, kind message.Kind, seq uint64) []byte {
		s := message.Signed{Kind: kind, From: 0, Seq: seq, Digest: reqs[seq-1].Digest(), Request: reqs[seq-1]}
		return sealedFrame(suite, 0, to, s, suite.Sign(crypto.ReplicaPrincipal(0), s.SignedBytes()))
	}
	// Backup 2 of view 0 accepts slot 1 (PREPARE and COMMIT) and slot 2
	// (PREPARE only) from primary 0, journaling as it goes.
	const backup = 2
	store := storage.NewMem()
	r := loneReplica(t, ids.Lion, backup, crypto.Restrict(suite, crypto.ReplicaPrincipal(backup)), &captureNet{}, store)
	for _, frame := range [][]byte{
		sealed(backup, message.KindPrepare, 1), sealed(backup, message.KindCommit, 1), sealed(backup, message.KindPrepare, 2),
	} {
		r.StepEnvelope(transport.Envelope{From: transport.ReplicaAddr(0), Frame: frame})
	}
	vc := r.buildViewChange(1, ids.Lion)
	if len(vc.Prepares) != 2 || len(vc.Commits) != 1 {
		t.Fatalf("VIEW-CHANGE exports %d proposals and %d certificates, want 2 and 1", len(vc.Prepares), len(vc.Commits))
	}

	// harvest is the collector of view 1 composing a NEW-VIEW from one
	// report; it returns the digests it re-issued as committed and open.
	noop := (&message.Request{Client: -1}).Digest()
	harvest := func(vc *message.Message) (committed, open []crypto.Digest) {
		t.Helper()
		collector := loneReplica(t, ids.Lion, 1, crypto.Restrict(suite, crypto.ReplicaPrincipal(1)), &captureNet{}, nil)
		nv := collector.composeNewView(1, ids.Lion, []*message.Message{vc})
		for _, s := range nv.Commits {
			committed = append(committed, s.Digest)
		}
		for _, s := range nv.Prepares {
			open = append(open, s.Digest)
		}
		return committed, open
	}
	check := func(when string, vc *message.Message) {
		t.Helper()
		for _, set := range [][]message.Signed{vc.Prepares, vc.Commits} {
			for i := range set {
				if !suite.Verify(crypto.ReplicaPrincipal(0), set[i].SignedBytes(), set[i].Sig) {
					t.Fatalf("%s: exported %v for slot %d does not verify as the primary's", when, set[i].Kind, set[i].Seq)
				}
			}
		}
		committed, open := harvest(vc)
		if len(committed) != 1 || committed[0] != reqs[0].Digest() || len(open) != 1 || open[0] != reqs[1].Digest() {
			t.Fatalf("%s: the collector re-issued committed %v and open %v, want slot 1 committed and slot 2 open", when, committed, open)
		}
	}
	check("first-hand", vc)

	// Crash, restart from the journal, export again: byte for byte the
	// same VIEW-CHANGE, so what was journaled is the bare signature.
	r.Stop()
	r = loneReplica(t, ids.Lion, backup, crypto.Restrict(suite, crypto.ReplicaPrincipal(backup)), &captureNet{}, store.Reopen())
	recovered := r.buildViewChange(1, ids.Lion)
	if !bytes.Equal(message.Marshal(recovered), message.Marshal(vc)) {
		t.Fatal("the recovered backup exports a different VIEW-CHANGE")
	}
	check("recovered", recovered)

	// A stored signature gone bad is the collector's to catch: with slot
	// 1's certificate and proposal both corrupted nothing vouches for the
	// slot, and it is filled with a no-op rather than believed.
	for _, s := range []*message.Signed{&recovered.Commits[0], &recovered.Prepares[0]} {
		if s.Seq != 1 {
			t.Fatalf("exported entry is for slot %d, want 1", s.Seq)
		}
		s.Sig = append([]byte(nil), s.Sig...)
		s.Sig[0] ^= 0xff
	}
	committed, open := harvest(recovered)
	if len(committed) != 0 || len(open) != 2 || open[0] != noop || open[1] != reqs[1].Digest() {
		t.Fatalf("with slot 1's evidence corrupted the collector re-issued committed %v and open %v, "+
			"want slot 1 a no-op and slot 2 open", committed, open)
	}
}

// authBudget is what one committed request may cost in signatures and
// signature verifications, cluster-wide, client included, at batch 1 on
// S=2 P=4 (ARCHITECTURE.md derives the numbers). Verifications are a
// range only in Peacock, where a PREPARE vote that overtakes the
// pre-prepare, or the vote before it, still has to be checked.
var authBudget = map[ids.Mode]struct{ signs, minVerifies, maxVerifies uint64 }{
	ids.Lion:    {3, 1, 1},
	ids.Dog:     {2, 1, 1},
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
