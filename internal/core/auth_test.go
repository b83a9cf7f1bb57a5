package core

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
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
// sealed cell anywhere else than its two cases. A seal is only as good
// as its sealer's honesty, so the class belongs to the trusted primary's
// own two messages; and, in Peacock, to the PRE-PREPARE alone, whose
// receivers that skip its signature — the passive nodes — neither vote
// on it nor vouch for it.
func TestEveryKindClassified(t *testing.T) {
	sealedCells := map[message.Kind][3]bool{
		message.KindPrePrepare: {ids.Peacock: true},
		message.KindPrepare:    {ids.Lion: true, ids.Dog: true},
		message.KindCommit:     {ids.Lion: true},
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
				t.Errorf("%v in %v mode: sealed = %v, want %v (only a trusted proposer's own PREPARE and COMMIT, and Peacock's PRE-PREPARE, are sealed)",
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
	m, err := message.Unmarshal(frame)
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
	return loneMember(t, baseMembership(), mode, self, suite, net, store)
}

// loneMember is loneReplica on the membership mb.
func loneMember(t *testing.T, mb ids.Membership, mode ids.Mode, self ids.ReplicaID, suite crypto.Suite, net transport.Network, store storage.Store) *Replica {
	t.Helper()
	cl, err := config.NewCluster(mb, mode, fastTiming())
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
	// Keys for one replica more than mb holds: the public non-proxy of the
	// sealed rows' wider membership.
	suite := crypto.NewEd25519Suite(96, mb.N()+1, 4)
	forger := crypto.Restrict(suite, crypto.ReplicaPrincipal(5))
	req := makeRequest(t, suite, 0, 1)
	d := req.Digest()
	deliver := func(r *Replica, from transport.Addr, frame []byte) {
		r.StepEnvelope(transport.Envelope{From: from, Frame: frame})
	}
	// prePrepare is the Peacock primary's (replica 2's) honest proposal
	// of slot 1, sealed for to.
	prePrepare := func(to ids.ReplicaID) []byte {
		s := message.Signed{Kind: message.KindPrePrepare, From: 2, Seq: 1, Digest: d, Request: req}
		return sealedFrame(suite, 2, to, s, suite.Sign(crypto.ReplicaPrincipal(2), s.SignedBytes()))
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
				deliver(r, transport.ClientAddr(0), message.Marshal(clientRequest(suite, mb, req)))
			},
			claimed: []ids.ReplicaID{1, 2, 3},
		},
		{
			// A passive Peacock node executes on m+1 = 2 INFORMs that
			// match the pre-prepare it holds.
			name: "peacock-inform", mode: ids.Peacock, self: 1, kind: message.KindInform,
			prepare: func(r *Replica) { deliver(r, transport.ReplicaAddr(2), prePrepare(1)) },
			claimed: []ids.ReplicaID{3, 4},
		},
		{
			// A prepared Peacock proxy commits on two COMMIT votes beside
			// its own.
			name: "peacock-commit", mode: ids.Peacock, self: 3, kind: message.KindCommit,
			prepare: func(r *Replica) {
				deliver(r, transport.ReplicaAddr(2), prePrepare(3))
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

	// The sealed rows: the forger names the primary itself and sends the
	// proposal the receiver takes on its seal — if it got past the seal.
	// It never does, whatever the forger puts where the primary's
	// signature goes, because receipt rests on the tag first: the ledger
	// shows no signature was verified before the honest frame. Only a
	// Peacock proxy, which vouches for the PRE-PREPARE with its vote,
	// then verifies what the seal vouched for: σ, and the client's
	// signature unless the primary forwarded the client's tag for it. A
	// replay of the honest frame costs no verification at all.
	for _, tc := range []struct {
		name          string
		mode          ids.Mode
		self, primary ids.ReplicaID
		kind          message.Kind
		// draws is what the honest proposal makes the receiver send (0:
		// nothing), and verifies what it costs in signature checks.
		draws    message.Kind
		verifies uint64
		// extraPublic widens the public cloud past the 3m+1 proxies.
		extraPublic int
		// forwarded: the proposal forwards the client's authenticator.
		forwarded bool
	}{
		{"lion-prepare", ids.Lion, 3, 0, message.KindPrepare, message.KindAccept, 0, 0, false},
		{"lion-commit", ids.Lion, 1, 0, message.KindCommit, 0, 0, 0, false},
		{"dog-prepare", ids.Dog, 2, 0, message.KindPrepare, message.KindAccept, 0, 0, false},
		{"peacock-preprepare-passive", ids.Peacock, 0, 2, message.KindPrePrepare, 0, 0, 0, false},
		{"peacock-preprepare-proxy", ids.Peacock, 3, 2, message.KindPrePrepare, message.KindPrepare, 2, 0, false},
		{"peacock-preprepare-proxy-forwarded", ids.Peacock, 3, 2, message.KindPrePrepare, message.KindPrepare, 1, 0, true},
		// Replica 6 is public but outside view 0's rotation: untrusted,
		// it still neither votes on nor vouches for the PRE-PREPARE.
		{"peacock-preprepare-public-nonproxy", ids.Peacock, 6, 2, message.KindPrePrepare, 0, 0, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			members := ids.MustMembership(mb.S(), mb.P()+tc.extraPublic, mb.C(), mb.M())
			net := &captureNet{}
			ledger := crypto.Count(crypto.Restrict(suite, crypto.ReplicaPrincipal(int(tc.self))))
			r := loneMember(t, members, tc.mode, tc.self, ledger, net, nil)
			if tc.extraPublic > 0 && (!members.IsUntrusted(tc.self) || r.isProxy()) {
				t.Fatalf("replica %d is not a public non-proxy of %v", tc.self, members)
			}
			primary := transport.ReplicaAddr(tc.primary)

			s := message.Signed{Kind: tc.kind, From: tc.primary, Seq: 1, Digest: d, Request: req}
			if tc.forwarded {
				fwd := *req
				fwd.Auth = message.AuthenticateRequest(suite, req, members.All())
				s.Request = &fwd
			}
			genuine := suite.Sign(crypto.ReplicaPrincipal(int(tc.primary)), s.SignedBytes())
			honest := sealedFrame(suite, tc.primary, tc.self, s, genuine)
			seal := mustUnmarshal(t, honest).Sig
			withSig := func(sig []byte) []byte {
				m := s.Wire()
				m.Sig = sig
				return message.Marshal(m)
			}
			garbage := bytes.Repeat([]byte{0xab}, len(genuine))
			for _, forged := range []struct {
				what  string
				frame []byte
			}{
				{"a garbage signature under the forger's seal", sealedFrame(forger, 5, tc.self, s, garbage)},
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
			if e := r.log.Peek(1); e == nil || e.Proposal() == nil || !bytes.Equal(e.Proposal().Sig, genuine) {
				t.Fatal("the honest frame did not log the proposal under the bare signature")
			}
			if n := ledger.Totals().Verifies; n != tc.verifies {
				t.Fatalf("the honest frame cost %d signature verifications at receipt, want %d", n, tc.verifies)
			}
			switch {
			case tc.draws != 0:
				if len(net.sent) == 0 || net.sent[0].Kind != tc.draws {
					t.Fatalf("the honest %v drew no %v", tc.kind, tc.draws)
				}
			case tc.kind == message.KindCommit:
				if r.LastExecuted() != 1 || !bytes.Equal(r.log.Peek(1).CommitCert().Sig, genuine) {
					t.Fatal("the honest COMMIT did not execute the slot under its certificate")
				}
			default:
				if len(net.sent) != 0 {
					t.Fatalf("the honest %v drew a %v", tc.kind, net.sent[0].Kind)
				}
			}
			// Replaying the primary's own frame, seal and all, is the one
			// thing anybody can do, as with a signed frame: it is a
			// duplicate (re-accepted at most), changes nothing, and costs
			// no signature verification, before or after the honest frame.
			executed := r.LastExecuted()
			deliver(r, primary, honest)
			if got := r.log.Peek(1).Proposal(); got.Digest != d || !bytes.Equal(got.Sig, genuine) || r.LastExecuted() != executed {
				t.Fatal("a replay of the honest frame changed the slot")
			}
			if n := ledger.Totals().Verifies; n != tc.verifies {
				t.Fatalf("the replayed frame brought the signature verifications to %d, want %d", n, tc.verifies)
			}
			if tc.mode != ids.Peacock {
				return
			}

			// The Peacock primary may be Byzantine: its own seal around a
			// garbage signature passes any tag check. A passive node logs
			// it, for a collector to refuse if it is ever exported
			// (TestSealedEvidenceExports); a proxy refuses it outright, and
			// votes for nothing.
			s.Seq = 2
			sent := len(net.sent)
			deliver(r, primary, sealedFrame(suite, tc.primary, tc.self, s, garbage))
			if len(net.sent) != sent {
				t.Fatalf("the primary's seal around a garbage signature drew a %v", net.sent[sent].Kind)
			}
			var logged []byte
			if e := r.log.Peek(2); e != nil && e.Proposal() != nil {
				logged = e.Proposal().Sig
			}
			if r.isProxy() && logged != nil {
				t.Fatal("the proxy logged the primary's seal around a garbage signature")
			}
			if !r.isProxy() && !bytes.Equal(logged, garbage) {
				t.Fatal("the passive node did not log the garbage signature it was sealed")
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

// TestSealedEvidenceExportsPeacock: a passive Peacock node takes the
// PRE-PREPARE on its seal, so a Byzantine primary can seal it a garbage
// signature. The passive node logs it and, as the transferer of the next
// view, harvests its own log — which must not believe it. Slot 1's
// garbage pre-prepare loses to the proxies' prepared certificate for
// another payload; slot 2's, which no one else reports, is not re-issued
// at all.
func TestSealedEvidenceExportsPeacock(t *testing.T) {
	const primary, transferer = 2, 1
	mb := baseMembership()
	if mb.IsProxy(ids.Peacock, 0, transferer) || mb.Transferer(ids.Peacock, 1) != transferer || mb.Primary(ids.Peacock, 0) != primary {
		t.Fatal("the membership no longer makes replica 1 the passive transferer of view 1")
	}
	suite := crypto.NewEd25519Suite(93, mb.N(), 4)
	proposal := func(seq uint64, req *message.Request) message.Signed {
		return message.Signed{Kind: message.KindPrePrepare, From: primary, Seq: seq, Digest: req.Digest(), Request: req}
	}
	bad := []message.Signed{proposal(1, makeRequest(t, suite, 0, 1)), proposal(2, makeRequest(t, suite, 1, 1))}
	good := proposal(1, makeRequest(t, suite, 2, 1))
	good.Sig = suite.Sign(crypto.ReplicaPrincipal(primary), good.SignedBytes())

	r := loneReplica(t, ids.Peacock, transferer, crypto.Restrict(suite, crypto.ReplicaPrincipal(transferer)), &captureNet{}, nil)
	garbage := bytes.Repeat([]byte{0xab}, len(good.Sig))
	for _, s := range bad {
		r.StepEnvelope(transport.Envelope{From: transport.ReplicaAddr(primary), Frame: sealedFrame(suite, primary, transferer, s, garbage)})
	}
	if vc := r.buildViewChange(1, ids.Peacock); len(vc.Prepares) != 2 || !bytes.Equal(vc.Prepares[0].Sig, garbage) {
		t.Fatalf("the passive node exports %d proposals, want both garbage-signed ones", len(vc.Prepares))
	}

	// Proxies 3, 4 and 5 report slot 1 prepared in view 0 on the honest
	// payload: the primary's pre-prepare and their own signed PREPAREs.
	var quorum []*message.Message
	for _, from := range []ids.ReplicaID{3, 4, 5} {
		vc := &message.Message{Kind: message.KindViewChange, From: from, View: 1, Mode: ids.Peacock, Prepares: []message.Signed{good}}
		for _, voter := range []ids.ReplicaID{3, 4, 5} {
			vote := message.Signed{Kind: message.KindPrepare, From: voter, Seq: 1, Digest: good.Digest}
			vote.Sig = suite.Sign(crypto.ReplicaPrincipal(int(voter)), vote.SignedBytes())
			vc.Commits = append(vc.Commits, vote)
		}
		quorum = append(quorum, vc)
	}
	nv := r.composeNewView(1, ids.Peacock, quorum)
	if len(nv.Commits) != 0 || len(nv.Prepares) != 1 || nv.Prepares[0].Seq != 1 || nv.Prepares[0].Digest != good.Digest {
		var got []string
		for _, s := range nv.Prepares {
			got = append(got, fmt.Sprintf("slot %d %x", s.Seq, s.Digest[:4]))
		}
		t.Fatalf("the NEW-VIEW re-issues %v, want slot 1 %x alone", got, good.Digest[:4])
	}
}

// TestLaggardAdoptsCommitOverUncheckedSignature: a trusted Lion primary
// admits its clients on their tags, so a slot the cluster committed may
// hold a client signature nobody ever verified. A lagging backup that
// learns the slot from a STATE-REPLY must adopt the primary's signed
// COMMIT on that signature and the payload digest alone, or it refuses a
// slot everyone else executed. Both of those checks stay.
func TestLaggardAdoptsCommitOverUncheckedSignature(t *testing.T) {
	const primary, laggard = 0, 1
	mb := baseMembership()
	suite := crypto.NewEd25519Suite(99, mb.N(), 1)
	req := makeRequest(t, suite, 0, 1)
	req.Sig[0] ^= 0xff
	commit := func(edit func(*message.Signed)) message.Signed {
		s := message.Signed{Kind: message.KindCommit, From: primary, Seq: 1,
			Digest: message.BatchDigest([]*message.Request{req}), Request: req}
		s.Sig = suite.Sign(crypto.ReplicaPrincipal(primary), s.SignedBytes())
		edit(&s)
		return s
	}
	for _, tc := range []struct {
		name     string
		commit   message.Signed
		executed uint64
	}{
		{"the primary's COMMIT", commit(func(*message.Signed) {}), 1},
		{"a COMMIT the primary did not sign", commit(func(s *message.Signed) { s.Sig[0] ^= 0xff }), 0},
		{"a COMMIT over another payload", commit(func(s *message.Signed) { s.Request = makeRequest(t, suite, 0, 2) }), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if suite.Verify(crypto.ClientPrincipal(0), req.SignedBytes(), req.Sig) {
				t.Fatal("the committed request's client signature verifies")
			}
			rep := &message.Message{Kind: message.KindStateReply, From: primary, Commits: []message.Signed{tc.commit}}
			rep.Sig = suite.Sign(crypto.ReplicaPrincipal(primary), rep.SignedBytes())
			r := loneReplica(t, ids.Lion, laggard, crypto.Restrict(suite, crypto.ReplicaPrincipal(laggard)), &captureNet{}, nil)
			r.StepEnvelope(transport.Envelope{From: transport.ReplicaAddr(primary), Frame: message.Marshal(rep)})
			if got := r.LastExecuted(); got != tc.executed {
				t.Fatalf("the laggard executed through slot %d, want %d", got, tc.executed)
			}
		})
	}
}

// authCost is what one request costs the cluster in signatures,
// signature verifications, tags and tag checks, client included.
type authCost struct{ signs, minVerifies, maxVerifies, tags, tagChecks uint64 }

// authBudget is what one committed request costs at batch 1 on S=2 P=4
// (ARCHITECTURE.md derives the numbers). Every receiver takes a client's
// request on its tag; only a Peacock primary verifies the client's
// signature, before admission, and each of its proxies takes the
// request on its tag in the authenticator the PRE-PREPARE forwards.
// Verifications are a range only in Peacock, where a PREPARE vote that
// overtakes the pre-prepare, or the vote before it, still has to be
// checked. The six tags of the client's authenticator are part of every
// row but the CFT one, which is Lion on S=3 P=0: the three-tag
// authenticator, the leader's two seals on PREPARE and COMMIT, one
// ACCEPT per follower and the REPLY; the leader checks only the one
// ACCEPT its f+1 quorum needs.
var authBudget = map[string]authCost{
	"Lion":    {3, 0, 0, 22, 15},
	"Dog":     {2, 0, 0, 47, 23},
	"Peacock": {5, 9, 13, 35, 24},
	"CFT":     {3, 0, 0, 10, 7},
}

// readBudget is what one read served without consensus costs on n
// replicas — leased at a Lion or Dog primary, or stale at a private node
// in any mode: the client's signature and its n-tag authenticator, the
// server's check of its tag, the REPLY's tag and the client's check of
// it. Nobody verifies a signature.
func readBudget(n int) authCost { return authCost{1, 0, 0, uint64(n) + 1, 2} }

// budgetShape is one row of the budget tests: a mode on a membership.
type budgetShape struct {
	name string
	mb   ids.Membership
	mode ids.Mode
}

// budgetShapes are the three modes on S=2 P=4, and the CFT baseline:
// Lion with no public cloud, on S=3 P=0.
func budgetShapes() []budgetShape {
	return []budgetShape{
		{"Lion", baseMembership(), ids.Lion},
		{"Dog", baseMembership(), ids.Dog},
		{"Peacock", baseMembership(), ids.Peacock},
		{"CFT", ids.MustMembership(3, 0, 1, 0), ids.Lion},
	}
}

// budgetOps is how many sequential Puts a budget test runs: below the
// checkpoint period, so CHECKPOINTs and snapshots are not per-request
// cost.
const budgetOps = 12

// quietHarness is the cluster the budget tests measure, before any
// replica is added: mode on mb over suite, with no retransmission and
// no suspicion, however loaded the host — either would add work that is
// not the budget's.
func quietHarness(t *testing.T, mb ids.Membership, mode ids.Mode, suite crypto.Suite) *harness {
	t.Helper()
	timing := fastTiming()
	timing.ViewChange, timing.ClientRetry = time.Minute, time.Minute
	cl, err := config.NewCluster(mb, mode, timing)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{
		t: t, mb: mb, cluster: cl, suite: suite,
		net: transport.NewSimNetwork(transport.LAN(mb.S(), 95)),
	}
	t.Cleanup(h.stop)
	return h
}

// add builds replica id, unstarted, on net and journaling to st (nil:
// no durability).
func (h *harness) add(id ids.ReplicaID, net transport.Network, st storage.Store) {
	h.t.Helper()
	kv := statemachine.NewKVStore()
	r, err := NewReplica(Options{
		ID: id, Cluster: h.cluster, Suite: h.suite, Network: net,
		StateMachine: kv, TickInterval: 2 * time.Millisecond, Storage: st,
	})
	if err != nil {
		h.t.Fatal(err)
	}
	h.replicas = append(h.replicas, r)
	h.kvs = append(h.kvs, kv)
}

// budgetCluster builds, without starting it, the quiet cluster of shape
// sh granting leases, with each replica journaling to storeOf(id)
// (storeOf nil: no durability).
func budgetCluster(t *testing.T, sh budgetShape, suite crypto.Suite, leases config.Leases, storeOf func(ids.ReplicaID) storage.Store) *harness {
	t.Helper()
	h := quietHarness(t, sh.mb, sh.mode, suite)
	h.cluster.Leases = leases
	for _, id := range h.mb.All() {
		var st storage.Store
		if storeOf != nil {
			st = storeOf(id)
		}
		h.add(id, h.net, st)
	}
	return h
}

// runBudget starts the cluster, runs budgetOps sequential Puts and waits
// until every replica has executed every one of them.
func (h *harness) runBudget() {
	h.t.Helper()
	for _, r := range h.replicas {
		r.Start()
	}
	c := h.client(0)
	for i := 0; i < budgetOps; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), "v")
	}
	waitFor(h.t, "every replica to execute every request", 10*time.Second, func() bool {
		for _, r := range h.replicas {
			if r.LastExecuted() != budgetOps {
				return false
			}
		}
		return true
	})
}

// TestAuthBudgetPerOp pins the per-request authentication budget with a
// counting suite, so a regression in signatures, verifications or tags
// per request fails here instead of waiting for a traced benchmark run.
// The read rows run after the Puts, on a lease the Puts armed, and count
// only what the reads add; the lease adds nothing to a Put's cost.
func TestAuthBudgetPerOp(t *testing.T) {
	const ops = budgetOps
	check := func(t *testing.T, what string, got crypto.Counts, want authCost) {
		t.Helper()
		if got.Signs != want.signs*ops {
			t.Errorf("%d signatures for %d %s, want %d each", got.Signs, ops, what, want.signs)
		}
		if got.Verifies < want.minVerifies*ops || got.Verifies > want.maxVerifies*ops {
			t.Errorf("%d signature verifications for %d %s, want %d–%d each",
				got.Verifies, ops, what, want.minVerifies, want.maxVerifies)
		}
		if got.Tags != want.tags*ops || got.TagVerifies != want.tagChecks*ops {
			t.Errorf("%d tags and %d tag checks for %d %s, want %d and %d each",
				got.Tags, got.TagVerifies, ops, what, want.tags, want.tagChecks)
		}
		if got.BadVerifies+got.BadTagVerifies != 0 {
			t.Errorf("honest run rejected %d signatures and %d tags", got.BadVerifies, got.BadTagVerifies)
		}
		t.Logf("per %s: %.1f signatures, %.1f verifications, %.1f tags, %.1f tag checks", what,
			float64(got.Signs)/ops, float64(got.Verifies)/ops, float64(got.Tags)/ops, float64(got.TagVerifies)/ops)
	}
	for _, sh := range budgetShapes() {
		t.Run(sh.name, func(t *testing.T) {
			// Client 0 writes, client 1 reads. The CFT line runs without
			// leases, as it does everywhere else.
			counted := crypto.Count(crypto.NewEd25519Suite(95, sh.mb.N(), 2))
			leased := sh.mode != ids.Peacock && sh.mb.P() > 0
			var leases config.Leases
			if leased {
				leases.Duration = 30 * time.Second
			}
			h := budgetCluster(t, sh, counted, leases, nil)
			// Once every replica has executed every request no signature is
			// left to check: what may still be in flight is tagged, or a
			// PREPARE vote for a slot its receiver has already prepared.
			h.runBudget()
			check(t, "request", counted.Totals(), authBudget[sh.name])

			reads := []client.ReadOptions{{Consistency: client.Stale}}
			if leased {
				reads = append(reads, client.ReadOptions{Consistency: client.Leased})
			}
			c := h.client(1)
			for _, opts := range reads {
				before := counted.Totals()
				for i := 0; i < ops; i++ {
					if _, err := c.Read(statemachine.EncodeGet(fmt.Sprintf("k%d", i)), opts); err != nil {
						t.Fatal(err)
					}
				}
				after := counted.Totals()
				check(t, opts.Consistency.String()+" read", crypto.Counts{
					Signs: after.Signs - before.Signs, Verifies: after.Verifies - before.Verifies,
					Tags: after.Tags - before.Tags, TagVerifies: after.TagVerifies - before.TagVerifies,
					BadVerifies: after.BadVerifies - before.BadVerifies, BadTagVerifies: after.BadTagVerifies - before.BadTagVerifies,
				}, readBudget(sh.mb.N()))
			}
		})
	}
}

// countingStore counts what a replica asks of its disk, into counters
// every replica's store shares.
type countingStore struct {
	*storage.Mem
	appends, syncs *atomic.Uint64
}

func (s countingStore) Append(rec storage.Record) error {
	s.appends.Add(1)
	return s.Mem.Append(rec)
}

func (s countingStore) Sync() error {
	s.syncs.Add(1)
	return s.Mem.Sync()
}

// syncBudget is what one committed request costs the cluster's disks at
// batch 1 on S=2 P=4, every replica journaling: appends exactly, syncs
// at most. A sync comes from the outbox, once per drain that sends after
// appending (ARCHITECTURE.md, "Durability and recovery"); a record no
// frame depends on — a Lion backup's or a passive node's commit — rides
// the sync of the replica's next frame. So the ceiling is one sync per
// such drain, and drains that share a sync only lower it:
//   - Lion: the primary's proposal and its commit (2), one ACCEPT per
//     backup (5);
//   - Dog: the primary's proposal (1), each proxy's ACCEPT and its
//     commit with INFORM and REPLY (4 × 2);
//   - Peacock: the primary's PRE-PREPARE, each proxy's PREPARE (3),
//     each proxy's COMMIT vote and its commit with INFORM and REPLY
//     (4 × 2).
//   - CFT (Lion on S=3 P=0): the leader's proposal and its commit (2),
//     one ACCEPT per follower (2).
var syncBudget = map[string]struct{ appends, maxSyncs uint64 }{
	"Lion":    {12, 7},
	"Dog":     {16, 9},
	"Peacock": {19, 12},
	"CFT":     {6, 4},
}

// TestSyncBudgetPerOp pins the per-request journal budget with a
// counting store: the exact, disk-independent half of what the one
// outbox saves.
func TestSyncBudgetPerOp(t *testing.T) {
	const ops = budgetOps
	for _, sh := range budgetShapes() {
		t.Run(sh.name, func(t *testing.T) {
			var appends, syncs atomic.Uint64
			h := budgetCluster(t, sh, crypto.NewEd25519Suite(95, sh.mb.N(), 1), config.Leases{}, func(ids.ReplicaID) storage.Store {
				return countingStore{Mem: storage.NewMem(), appends: &appends, syncs: &syncs}
			})
			boot := appends.Load() // each pristine replica stamps its boot view
			h.runBudget()
			gotAppends, gotSyncs := appends.Load()-boot, syncs.Load()
			want := syncBudget[sh.name]
			if gotAppends != want.appends*ops {
				t.Errorf("%d journal appends for %d requests, want %d per request", gotAppends, ops, want.appends)
			}
			if gotSyncs > want.maxSyncs*ops {
				t.Errorf("%d journal syncs for %d requests, want at most %d per request", gotSyncs, ops, want.maxSyncs)
			}
			t.Logf("%v per request: %.2f appends, %.2f syncs", sh.name, float64(gotAppends)/ops, float64(gotSyncs)/ops)
		})
	}
}
