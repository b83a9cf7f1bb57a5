package replica

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/mlog"
	"repro/internal/statemachine"
	"repro/internal/transport"
)

// captureEndpoint records what a replica sends instead of delivering it.
type captureEndpoint struct {
	sent []sentFrame
}

type sentFrame struct {
	to transport.Addr
	m  *message.Message
}

func (e *captureEndpoint) Addr() transport.Addr { return transport.ReplicaAddr(0) }
func (e *captureEndpoint) Send(to transport.Addr, frame []byte) {
	m, err := message.Unmarshal(frame)
	if err != nil {
		panic(err)
	}
	e.sent = append(e.sent, sentFrame{to: to, m: m})
}
func (e *captureEndpoint) Inbox() <-chan transport.Envelope { return nil }
func (e *captureEndpoint) Close()                           {}

// take returns and clears the frames of one kind sent so far.
func (e *captureEndpoint) take(kind message.Kind) []sentFrame {
	var out, rest []sentFrame
	for _, f := range e.sent {
		if f.m.Kind == kind {
			out = append(out, f)
		} else {
			rest = append(rest, f)
		}
	}
	e.sent = rest
	return out
}

// fakeTrust is a crash-only-style rule set (one member's word suffices)
// that records what Recovery told it.
type fakeTrust struct {
	stableQuorum int
	proofQuorum  int
	servers      []ids.ReplicaID
	stabilized   []uint64
}

func (f *fakeTrust) MaySignCheckpoint(from ids.ReplicaID) bool { return from != 3 }
func (f *fakeTrust) StableQuorum() int                         { return f.stableQuorum }
func (f *fakeTrust) ProofSuffices(s []ids.ReplicaID) bool      { return len(s) >= f.proofQuorum }
func (f *fakeTrust) StateServers() []ids.ReplicaID             { return f.servers }
func (f *fakeTrust) SuffixCommits() []message.Signed           { return nil }
func (f *fakeTrust) ValidProposal(*message.Signed) bool        { return true }
func (f *fakeTrust) AdoptCommit(*message.Signed)               {}
func (f *fakeTrust) Stabilized(seq uint64)                     { f.stabilized = append(f.stabilized, seq) }

// rig is one Recovery (replica 0 of 4) over a capture endpoint and a
// virtual clock, with a Counter state machine checkpointing every 4.
type rig struct {
	t     *testing.T
	suite crypto.Suite
	clk   *clock.Virtual
	ep    *captureEndpoint
	log   *mlog.Log
	exec  *Executor
	pend  *Pending
	trust *fakeTrust
	rec   *Recovery
}

const (
	rigN    = 4
	rigSeed = 7
	rigTau  = 100 * time.Millisecond
)

func newRig(t *testing.T) *rig {
	t.Helper()
	g := &rig{
		t:     t,
		suite: crypto.NewHMACSuite(rigSeed, rigN, 4),
		clk:   clock.NewVirtual(),
		ep:    &captureEndpoint{},
		log:   mlog.New(64),
		exec:  NewExecutor(statemachine.NewCounter(), 4),
		trust: &fakeTrust{stableQuorum: 1, proofQuorum: 1, servers: []ids.ReplicaID{1}},
	}
	g.pend = NewPending(g.clk)
	eng := NewEngine(Config{ID: 0, Suite: g.suite, Endpoint: g.ep, Clock: g.clk})
	g.rec = NewRecovery(RecoveryConfig{
		Engine: eng, Log: g.log, Exec: g.exec, Pending: g.pend,
		Trust: g.trust, N: rigN, ViewChange: rigTau, JoinQuorum: 2,
	})
	return g
}

// execute commits and executes slots up to seq.
func (g *rig) execute(upTo uint64) {
	g.t.Helper()
	for seq := g.exec.LastExecuted() + 1; seq <= upTo; seq++ {
		commitSlot(g.t, g.log, seq, signedReq(g.suite, 0, seq, nil))
	}
	g.exec.ExecuteReady(g.log, nil)
}

// peerAt builds another replica's state after executing upTo slots and
// returns its snapshot there.
func (g *rig) peerAt(upTo uint64) []byte {
	g.t.Helper()
	x := NewExecutor(statemachine.NewCounter(), 4)
	l := mlog.New(64)
	for seq := uint64(1); seq <= upTo; seq++ {
		commitSlot(g.t, l, seq, signedReq(g.suite, 0, seq, nil))
	}
	x.ExecuteReady(l, nil)
	snap, ok := x.SnapshotAt(upTo)
	if !ok {
		g.t.Fatalf("no snapshot at %d", upTo)
	}
	return snap
}

func (g *rig) sign(from ids.ReplicaID, s message.Signed) message.Signed {
	s.From = from
	s.Sig = g.suite.Sign(crypto.ReplicaPrincipal(int(from)), s.SignedBytes())
	return s
}

func (g *rig) checkpoint(from ids.ReplicaID, seq uint64, d crypto.Digest) message.Signed {
	return g.sign(from, message.Signed{Kind: message.KindCheckpoint, Seq: seq, Digest: d})
}

func (g *rig) cpWire(from ids.ReplicaID, seq uint64, d crypto.Digest) *message.Message {
	cp := g.checkpoint(from, seq, d)
	return cp.Wire()
}

func (g *rig) signMsg(from ids.ReplicaID, m *message.Message) *message.Message {
	m.From = from
	m.Sig = g.suite.Sign(crypto.ReplicaPrincipal(int(from)), m.SignedBytes())
	return m
}

func TestRecoveryCheckpointStabilizesAtQuorum(t *testing.T) {
	g := newRig(t)
	g.trust.stableQuorum = 2
	g.execute(4)
	snap, _ := g.exec.SnapshotAt(4)
	d := DigestOf(snap)

	// An inadmissible signer and a bad signature count for nothing.
	g.rec.OnCheckpoint(g.cpWire(3, 4, d))
	forged := g.checkpoint(1, 4, d)
	forged.Sig = append([]byte(nil), forged.Sig...)
	forged.Sig[0] ^= 1
	g.rec.OnCheckpoint(forged.Wire())
	g.rec.OnCheckpoint(g.cpWire(1, 4, d))
	if g.log.Low() != 0 {
		t.Fatalf("stable at %d with one admissible signer of two", g.log.Low())
	}
	// The second signer completes the quorum; both certificates are ξ.
	g.rec.OnCheckpoint(g.cpWire(2, 4, d))
	if g.log.Low() != 4 {
		t.Fatalf("stable checkpoint = %d, want 4", g.log.Low())
	}
	if proof := g.log.StableProof(); len(proof) != 2 || proof[0].From != 1 || proof[1].From != 2 {
		t.Fatalf("proof signers = %v, want [1 2]", proof)
	}
	if !reflect.DeepEqual(g.trust.stabilized, []uint64{4}) {
		t.Fatalf("Stabilized calls = %v, want [4]", g.trust.stabilized)
	}
}

func TestRecoveryEmitsCheckpointOnlyWhenAsked(t *testing.T) {
	g := newRig(t)
	g.execute(4)
	g.rec.Executed(false)
	if n := len(g.ep.take(message.KindCheckpoint)); n != 0 {
		t.Fatalf("non-emitter sent %d CHECKPOINTs", n)
	}
	g.rec.Executed(true)
	if n := len(g.ep.take(message.KindCheckpoint)); n != rigN-1 {
		t.Fatalf("emitter sent %d CHECKPOINTs, want one per peer (%d)", n, rigN-1)
	}
	if g.log.Low() != 4 {
		t.Fatalf("own checkpoint with quorum 1 left stable at %d", g.log.Low())
	}
}

// Parked evidence drains in ascending order: draining 8 before 4 would
// garbage-collect 4's evidence unseen, and a map-ordered drain would
// make the schedule differ between identical runs.
func TestRecoveryDrainsParkedEvidenceAscending(t *testing.T) {
	g := newRig(t)
	d4, d8 := DigestOf(g.peerAt(4)), DigestOf(g.peerAt(8))
	g.rec.OnCheckpoint(g.cpWire(1, 8, d8))
	g.rec.OnCheckpoint(g.cpWire(1, 4, d4))
	if g.log.Low() != 0 {
		t.Fatalf("stable at %d before executing anything", g.log.Low())
	}
	g.execute(8)
	g.rec.Executed(false)
	if !reflect.DeepEqual(g.trust.stabilized, []uint64{4, 8}) {
		t.Fatalf("Stabilized calls = %v, want [4 8]", g.trust.stabilized)
	}
}

func TestRecoveryRequestsStateWhenAPeriodBehind(t *testing.T) {
	g := newRig(t)
	g.rec.OnCheckpoint(g.cpWire(1, 8, DigestOf(g.peerAt(8))))
	reqs := g.ep.take(message.KindStateRequest)
	if len(reqs) != 1 || reqs[0].to != transport.ReplicaAddr(1) || reqs[0].m.Seq != 0 {
		t.Fatalf("state requests = %+v, want one to the state server for seq 0", reqs)
	}
	// Throttled to one per τ, retried on the tick after that.
	g.clk.Advance(rigTau / 2)
	g.rec.CatchUp()
	if n := len(g.ep.take(message.KindStateRequest)); n != 0 {
		t.Fatalf("%d requests inside the throttle window", n)
	}
	g.clk.Advance(rigTau)
	g.rec.CatchUp()
	if n := len(g.ep.take(message.KindStateRequest)); n != 1 {
		t.Fatalf("%d requests after the throttle window, want 1", n)
	}
}

// A gap below one period normally closes by itself; an executor that
// sits still for τ with evidence ahead of it is wedged on a hole and
// must ask for a transfer (the rejoin-liveness fix every engine now
// shares).
func TestRecoverySubPeriodStallRequestsState(t *testing.T) {
	g := newRig(t)
	g.execute(2)
	g.rec.OnCheckpoint(g.cpWire(1, 4, DigestOf(g.peerAt(4))))
	g.clk.Advance(rigTau / 2)
	g.rec.CatchUp()
	if n := len(g.ep.take(message.KindStateRequest)); n != 0 {
		t.Fatalf("%d requests for a sub-period gap before the stall timeout", n)
	}
	// Progress restarts the stall clock.
	g.execute(3)
	g.clk.Advance(rigTau)
	g.rec.CatchUp()
	if n := len(g.ep.take(message.KindStateRequest)); n != 0 {
		t.Fatalf("%d requests although the executor advanced", n)
	}
	g.clk.Advance(rigTau)
	g.rec.CatchUp()
	if n := len(g.ep.take(message.KindStateRequest)); n != 1 {
		t.Fatalf("%d requests after a full τ without progress, want 1", n)
	}
}

func TestRecoveryStateReplyNeedsAValidProof(t *testing.T) {
	snap := newRig(t).peerAt(8)
	d := DigestOf(snap)
	reply := func(g *rig, proof ...message.Signed) *message.Message {
		return g.signMsg(1, &message.Message{
			Kind: message.KindStateReply, Seq: 8, StateDigest: d,
			CheckpointProof: proof, Result: snap,
		})
	}
	bad := map[string]func(g *rig) *message.Message{
		"no proof":     func(g *rig) *message.Message { return reply(g) },
		"wrong seq":    func(g *rig) *message.Message { return reply(g, g.checkpoint(1, 4, d)) },
		"wrong digest": func(g *rig) *message.Message { return reply(g, g.checkpoint(1, 8, crypto.Digest{1})) },
		"wrong kind": func(g *rig) *message.Message {
			return reply(g, g.sign(1, message.Signed{Kind: message.KindCommit, Seq: 8, Digest: d}))
		},
		"non-member signer": func(g *rig) *message.Message {
			return reply(g, message.Signed{Kind: message.KindCheckpoint, From: rigN, Seq: 8, Digest: d})
		},
		"duplicate signer": func(g *rig) *message.Message {
			cp := g.checkpoint(1, 8, d)
			return reply(g, cp, cp)
		},
		"forged signature": func(g *rig) *message.Message {
			cp := g.checkpoint(1, 8, d)
			cp.From = 2
			return reply(g, cp)
		},
		"corrupt snapshot": func(g *rig) *message.Message {
			m := reply(g, g.checkpoint(1, 8, d))
			m.Result = append([]byte{0xff}, snap...)
			return g.signMsg(1, m)
		},
	}
	for name, build := range bad {
		g := newRig(t)
		g.rec.OnStateReply(build(g))
		if g.exec.LastExecuted() != 0 || g.log.Low() != 0 {
			t.Errorf("%s: snapshot installed (executed %d, stable %d)", name, g.exec.LastExecuted(), g.log.Low())
		}
	}

	g := newRig(t)
	g.trust.proofQuorum = 2
	if g.rec.OnStateReply(reply(g, g.checkpoint(1, 8, d))); g.exec.LastExecuted() != 0 {
		t.Fatal("installed on a proof the engine's sufficiency rule rejects")
	}
	g.pend.Mark(3)
	if !g.rec.OnStateReply(reply(g, g.checkpoint(1, 8, d), g.checkpoint(2, 8, d))) {
		t.Fatal("well-signed reply not processed")
	}
	if g.exec.LastExecuted() != 8 || g.log.Low() != 8 {
		t.Fatalf("after install: executed %d stable %d, want 8 8", g.exec.LastExecuted(), g.log.Low())
	}
	if g.pend.Len() != 0 {
		t.Fatal("liveness timers of skipped slots survived the install")
	}
	if !reflect.DeepEqual(g.trust.stabilized, []uint64{8}) {
		t.Fatalf("Stabilized calls = %v, want [8]", g.trust.stabilized)
	}
}

func TestRecoveryServesStateOnlyToThoseBehind(t *testing.T) {
	g := newRig(t)
	g.execute(4)
	g.rec.Executed(true) // stabilizes 4 (quorum 1)
	g.ep.take(message.KindCheckpoint)

	ask := func(seq uint64) *message.Message {
		return g.signMsg(2, &message.Message{Kind: message.KindStateRequest, Seq: seq})
	}
	g.rec.OnStateRequest(ask(4))
	if n := len(g.ep.take(message.KindStateReply)); n != 0 {
		t.Fatalf("%d replies to a requester at our checkpoint with an empty suffix", n)
	}
	g.rec.OnStateRequest(ask(0))
	reps := g.ep.take(message.KindStateReply)
	if len(reps) != 1 || reps[0].to != transport.ReplicaAddr(2) || reps[0].m.Seq != 4 ||
		len(reps[0].m.Result) == 0 || len(reps[0].m.CheckpointProof) != 1 {
		t.Fatalf("replies = %+v, want the stable snapshot at 4 with its proof", reps)
	}
}

func TestRecoveryVoteTable(t *testing.T) {
	g := newRig(t)
	vote := func(from ids.ReplicaID, view ids.View) *message.Message {
		return g.signMsg(from, &message.Message{Kind: message.KindViewChange, View: view})
	}
	// Rejected: own id, non-member, stale view, bad signature, bad ξ.
	forged := vote(1, 2)
	forged.From = 2
	unproven := g.signMsg(1, &message.Message{Kind: message.KindViewChange, View: 2, Seq: 4})
	for name, m := range map[string]*message.Message{
		"own": vote(0, 2), "stale": vote(1, 0),
		"non-member": {Kind: message.KindViewChange, From: rigN, View: 2},
		"forged":     forged, "unproven checkpoint": unproven,
	} {
		if g.rec.OnViewChange(m) {
			t.Errorf("%s vote admitted", name)
		}
	}

	// Join the smallest view JoinQuorum (2) replicas demand.
	first := vote(3, 3)
	for _, m := range []*message.Message{first, vote(1, 5), vote(2, 5)} {
		if !g.rec.OnViewChange(m) {
			t.Fatalf("vote from %d for view %d rejected", m.From, m.View)
		}
	}
	if got := g.rec.Join(); got != 5 {
		t.Fatalf("Join = %d, want 5 (view 3 has one vote)", got)
	}
	g.rec.OnViewChange(vote(2, 3))
	if got := g.rec.Join(); got != 3 {
		t.Fatalf("Join = %d, want the smallest demanded view 3", got)
	}
	// A sender's first vote stands, and votes come back in sender order.
	g.rec.OnViewChange(vote(3, 3))
	own := vote(0, 3)
	g.pend.Mark(9)
	g.rec.Suspect(3, own)
	if !g.rec.InViewChange() || g.pend.Len() != 0 {
		t.Fatalf("after Suspect: inVC %v timers %d", g.rec.InViewChange(), g.pend.Len())
	}
	votes := g.rec.Votes(3)
	if len(votes) != 3 || votes[0] != own || votes[1].From != 2 || votes[2] != first {
		t.Fatalf("Votes(3) = %v, want senders [0 2 3] with 3's first vote", votes)
	}

	// Overdue: nothing before 2τ; then escalate while JoinQuorum demand a
	// newer view.
	if next, backOff := g.rec.Overdue(g.clk.Advance(rigTau)); next != 0 || backOff {
		t.Fatalf("Overdue before the deadline = (%d, %v)", next, backOff)
	}
	if next, backOff := g.rec.Overdue(g.clk.Advance(2 * rigTau)); next != 4 || backOff {
		t.Fatalf("Overdue = (%d, %v), want escalate to 4", next, backOff)
	}

	// enterView purges votes up to the view and ends the view change.
	g.rec.enterView(3, 0)
	if g.rec.InViewChange() || len(g.rec.Votes(3)) != 0 || len(g.rec.Votes(5)) != 2 {
		t.Fatalf("after enterView(3): inVC %v, %d votes for 3, %d for 5",
			g.rec.InViewChange(), len(g.rec.Votes(3)), len(g.rec.Votes(5)))
	}
	if g.rec.OnViewChange(vote(1, 3)) {
		t.Fatal("vote for the entered view admitted")
	}
}

// A lone suspicion nobody joined backs off instead of escalating
// forever.
func TestRecoveryLoneSuspicionBacksOff(t *testing.T) {
	g := newRig(t)
	own := g.signMsg(0, &message.Message{Kind: message.KindViewChange, View: 1})
	g.rec.Suspect(1, own)
	g.pend.Mark(2)
	next, backOff := g.rec.Overdue(g.clk.Advance(2*rigTau + time.Millisecond))
	if next != 0 || !backOff {
		t.Fatalf("Overdue = (%d, %v), want back-off", next, backOff)
	}
	if g.rec.InViewChange() || g.pend.Len() != 0 {
		t.Fatalf("after back-off: inVC %v, %d timers", g.rec.InViewChange(), g.pend.Len())
	}
	if next, backOff := g.rec.Overdue(g.clk.Advance(time.Second)); next != 0 || backOff {
		t.Fatalf("Overdue in normal operation = (%d, %v)", next, backOff)
	}
}
