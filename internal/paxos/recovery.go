package paxos

import (
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
)

// The Paxos baseline's side of recovery. Checkpointing, state transfer
// and the view-change vote table are replica.Recovery's; this file
// supplies the crash-only trust rule and the leader change, where all
// replicas are trusted and view-change evidence needs no Byzantine
// filtering.

// trust answers replica.Recovery's questions for a crash-only cluster:
// every replica is trusted, so one member's signature makes a
// checkpoint stable and proves it, the leader serves state, and the
// STATE-REPLY sender's own signature vouches for the commit markers it
// sends.
type trust struct{ r *Replica }

func (t trust) MaySignCheckpoint(ids.ReplicaID) bool { return true }

func (t trust) StableQuorum() int { return 1 }

func (t trust) ProofSuffices(signers []ids.ReplicaID) bool { return len(signers) >= 1 }

func (t trust) StateServers() []ids.ReplicaID {
	return []ids.ReplicaID{t.r.Leader(t.r.view)}
}

func (t trust) SuffixCommits() []message.Signed { return t.r.log.CommittedAbove() }

func (t trust) ValidProposal(s *message.Signed) bool {
	reqs := s.Requests()
	return s.Kind == message.KindPrepare && len(reqs) > 0 &&
		message.BatchDigest(reqs) == s.Digest &&
		s.From == t.r.Leader(s.View) && t.r.eng.VerifyRecord(s)
}

// AdoptCommit: the sender is a trusted (crash-only) peer whose signature
// covers the whole reply, so its word on which slots decided is sound —
// the Paxos learner rule.
func (t trust) AdoptCommit(s *message.Signed) {
	if s.Kind != message.KindCommit {
		return
	}
	entry := t.r.log.Entry(s.Seq)
	if entry == nil || entry.Committed() {
		return
	}
	if prop := entry.Proposal(); prop == nil || prop.Digest != s.Digest {
		return // marker without the matching proposal: unusable
	}
	entry.MarkCommitted()
	t.r.jr.Commit(s.Seq, s.View, s.Digest, nil)
	t.r.pending.Clear(s.Seq)
}

func (t trust) Stabilized(seq uint64) {
	if t.r.nextSeq <= seq {
		t.r.nextSeq = seq + 1
	}
}

// startViewChange abandons the current view and solicits a leader
// change.
func (r *Replica) startViewChange(target ids.View) {
	if target <= r.view {
		return
	}
	vcm := &message.Message{
		Kind:            message.KindViewChange,
		View:            target,
		Seq:             r.log.Low(),
		StateDigest:     r.log.StableDigest(),
		CheckpointProof: r.log.StableProof(),
		Prepares:        r.log.ProposalsAbove(),
		Commits:         r.log.CommitCertsAbove(),
	}
	r.eng.Sign(vcm)
	r.rec.Suspect(target, vcm)
	r.voteRecorded(vcm)
	r.eng.Multicast(r.all(), vcm)
}

func (r *Replica) onViewChange(m *message.Message) {
	if r.rec.OnViewChange(m) {
		r.voteRecorded(m)
	}
}

// voteRecorded reacts to a newly filed VIEW-CHANGE. Crash-only world: a
// single peer demanding a newer view is believable (the join quorum is
// 1); join so the cluster converges quickly.
func (r *Replica) voteRecorded(m *message.Message) {
	if join := r.rec.Join(); join != 0 {
		r.startViewChange(join)
	}
	if r.Leader(m.View) == r.eng.ID() {
		r.tryAssembleNewView(m.View)
	}
}

func (r *Replica) tryAssembleNewView(target ids.View) {
	if target <= r.view {
		return
	}
	// Sender-ordered votes: the checkpoint tie-break (two votes at the
	// same stable Seq can carry different proofs) and the slot picks
	// below must not depend on map iteration order.
	ordered := r.rec.Votes(target)
	others := 0
	for _, m := range ordered {
		if m.From != r.eng.ID() {
			others++
		}
	}
	// Majority: f others plus the new leader itself.
	if others < r.Quorum()-1 {
		return
	}

	l := r.log.Low()
	lDigest := r.log.StableDigest()
	lProof := r.log.StableProof()
	for _, m := range ordered {
		if m.Seq > l {
			l, lDigest, lProof = m.Seq, m.StateDigest, m.CheckpointProof
		}
	}

	type slotPick struct {
		view      ids.View
		digest    crypto.Digest
		requests  []*message.Request
		committed bool
	}
	picks := make(map[uint64]*slotPick)
	consider := func(s *message.Signed, committed bool) {
		reqs := s.Requests()
		if s.Seq <= l || s.Seq > l+r.timing.HighWaterMarkLag || len(reqs) == 0 {
			return
		}
		p, ok := picks[s.Seq]
		if !ok {
			p = &slotPick{}
			picks[s.Seq] = p
		}
		if committed && !p.committed {
			p.committed = true
			p.view, p.digest, p.requests = s.View, s.Digest, reqs
			return
		}
		if !p.committed && (len(p.requests) == 0 || s.View > p.view) {
			p.view, p.digest, p.requests = s.View, s.Digest, reqs
		}
	}
	harvest := func(m *message.Message) {
		for i := range m.Prepares {
			consider(&m.Prepares[i], false)
		}
		for i := range m.Commits {
			consider(&m.Commits[i], true)
		}
	}
	for _, m := range ordered {
		harvest(m)
	}
	own := r.log.ProposalsAbove()
	for i := range own {
		consider(&own[i], false)
	}
	ownC := r.log.CommitCertsAbove()
	for i := range ownC {
		consider(&ownC[i], true)
	}

	h := l
	for seq := range picks {
		if seq > h {
			h = seq
		}
	}

	var prepares, commits []message.Signed
	for seq := l + 1; seq <= h; seq++ {
		p := picks[seq]
		if p == nil || len(p.requests) == 0 {
			noop := &message.Request{Client: -1}
			s := message.Signed{Kind: message.KindPrepare, View: target, Seq: seq, Digest: noop.Digest(), Request: noop}
			r.eng.SignRecord(&s)
			prepares = append(prepares, s)
			continue
		}
		s := message.Signed{View: target, Seq: seq, Digest: p.digest}
		s.SetRequests(p.requests)
		if p.committed {
			s.Kind = message.KindCommit
			r.eng.SignRecord(&s)
			commits = append(commits, s)
		} else {
			s.Kind = message.KindPrepare
			r.eng.SignRecord(&s)
			prepares = append(prepares, s)
		}
	}

	nv := &message.Message{
		Kind:            message.KindNewView,
		View:            target,
		Seq:             l,
		StateDigest:     lDigest,
		CheckpointProof: lProof,
		Prepares:        prepares,
		Commits:         commits,
	}
	r.eng.Sign(nv)
	r.eng.Multicast(r.all(), nv)
	r.applyNewView(nv)
}

func (r *Replica) onNewView(m *message.Message) {
	if m.View <= r.view {
		return
	}
	if m.From != r.Leader(m.View) {
		return
	}
	if !r.eng.Verify(m) || !r.rec.VerifyProof(m.Seq, m.StateDigest, m.CheckpointProof) {
		return
	}
	for _, set := range [][]message.Signed{m.Prepares, m.Commits} {
		for i := range set {
			s := set[i]
			reqs := s.Requests()
			if s.From != m.From || s.View != m.View || len(reqs) == 0 ||
				message.BatchDigest(reqs) != s.Digest || !r.eng.VerifyRecord(&s) {
				return
			}
		}
	}
	r.applyNewView(m)
}

func (r *Replica) applyNewView(m *message.Message) {
	r.view = m.View
	r.rec.EnterView(m.View, 0)
	r.rec.StabilizeOrPend(m.Seq, m.StateDigest, m.CheckpointProof)

	maxSeq := m.Seq
	leader := r.Leader(r.view)
	for i := range m.Commits {
		s := m.Commits[i]
		if s.Seq > maxSeq {
			maxSeq = s.Seq
		}
		entry := r.log.Entry(s.Seq)
		if entry == nil || entry.SetProposal(&s) != nil {
			continue
		}
		r.jr.Proposal(&s)
		entry.SetCommitCert(&s)
		entry.MarkCommitted()
		r.jr.Commit(s.Seq, s.View, s.Digest, &s)
	}
	for i := range m.Prepares {
		s := m.Prepares[i]
		if s.Seq > maxSeq {
			maxSeq = s.Seq
		}
		entry := r.log.Entry(s.Seq)
		if entry == nil || entry.SetProposal(&s) != nil {
			continue
		}
		r.jr.Proposal(&s)
		r.pending.Mark(s.Seq)
		if r.eng.ID() == leader {
			entry.AddVote(message.KindAccept, r.view, r.eng.ID(), s.Digest)
		} else {
			r.accept(leader, s.Seq, s.Digest)
		}
	}
	if r.nextSeq <= maxSeq {
		r.nextSeq = maxSeq + 1
	}
	r.in.EnterView(r.isLeader())
	r.executeReady()
	if p := r.loadProbe(); p.OnViewChange != nil {
		p.OnViewChange(r.view)
	}
}
