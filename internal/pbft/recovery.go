package pbft

import (
	"bytes"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
)

// The PBFT baseline's side of recovery. Checkpointing, state transfer
// and the view-change vote table are replica.Recovery's; this file
// supplies the all-Byzantine trust rule and the view change. One
// deliberate simplification relative to Castro & Liskov: NEW-VIEW messages do not
// embed the full view-change messages; instead each re-issued slot is
// selected from prepared certificates carried in the VIEW-CHANGE
// messages, and every backup independently enforces that a NEW-VIEW
// never contradicts a prepared certificate it holds locally. Under the
// crash-style failures the paper's evaluation injects, this yields the
// same message flow and recovery timing as full PBFT; DESIGN.md records
// the simplification.

// trust answers replica.Recovery's questions for an all-Byzantine
// cluster: every member's CHECKPOINT counts, an agreement quorum of them
// is stable, Byz+1 prove it (a weak certificate: at least one correct
// signer), everyone is asked for state, and no single replica's word
// proves a commit — commit status is re-established through the normal
// vote flow (or the next checkpoint transfer), never taken on the reply
// sender's word.
type trust struct{ r *Replica }

func (t trust) MaySignCheckpoint(ids.ReplicaID) bool { return true }

func (t trust) StableQuorum() int { return t.r.Quorum() }

func (t trust) ProofSuffices(signers []ids.ReplicaID) bool {
	return len(signers) >= t.r.WeakQuorum()
}

func (t trust) StateServers() []ids.ReplicaID { return t.r.all() }

func (t trust) SuffixCommits() []message.Signed { return nil }

func (t trust) ValidProposal(s *message.Signed) bool { return t.r.validProposal(s) }

// validProposal: only the pre-prepare signature of its view's primary
// makes a proposal record adoptable (state-transfer suffix) or usable as
// view-change evidence.
func (r *Replica) validProposal(s *message.Signed) bool {
	reqs := s.Requests()
	return s.Kind == message.KindPrePrepare && len(reqs) > 0 &&
		message.BatchDigest(reqs) == s.Digest &&
		s.From == r.Primary(s.View) && r.eng.VerifyRecord(s)
}

func (t trust) AdoptCommit(*message.Signed) {}

func (t trust) Stabilized(seq uint64) {
	if t.r.nextSeq <= seq {
		t.r.nextSeq = seq + 1
	}
}

// ---------------------------------------------------------------------------
// View change

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
		Commits:         r.preparedCertificates(),
	}
	r.eng.Sign(vcm)
	r.rec.Suspect(target, vcm)
	r.voteRecorded(vcm)
	r.eng.Multicast(r.all(), vcm)
}

// preparedCertificates flattens the prepare votes of every live slot.
func (r *Replica) preparedCertificates() []message.Signed {
	var out []message.Signed
	for _, prop := range r.log.ProposalsAbove() {
		entry := r.log.Peek(prop.Seq)
		if entry == nil {
			continue
		}
		out = append(out, entry.VoteCerts(message.KindPrepare, prop.View, prop.Digest)...)
	}
	return out
}

func (r *Replica) onViewChange(m *message.Message) {
	if r.rec.OnViewChange(m) {
		r.voteRecorded(m)
	}
}

// voteRecorded reacts to a newly filed VIEW-CHANGE: join once Byz+1
// distinct replicas demand a newer view, and assemble the NEW-VIEW when
// this replica is the view's primary.
func (r *Replica) voteRecorded(m *message.Message) {
	if join := r.rec.Join(); join != 0 {
		r.startViewChange(join)
	}
	if r.Primary(m.View) == r.eng.ID() {
		r.tryAssembleNewView(m.View)
	}
}

func (r *Replica) tryAssembleNewView(target ids.View) {
	if target <= r.view {
		return
	}
	// Sender-ordered votes: the checkpoint tie-break (two votes at the
	// same stable Seq can carry different proofs) and the candidate
	// harvest below feed the NEW-VIEW wire content, which must not
	// depend on map iteration order.
	ordered := r.rec.Votes(target)
	if len(ordered) < r.Quorum() {
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

	type cand struct {
		view     ids.View
		requests []*message.Request
		voters   map[ids.ReplicaID]bool
	}
	slots := make(map[uint64]map[crypto.Digest]*cand)
	getCand := func(seq uint64, d crypto.Digest) *cand {
		byDigest, ok := slots[seq]
		if !ok {
			byDigest = make(map[crypto.Digest]*cand)
			slots[seq] = byDigest
		}
		c, ok := byDigest[d]
		if !ok {
			c = &cand{voters: make(map[ids.ReplicaID]bool)}
			byDigest[d] = c
		}
		return c
	}
	harvest := func(prepares, commits []message.Signed) {
		for i := range prepares {
			s := prepares[i]
			if s.Seq <= l || s.Seq > l+r.timing.HighWaterMarkLag ||
				!r.validProposal(&s) {
				continue
			}
			c := getCand(s.Seq, s.Digest)
			if s.View >= c.view {
				c.view = s.View
				c.requests = s.Requests()
			}
		}
		for i := range commits {
			s := commits[i]
			if s.Seq <= l || s.Seq > l+r.timing.HighWaterMarkLag ||
				s.Kind != message.KindPrepare {
				continue
			}
			if int(s.From) < 0 || int(s.From) >= r.n || !r.eng.VerifyRecord(&s) {
				continue
			}
			byDigest, ok := slots[s.Seq]
			if !ok {
				continue
			}
			if c, ok := byDigest[s.Digest]; ok && c.view == s.View {
				c.voters[s.From] = true
			}
		}
	}
	// Two passes so prepare votes can attach to pre-prepares regardless
	// of the order view-change messages listed them in.
	for _, m := range ordered {
		harvest(m.Prepares, nil)
	}
	harvest(r.log.ProposalsAbove(), nil)
	for _, m := range ordered {
		harvest(nil, m.Commits)
	}
	harvest(nil, r.preparedCertificates())

	h := l
	for seq := range slots {
		if seq > h {
			h = seq
		}
	}

	var prepares []message.Signed
	for seq := l + 1; seq <= h; seq++ {
		var chosen *cand
		var chosenD crypto.Digest
		for d, c := range slots[seq] {
			// Prepared: pre-prepare plus Quorum-1 prepare votes (the
			// pre-prepare stands in for the primary's vote). View ties
			// (Byzantine double-votes) break on digest bytes so the
			// choice never depends on map-iteration order.
			if len(c.voters) >= r.Quorum()-1 {
				if chosen == nil || c.view > chosen.view ||
					(c.view == chosen.view && bytes.Compare(d[:], chosenD[:]) < 0) {
					chosen, chosenD = c, d
				}
			}
		}
		var s message.Signed
		if chosen != nil {
			s = message.Signed{Kind: message.KindPrePrepare, View: target, Seq: seq, Digest: chosenD}
			s.SetRequests(chosen.requests)
		} else {
			noop := &message.Request{Client: -1}
			s = message.Signed{Kind: message.KindPrePrepare, View: target, Seq: seq, Digest: noop.Digest(), Request: noop}
		}
		r.eng.SignRecord(&s)
		prepares = append(prepares, s)
	}

	nv := &message.Message{
		Kind:            message.KindNewView,
		View:            target,
		Seq:             l,
		StateDigest:     lDigest,
		CheckpointProof: lProof,
		Prepares:        prepares,
	}
	r.eng.Sign(nv)
	r.eng.Multicast(r.all(), nv)
	r.applyNewView(nv)
}

func (r *Replica) onNewView(m *message.Message) {
	if m.View <= r.view {
		return
	}
	if m.From != r.Primary(m.View) {
		return
	}
	if !r.eng.Verify(m) {
		return
	}
	if !r.rec.VerifyProof(m.Seq, m.StateDigest, m.CheckpointProof) {
		return
	}
	for i := range m.Prepares {
		s := m.Prepares[i]
		reqs := s.Requests()
		if s.From != m.From || s.View != m.View || s.Kind != message.KindPrePrepare ||
			len(reqs) == 0 || message.BatchDigest(reqs) != s.Digest || !r.eng.VerifyRecord(&s) {
			return
		}
		// Local safety guard (stands in for full PBFT NEW-VIEW proof
		// checking): a slot this replica saw prepared must be re-issued
		// with the same digest.
		if entry := r.log.Peek(s.Seq); entry != nil {
			if prop := entry.Proposal(); prop != nil &&
				entry.VoteCount(message.KindPrepare, prop.View, prop.Digest) >= r.Quorum() &&
				prop.Digest != s.Digest {
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
		// Vote even on a slot already committed here (only its liveness
		// timer is moot): a replica the old quorum formed without needs
		// these votes for its own, or it wedges on the slot until the
		// next checkpoint transfer.
		if !entry.Committed() {
			r.pending.Mark(s.Seq)
		}
		entry.AddVote(message.KindPrepare, r.view, m.From, s.Digest)
		if r.eng.ID() != m.From {
			r.prepare(entry, s.Digest)
		}
		r.maybePrepared(entry)
	}
	if r.nextSeq <= maxSeq {
		r.nextSeq = maxSeq + 1
	}
	r.in.EnterView(r.isPrimary())
	r.executeReady()
	if p := r.loadProbe(); p.OnViewChange != nil {
		p.OnViewChange(r.view)
	}
}
