package pbft

import (
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/mlog"
	"repro/internal/replica"
)

// The PBFT baseline's side of recovery. Checkpointing, state transfer,
// the view-change vote table and the NEW-VIEW path are
// replica.Recovery's; this file supplies the all-Byzantine trust rule,
// the slot selection and the votes on a re-issued slot. One deliberate
// simplification relative to Castro & Liskov: NEW-VIEW messages do not
// embed the full view-change messages; instead each re-issued slot is
// selected from prepared certificates carried in the VIEW-CHANGE
// messages, and every backup independently enforces that a NEW-VIEW
// never contradicts a prepared certificate it holds locally. Under the
// crash-style failures the paper's evaluation injects, this yields the
// same message flow and recovery timing as full PBFT; ARCHITECTURE.md
// ("One recovery substrate") records the simplification.

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
	vcm := r.rec.ViewChange(target, r.rec.PreparedCertificates())
	r.eng.Sign(vcm)
	r.rec.Suspect(target, vcm)
	r.voteRecorded(vcm)
	r.eng.Multicast(r.all(), vcm)
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

// selection is PBFT's rule: only the pre-prepare of its view's primary
// is a usable proposal, and only one prepared — with Quorum−1 signed
// prepare votes beside it, the pre-prepare standing in for the
// primary's — is re-issued. Every other slot becomes a no-op, since no
// single replica's word shows it did not commit.
func (r *Replica) selection() replica.Selection {
	return replica.Selection{
		Proposal: r.validProposal,
		Certificate: func(s *message.Signed) replica.Evidence {
			if s.Kind == message.KindPrepare && int(s.From) >= 0 && int(s.From) < r.n && r.eng.VerifyRecord(s) {
				return replica.PrepareVote
			}
			return replica.Useless
		},
		Prepared: r.Quorum() - 1,
		Kind:     func(bool) message.Kind { return message.KindPrePrepare },
	}
}

func (r *Replica) tryAssembleNewView(target ids.View) {
	if target <= r.view {
		return
	}
	quorum := r.rec.Votes(target)
	if len(quorum) < r.Quorum() {
		return
	}
	nv := r.rec.NewView(target, 0, quorum, r.rec.PreparedCertificates(), r.selection())
	r.eng.Sign(nv)
	r.eng.Multicast(r.all(), nv)
	r.applyNewView(nv)
}

func (r *Replica) onNewView(m *message.Message) {
	// A PBFT NEW-VIEW re-issues no slot as committed: no single
	// replica's word proves a commit.
	if m.From != r.Primary(m.View) || len(m.Commits) > 0 ||
		!r.rec.CheckNewView(m, message.KindPrePrepare) {
		return
	}
	// Local safety guard (stands in for full PBFT NEW-VIEW proof
	// checking): a slot this replica saw prepared must be re-issued with
	// the same digest.
	for i := range m.Prepares {
		s := &m.Prepares[i]
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
	maxSeq := r.rec.EnterNewView(m, func(entry *mlog.Entry, s *message.Signed) {
		// Vote even on a slot already committed here (only its liveness
		// timer is moot): a replica the old quorum formed without needs
		// these votes for its own, or it wedges on the slot until the
		// next checkpoint transfer.
		if !entry.Committed() {
			r.pending.Mark(s.Seq)
		}
		entry.AddVote(message.KindPrepare, r.view, m.From, s.Digest)
		if r.eng.ID() != m.From {
			r.round.Prepare(entry, s.Digest)
		} else {
			r.round.MaybePrepared(entry)
		}
	})
	if r.nextSeq <= maxSeq {
		r.nextSeq = maxSeq + 1
	}
	r.in.EnterView(r.isPrimary())
	r.executeReady()
	if p := r.loadProbe(); p.OnViewChange != nil {
		p.OnViewChange(r.view)
	}
}
