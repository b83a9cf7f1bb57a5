package core

import (
	"repro/internal/ids"
	"repro/internal/message"
)

// trust answers replica.Recovery's questions for the SeeMoRe modes
// (the State Transfer subsections of Sections 5.1–5.3). In Lion and Dog
// the trusted primary's signed CHECKPOINT is immediately a stability
// certificate and its signed COMMIT is definitive on its own; in
// Peacock the primary is untrusted, so stability needs 2m+1 matching
// proxy checkpoints and no single replica's word proves a commit,
// exactly like PBFT.
type trust struct{ r *Replica }

// emitsCheckpoint reports whether this replica's role produces
// checkpoints in the current mode: only the trusted primary in Lion and
// Dog, every proxy in Peacock.
func (r *Replica) emitsCheckpoint() bool {
	if r.mode == ids.Peacock {
		return r.isProxy()
	}
	return r.isPrimary()
}

// MaySignCheckpoint: Lion and Dog trust only private-cloud signers (the
// paper's trusted primary; any trusted node is non-malicious, so a
// crashed-and-recovered ex-primary's checkpoint is equally sound);
// Peacock counts the public cloud's.
func (t trust) MaySignCheckpoint(from ids.ReplicaID) bool {
	if t.r.mode == ids.Peacock {
		return t.r.mb.IsUntrusted(from)
	}
	return t.r.mb.IsTrusted(from)
}

func (t trust) StableQuorum() int {
	if t.r.mode == ids.Peacock {
		return t.r.mb.AgreementQuorum(ids.Peacock)
	}
	return 1
}

// ProofSuffices: the signer set must contain a trusted node (whose word
// alone suffices — it cannot lie) or at least m+1 distinct public nodes
// (so at least one correct one vouches; PBFT's weak certificate).
func (t trust) ProofSuffices(signers []ids.ReplicaID) bool {
	public := 0
	for _, from := range signers {
		if t.r.mb.IsTrusted(from) {
			return true
		}
		public++
	}
	return public >= t.r.mb.M()+1
}

// StateServers: the trusted primary in Lion and Dog, the proxies in
// Peacock.
func (t trust) StateServers() []ids.ReplicaID {
	if t.r.mode == ids.Peacock {
		return t.r.mb.Proxies(ids.Peacock, t.r.view)
	}
	return []ids.ReplicaID{t.r.mb.Primary(t.r.mode, t.r.view)}
}

// SuffixCommits: Lion keeps trusted commit certificates; they are
// definitive for the receiver on their own. Peacock's trust model never
// yields one.
func (t trust) SuffixCommits() []message.Signed {
	if t.r.mode == ids.Peacock {
		return nil
	}
	return t.r.log.CommitCertsAbove()
}

func (t trust) ValidProposal(s *message.Signed) bool {
	return t.r.validEvidenceProposal(s)
}

// AdoptCommit: only a trusted node's signed COMMIT proves a slot
// committed (Lion's commit certificate).
func (t trust) AdoptCommit(s *message.Signed) {
	r := t.r
	if s.Kind != message.KindCommit || r.mode == ids.Peacock ||
		!r.mb.IsTrusted(s.From) || !r.eng.VerifyRecord(s) {
		return
	}
	entry := r.log.Entry(s.Seq)
	if entry == nil || entry.Committed() {
		return
	}
	if prop := entry.Proposal(); prop == nil || prop.Digest != s.Digest {
		// Adopt the commit itself as the proposal when it carries the
		// payload (the same rule as lionOnCommit).
		// The client signatures inside are not checked: the trusted
		// primary admitted its clients on their tags, so a committed slot
		// may hold a signature nobody ever verified, and the COMMIT's own
		// signature is what proves the slot committed.
		reqs := s.Requests()
		if len(reqs) == 0 || message.BatchDigest(reqs) != s.Digest {
			return
		}
		if entry.SetProposal(s) != nil {
			return
		}
		r.jr.Proposal(s)
	}
	entry.SetCommitCert(s)
	entry.MarkCommitted()
	r.jr.Commit(s.Seq, s.View, s.Digest, s)
	r.pending.Clear(s.Seq)
}

func (t trust) Stabilized(seq uint64) {
	if t.r.nextSeq <= seq {
		t.r.nextSeq = seq + 1
	}
	if p := t.r.loadProbe(); p.OnCheckpointStable != nil {
		p.OnCheckpointStable(seq)
	}
}
