package core

import (
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/mlog"
)

// validProposalPayload checks that an attached payload — one request or
// a whole batch — matches the proposal digest, and, when the proposer
// is a public node and the receiver vouches for its proposal (a Peacock
// proxy), that every member is its client's own request: on this
// proxy's tag in the client authenticator the primary forwarded, or on
// the client's signature where that tag is missing or bad. A trusted
// proposer's word needs no such check: it admitted each client on its
// tag and does not lie, so a bad signature inside is the client's own
// doing — the rule onNewView and validEvidenceProposal already apply to
// what a trusted node signed. A Peacock non-proxy executes the payload
// only behind m+1 matching INFORMs, so D(µ) = d is all it checks
// (ARCHITECTURE.md, "Authentication").
// The caller has authenticated m.From.
func (r *Replica) validProposalPayload(m *message.Message) bool {
	reqs := m.Requests()
	if len(reqs) == 0 || message.BatchDigest(reqs) != m.Digest {
		return false
	}
	return r.mb.IsTrusted(m.From) || !r.isProxy() || r.eng.AuthenticForwarded(reqs)
}

// ---------------------------------------------------------------------------
// Lion normal case (Algorithm 1)

// onPrepare dispatches PREPARE by mode: in Lion and Dog it is the
// trusted primary's proposal; in Peacock it is a proxy's prepare vote.
func (r *Replica) onPrepare(m *message.Message) {
	switch r.mode {
	case ids.Lion:
		r.lionOnPrepare(m)
	case ids.Dog:
		r.dogOnPrepare(m)
	case ids.Peacock:
		r.round.OnPrepare(m)
	}
}

// onAccept dispatches ACCEPT: Lion backups send it to the primary; Dog
// proxies exchange it among themselves. Peacock has no accept phase.
func (r *Replica) onAccept(m *message.Message) {
	switch r.mode {
	case ids.Lion:
		r.lionOnAccept(m)
	case ids.Dog:
		r.dogOnAccept(m)
	}
}

// onCommit dispatches COMMIT by mode.
func (r *Replica) onCommit(m *message.Message) {
	switch r.mode {
	case ids.Lion:
		r.lionOnCommit(m)
	case ids.Dog:
		r.dogOnCommit(m)
	case ids.Peacock:
		r.round.OnCommit(m)
	}
}

// lionOnPrepare: backup receives 〈〈PREPARE,v,n,d〉σp, µ〉 from the trusted
// primary, logs it and answers with an ACCEPT (Algorithm 1, lines 9–11).
func (r *Replica) lionOnPrepare(m *message.Message) {
	if r.rec.InViewChange() || m.View != r.view {
		return
	}
	primary := r.mb.Primary(ids.Lion, r.view)
	if m.From != primary || m.From == r.eng.ID() {
		return
	}
	s := m.Record()
	if !r.authentic(s) || !r.validProposalPayload(m) {
		return
	}
	entry := r.log.Entry(m.Seq)
	if entry == nil {
		return
	}
	if err := entry.SetProposal(s); err != nil {
		return // a trusted primary never equivocates; stale duplicates land here
	}
	r.pending.Mark(m.Seq)
	r.jr.Proposal(s)
	r.lionAccept(primary, m.Seq, m.Digest)
}

// lionAccept sends this backup's ACCEPT. It goes only to the trusted
// primary and is never reused as evidence, so it is not signed
// (Section 5.1: "there is no need to sign these messages"), only tagged
// for the primary — and being unreusable, it needs no journal entry
// either: a recovered backup re-accepting the same trusted proposal is
// harmless.
func (r *Replica) lionAccept(primary ids.ReplicaID, seq uint64, d crypto.Digest) {
	r.eng.MulticastTagged([]ids.ReplicaID{primary}, &message.Signed{
		Kind: message.KindAccept, View: r.view, Seq: seq, Digest: d,
	})
}

// lionOnAccept: the primary collects accepts; at 2m+c+1 (with itself)
// the request commits (Algorithm 1, lines 12–15).
func (r *Replica) lionOnAccept(m *message.Message) {
	if r.rec.InViewChange() || m.View != r.view || !r.isPrimary() {
		return
	}
	if !r.mb.Contains(m.From) || m.From == r.eng.ID() {
		return
	}
	entry := r.log.Peek(m.Seq)
	if entry == nil || entry.Proposal() == nil {
		return
	}
	prop := entry.Proposal()
	if prop.View != r.view || prop.Digest != m.Digest {
		return
	}
	// One COMMIT per slot and view — keyed on the certificate, not on the
	// committed flag: a primary that learned the commit in an earlier
	// view (as a passive node, from INFORMs) holds no certificate its
	// backups could execute on, and must still issue this view's. Once
	// it has, a further ACCEPT changes nothing and is not worth checking.
	if cert := entry.CommitCert(); cert != nil && cert.View == r.view {
		return
	}
	if !r.authentic(m.Record()) {
		return
	}
	entry.AddVote(message.KindAccept, r.view, m.From, m.Digest)
	if entry.VoteCount(message.KindAccept, r.view, m.Digest) >= r.mb.AgreementQuorum(ids.Lion) {
		r.lionCommit(entry)
	}
}

// lionCommit: the primary multicasts 〈〈COMMIT,v,n,d〉σp, µ〉 (carrying the
// request so replicas that missed the PREPARE can still execute),
// executes, and replies to the client.
func (r *Replica) lionCommit(entry *mlog.Entry) {
	entry.MarkCommitted()
	r.pending.Clear(entry.Seq())
	r.leaseRenew(entry.Seq())

	prop := entry.Proposal()
	commit := &message.Signed{
		Kind:   message.KindCommit,
		View:   r.view,
		Seq:    entry.Seq(),
		Digest: prop.Digest,
	}
	commit.SetRequests(prop.Requests())
	if r.leanCommits {
		commit.ClearRequests()
	}
	r.eng.SignRecord(commit)
	entry.SetCommitCert(commit)
	r.jr.Commit(entry.Seq(), r.view, prop.Digest, commit)

	r.multicastSigned(r.mb.All(), commit)
	r.executeReady() // the Lion primary replies inside the execution hook
}

// lionOnCommit: backups execute on the primary's COMMIT. Even without a
// prior PREPARE the commit is actionable because it carries µ and the
// primary is trusted (Section 5.1).
func (r *Replica) lionOnCommit(m *message.Message) {
	if r.rec.InViewChange() || m.View != r.view {
		return
	}
	if m.From != r.mb.Primary(ids.Lion, r.view) || m.From == r.eng.ID() {
		return
	}
	s := m.Record()
	if !r.authentic(s) {
		return
	}
	entry := r.log.Entry(m.Seq)
	if entry == nil {
		return
	}
	if prop := entry.Proposal(); prop != nil && prop.View == m.View && prop.Digest != m.Digest {
		return // conflicting with the logged proposal: impossible from a trusted primary
	}
	if entry.Proposal() == nil {
		if len(m.Requests()) == 0 {
			// Digest-only commit without a prior prepare: nothing to
			// execute; checkpoint state transfer will cover the gap.
			return
		}
		// No PREPARE seen: adopt the commit itself as the proposal so the
		// request body is available for execution and view changes. Only
		// this adoption path needs the payload checked — when the
		// matching PREPARE is already logged, the digest equality above
		// vouches for the (already checked) payload.
		if !r.validProposalPayload(m) {
			return
		}
		if err := entry.SetProposal(s); err != nil {
			return
		}
		r.jr.Proposal(s)
	}
	entry.SetCommitCert(s)
	entry.MarkCommitted()
	r.jr.Commit(m.Seq, m.View, m.Digest, s)
	r.pending.Clear(m.Seq)
	r.executeReady()
}
