package core

import (
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/mlog"
)

// The Peacock mode (Section 5.3): PBFT among the 3m+1 public-cloud
// proxies with two modifications — the primary's PRE-PREPARE goes to all
// nodes (not just proxies), and committed slots are INFORMed to the
// passive nodes, which execute after m+1 matching informs. View changes
// are driven by a trusted transferer (see viewchange.go).

// onPrePrepare handles the untrusted primary's 〈〈PRE-PREPARE,v,n,d〉σp, µ〉.
// It is only meaningful in Peacock mode.
func (r *Replica) onPrePrepare(m *message.Message) {
	if r.mode != ids.Peacock {
		return
	}
	if r.rec.InViewChange() || m.View != r.view {
		return
	}
	if m.From != r.mb.Primary(ids.Peacock, r.view) || m.From == r.eng.ID() {
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
	// SetProposal rejects a conflicting digest in the same view — an
	// equivocating Byzantine primary gets one proposal per slot here and
	// will be caught by the prepare round (other proxies saw the other
	// half of the equivocation and won't vote for ours).
	if err := entry.SetProposal(s); err != nil {
		return
	}
	r.jr.Proposal(s)
	if !r.isProxy() {
		return // passive nodes keep µ for later execution on informs
	}
	r.pending.Mark(m.Seq)
	// The primary's pre-prepare counts as its prepare vote (standard
	// PBFT accounting).
	entry.AddVote(message.KindPrepare, r.view, m.From, m.Digest)
	r.peacockPrepare(entry, m.Digest)
}

// peacockPrepare journals, files and multicasts this proxy's PREPARE
// vote for the slot's proposal in the current view. The vote is signed:
// 2m of them beside the pre-prepare are the prepared certificate a view
// change presents (see viewchange.go).
func (r *Replica) peacockPrepare(entry *mlog.Entry, d crypto.Digest) {
	prep := &message.Signed{Kind: message.KindPrepare, View: r.view, Seq: entry.Seq(), Digest: d}
	r.eng.SignRecord(prep)
	r.jr.Vote(prep)
	entry.AddVoteCert(prep)
	r.eng.Multicast(r.mb.Proxies(ids.Peacock, r.view), prep.Wire())
	r.peacockMaybePrepared(entry)
}

// peacockOnPrepareVote handles proxy PREPARE votes (KindPrepare while in
// Peacock mode).
func (r *Replica) peacockOnPrepareVote(m *message.Message) {
	if r.rec.InViewChange() || m.View != r.view || !r.isProxy() {
		return
	}
	if !r.mb.IsProxy(ids.Peacock, r.view, m.From) || m.From == r.eng.ID() {
		return
	}
	entry := r.log.Entry(m.Seq)
	if entry == nil {
		return
	}
	// Once this proxy has sent its COMMIT vote the slot is prepared here
	// for good — it already holds the certificate, pre-prepare plus 2m
	// signed PREPAREs — so a further vote is not worth verifying.
	if prop := entry.Proposal(); prop != nil && prop.View == r.view &&
		r.hasOwnVote(entry, message.KindCommit, r.view, prop.Digest) {
		return
	}
	s := m.Record()
	if !r.authentic(s) {
		return
	}
	// Keep the full signed vote: 2m of these form the prepared
	// certificate a view change must present (see viewchange.go).
	entry.AddVoteCert(s)
	r.peacockMaybePrepared(entry)
}

// peacockMaybePrepared fires the commit phase once the slot is prepared:
// a logged pre-prepare plus 2m+1 prepare voices (pre-prepare standing in
// for the primary's, own vote included).
func (r *Replica) peacockMaybePrepared(entry *mlog.Entry) {
	prop := entry.Proposal()
	if prop == nil || prop.View != r.view {
		return
	}
	d := prop.Digest
	if entry.VoteCount(message.KindPrepare, r.view, d) < r.mb.AgreementQuorum(ids.Peacock) {
		return
	}
	if r.hasOwnVote(entry, message.KindCommit, r.view, d) {
		return // commit vote already sent
	}
	com := &message.Signed{Kind: message.KindCommit, From: r.eng.ID(), View: r.view, Seq: entry.Seq(), Digest: d}
	r.jr.Vote(com)
	entry.AddVote(message.KindCommit, r.view, r.eng.ID(), d)
	r.eng.MulticastTagged(r.mb.Proxies(ids.Peacock, r.view), com)
	r.peacockMaybeCommitted(entry)
}

// peacockOnCommitVote handles proxy COMMIT votes.
func (r *Replica) peacockOnCommitVote(m *message.Message) {
	if r.rec.InViewChange() || m.View != r.view || !r.isProxy() {
		return
	}
	if !r.mb.IsProxy(ids.Peacock, r.view, m.From) || m.From == r.eng.ID() {
		return
	}
	entry := r.openSlot(m.Seq)
	if entry == nil || !r.authentic(m.Record()) {
		return
	}
	entry.AddVote(message.KindCommit, r.view, m.From, m.Digest)
	r.peacockMaybePrepared(entry) // commit votes can close the prepare gap first
	r.peacockMaybeCommitted(entry)
}

// peacockMaybeCommitted executes once committed-local holds: prepared
// plus 2m+1 commit voices.
func (r *Replica) peacockMaybeCommitted(entry *mlog.Entry) {
	if entry.Committed() {
		return
	}
	prop := entry.Proposal()
	if prop == nil || prop.View != r.view {
		return
	}
	d := prop.Digest
	q := r.mb.AgreementQuorum(ids.Peacock)
	if entry.VoteCount(message.KindPrepare, r.view, d) < q ||
		entry.VoteCount(message.KindCommit, r.view, d) < q {
		return
	}
	entry.MarkCommitted()
	r.jr.Commit(entry.Seq(), r.view, d, nil)
	r.pending.Clear(entry.Seq())

	// Second Peacock modification: INFORM the passive nodes.
	r.inform(entry.Seq(), d)

	r.executeReady() // proxies reply inside the execution hook
}

// peacockOnInform: passive nodes execute after m+1 matching INFORMs from
// distinct proxies (Section 5.3) provided they hold the matching
// pre-prepare (broadcast to all) for the request body.
func (r *Replica) peacockOnInform(m *message.Message) {
	if r.rec.InViewChange() || m.View != r.view || r.isProxy() {
		return
	}
	if !r.mb.IsProxy(ids.Peacock, r.view, m.From) {
		return
	}
	entry := r.openSlot(m.Seq)
	if entry == nil || !r.authentic(m.Record()) {
		return
	}
	entry.AddVote(message.KindInform, r.view, m.From, m.Digest)
	prop := entry.Proposal()
	if prop == nil || prop.Digest != m.Digest {
		return
	}
	if entry.VoteCount(message.KindInform, r.view, m.Digest) >= r.mb.InformQuorum(false) {
		entry.MarkCommitted()
		r.jr.Commit(m.Seq, r.view, m.Digest, nil)
		r.pending.Clear(m.Seq)
		r.executeReady()
	}
}
