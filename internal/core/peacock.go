package core

import (
	"repro/internal/ids"
	"repro/internal/message"
)

// The Peacock mode (Section 5.3): PBFT among the 3m+1 public-cloud
// proxies with two modifications — the primary's PRE-PREPARE goes to all
// nodes (not just proxies), and committed slots are INFORMed to the
// passive nodes, which execute after m+1 matching informs (dog.go's
// onInform). The prepare and commit phases among the proxies are
// replica.Round's. View changes are driven by a trusted transferer (see
// viewchange.go).

// onPrePrepare handles the untrusted primary's 〈〈PRE-PREPARE,v,n,d〉σp, µ〉,
// which arrives sealed. It is only meaningful in Peacock mode.
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
	if !r.authentic(s) || r.holdsPrePrepare(m) {
		return
	}
	// A proxy vouches for the pre-prepare with its PREPARE vote and exports
	// it at the head of its prepared certificate, so it checks σ first-hand
	// and (in validProposalPayload) each client's request on its tag in the
	// forwarded authenticator, or on the client's signature. A non-proxy
	// checks D(µ) = d and keeps σ unverified for export: it executes µ
	// only behind m+1 matching INFORMs (ARCHITECTURE.md, "Authentication").
	if r.isProxy() && !r.eng.VerifyRecord(s) || !r.validProposalPayload(m) {
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
	r.round.Prepare(entry, m.Digest)
}

// holdsPrePrepare reports whether the slot already holds m's proposal,
// payload and all, in this view — and, at a proxy, this proxy's PREPARE
// vote for it. A replayed pre-prepare then has nothing left to do, so
// onPrePrepare drops it before it checks a signature, journals or votes
// again.
func (r *Replica) holdsPrePrepare(m *message.Message) bool {
	entry := r.log.Peek(m.Seq)
	if entry == nil {
		return false
	}
	prop := entry.Proposal()
	if prop == nil || prop.View != r.view || prop.Digest != m.Digest || len(prop.Requests()) == 0 {
		return false
	}
	return !r.isProxy() || r.round.Voted(entry, message.KindPrepare, m.Digest)
}
