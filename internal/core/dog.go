package core

import (
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/mlog"
)

// The Dog mode (Algorithm 2): a trusted primary assigns sequence numbers
// and broadcasts PREPAREs; 3m+1 public-cloud proxies run a single
// ACCEPT round (quorum 2m+1), then COMMIT among themselves and INFORM the
// passive nodes — all three consumed by their receivers and never shown
// to anyone else, hence tagged, not signed (auth.go). Private-cloud
// backups do no agreement work at all, which is the mode's point:
// offloading the private cloud.

// nonParticipants returns every replica outside the proxy set of view v:
// all private nodes plus non-proxy public nodes — the INFORM audience.
func (r *Replica) nonParticipants(v ids.View) []ids.ReplicaID {
	out := make([]ids.ReplicaID, 0, r.mb.N()-r.mb.ProxyCount())
	for _, id := range r.mb.All() {
		if !r.mb.IsProxy(r.mode, v, id) {
			out = append(out, id)
		}
	}
	return out
}

// dogOnPrepare: any replica logs the trusted primary's PREPARE (it is
// broadcast to all, Algorithm 2 line 9); proxies additionally start the
// accept round (lines 10–12).
func (r *Replica) dogOnPrepare(m *message.Message) {
	if r.rec.InViewChange() || m.View != r.view {
		return
	}
	if m.From != r.mb.Primary(ids.Dog, r.view) || m.From == r.eng.ID() {
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
		return
	}
	r.jr.Proposal(s)
	if !r.isProxy() {
		// Passive nodes keep the prepare: executing later requires 2m+1
		// INFORMs *matching this prepare* (Algorithm 2 commentary).
		return
	}
	r.pending.Mark(m.Seq)
	r.dogAccept(entry, m.Digest)
}

// dogAccept journals, files and multicasts this proxy's ACCEPT for the
// slot's proposal in the current view.
func (r *Replica) dogAccept(entry *mlog.Entry, d crypto.Digest) {
	acc := &message.Signed{Kind: message.KindAccept, From: r.eng.ID(), View: r.view, Seq: entry.Seq(), Digest: d}
	r.jr.Vote(acc)
	entry.AddVote(message.KindAccept, r.view, r.eng.ID(), d)
	r.eng.MulticastTagged(r.mb.Proxies(ids.Dog, r.view), acc)
	r.dogMaybeCommit(entry)
}

// openSlot returns the slot a vote on seq could still change — nil once
// the slot has committed (or lies outside the window), so such a vote is
// dropped before it costs an authentication.
func (r *Replica) openSlot(seq uint64) *mlog.Entry {
	if entry := r.log.Entry(seq); entry != nil && !entry.Committed() {
		return entry
	}
	return nil
}

// dogOnAccept: proxies collect accepts from other proxies (Algorithm 2
// line 13). Accepts may arrive before the primary's prepare; the vote
// is recorded either way and the quorum re-checked when the prepare
// lands.
func (r *Replica) dogOnAccept(m *message.Message) {
	if r.rec.InViewChange() || m.View != r.view || !r.isProxy() {
		return
	}
	if !r.mb.IsProxy(ids.Dog, r.view, m.From) || m.From == r.eng.ID() {
		return
	}
	entry := r.openSlot(m.Seq)
	if entry == nil || !r.authentic(m.Record()) {
		return
	}
	entry.AddVote(message.KindAccept, r.view, m.From, m.Digest)
	r.dogMaybeCommit(entry)
}

// dogMaybeCommit commits once the proxy holds the primary's prepare and
// 2m+1 matching accepts (its own included).
func (r *Replica) dogMaybeCommit(entry *mlog.Entry) {
	if entry.Committed() {
		return
	}
	prop := entry.Proposal()
	if prop == nil || prop.View != r.view {
		return
	}
	if entry.VoteCount(message.KindAccept, r.view, prop.Digest) < r.mb.AgreementQuorum(ids.Dog) {
		return
	}
	r.dogCommit(entry)
}

// dogCommit performs Algorithm 2 lines 14–17: COMMIT to the other
// proxies, INFORM to everyone else, execute, reply.
func (r *Replica) dogCommit(entry *mlog.Entry) {
	entry.MarkCommitted()
	r.pending.Clear(entry.Seq())
	d := entry.Proposal().Digest
	r.jr.Commit(entry.Seq(), r.view, d, nil)

	r.eng.MulticastTagged(r.mb.Proxies(ids.Dog, r.view), &message.Signed{
		Kind: message.KindCommit, View: r.view, Seq: entry.Seq(), Digest: d,
	})
	r.inform(entry.Seq(), d)

	r.executeReady() // proxies reply inside the execution hook
}

// inform tells the passive nodes of the current view that this proxy
// committed the slot (Dog and Peacock).
func (r *Replica) inform(seq uint64, d crypto.Digest) {
	r.eng.MulticastTagged(r.nonParticipants(r.view), &message.Signed{
		Kind: message.KindInform, View: r.view, Seq: seq, Digest: d,
	})
}

// dogOnCommit: a proxy that missed the accept quorum still commits after
// m+1 matching COMMITs from other proxies (at least one correct proxy
// vouches).
func (r *Replica) dogOnCommit(m *message.Message) {
	if r.rec.InViewChange() || m.View != r.view || !r.isProxy() {
		return
	}
	if !r.mb.IsProxy(ids.Dog, r.view, m.From) || m.From == r.eng.ID() {
		return
	}
	entry := r.openSlot(m.Seq)
	if entry == nil || !r.authentic(m.Record()) {
		return
	}
	entry.AddVote(message.KindCommit, r.view, m.From, m.Digest)
	prop := entry.Proposal()
	if prop == nil || prop.View != r.view || prop.Digest != m.Digest {
		return
	}
	if entry.VoteCount(message.KindCommit, r.view, m.Digest) >= r.mb.M()+1 {
		r.dogCommit(entry)
	}
}

// dogOnInform: passive nodes execute after 2m+1 matching INFORMs from
// distinct proxies that agree with the prepare received from the trusted
// primary (Algorithm 2 commentary).
func (r *Replica) dogOnInform(m *message.Message) {
	if r.rec.InViewChange() || m.View != r.view || r.isProxy() {
		return
	}
	if !r.mb.IsProxy(ids.Dog, r.view, m.From) {
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
	if entry.VoteCount(message.KindInform, r.view, m.Digest) >= r.mb.InformQuorum(true) {
		entry.MarkCommitted()
		r.jr.Commit(m.Seq, r.view, m.Digest, nil)
		r.pending.Clear(m.Seq) // the Dog primary armed the timer when proposing
		r.leaseRenew(m.Seq)    // ... and this is where it learns the quorum held
		r.executeReady()       // passive nodes execute but never reply
	}
}
