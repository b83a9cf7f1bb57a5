package core

import (
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/mlog"
	"repro/internal/replica"
)

// View changes (Sections 5.1–5.3) and dynamic mode switching
// (Section 5.4).
//
// All three modes share one shape: suspicious participants multicast
// VIEW-CHANGE messages carrying their checkpoint certificate ξ and their
// logged evidence; a *trusted* collector — the new primary in Lion and
// Dog, the transferer t = (v′ mod S) in Peacock — assembles a NEW-VIEW
// that re-issues every request that may have committed, filling holes
// with no-ops. Because the collector is always trusted, NEW-VIEW needs
// neither the embedded view-change messages PBFT carries nor multi-round
// agreement, which is exactly the saving the paper claims.

// modeFor returns the mode that view v' will run in: a pending
// MODE-CHANGE wins, otherwise the current mode continues.
func (r *Replica) modeFor(v ids.View) ids.Mode {
	if m, ok := r.pendingModes[v]; ok {
		return m
	}
	return r.mode
}

// startViewChange abandons normal operation and multicasts this
// replica's VIEW-CHANGE for the target view.
func (r *Replica) startViewChange(target ids.View, targetMode ids.Mode) {
	if target <= r.view {
		return
	}
	r.targetMode = targetMode
	r.leaseInvalidate()

	vcm := r.buildViewChange(target, targetMode)
	r.rec.Suspect(target, vcm)
	r.voteRecorded(vcm)
	r.eng.Multicast(r.mb.All(), vcm)
}

// buildViewChange assembles 〈VIEW-CHANGE, v′, n, ξ, P, C〉 from the local
// log. The C set is only populated when the current mode keeps commit
// certificates (Lion); in Peacock the Commits field instead carries the
// prepare-vote certificates proving which slots prepared, which the
// transferer needs to pick safely among an equivocating primary's
// proposals.
func (r *Replica) buildViewChange(target ids.View, targetMode ids.Mode) *message.Message {
	var certs []message.Signed
	switch r.mode {
	case ids.Lion:
		certs = r.log.CommitCertsAbove()
	case ids.Peacock:
		certs = r.rec.PreparedCertificates()
	}
	m := r.rec.ViewChange(target, certs)
	m.Mode, m.ActiveView = targetMode, r.activeView
	r.eng.Sign(m)
	return m
}

// voteRecorded reacts to a newly filed VIEW-CHANGE (a peer's or this
// replica's own): join the view change once m+1 distinct replicas demand
// one, and trigger NEW-VIEW assembly when this replica is the collector.
func (r *Replica) voteRecorded(m *message.Message) {
	if join := r.rec.Join(); join != 0 {
		r.startViewChange(join, r.modeFor(join))
	}

	// Collector: assemble a NEW-VIEW if this replica drives the change
	// into m.View under its mode.
	target := m.View
	targetMode := r.modeFor(target)
	if r.mb.Transferer(targetMode, target) == r.eng.ID() {
		r.tryAssembleNewView(target, targetMode)
	}
}

// viewChangeQuorumVotes returns the votes that count toward the old
// mode's view-change quorum, or nil if the quorum is not yet met.
//
//   - Lion: 2m+c messages from replicas other than the collector
//     (Section 5.1 — the collector's own log is the +1).
//   - Dog: 2m+1 messages from proxies of the last active view
//     (Section 5.2's rule for surviving consecutive crashed primaries).
//   - Peacock: 2m+1 messages from proxies of the last active view.
func (r *Replica) viewChangeQuorumVotes(target ids.View) []*message.Message {
	votes := r.rec.Votes(target) // sender-ordered
	switch r.mode {
	case ids.Lion:
		others := 0
		for _, m := range votes {
			if m.From != r.eng.ID() {
				others++
			}
		}
		if others >= r.mb.ViewChangeQuorum(ids.Lion) {
			return votes
		}
		return nil
	case ids.Dog, ids.Peacock:
		active := r.activeView
		for _, m := range votes {
			if m.ActiveView > active {
				active = m.ActiveView
			}
		}
		var out []*message.Message
		for _, m := range votes {
			if r.mb.IsProxy(r.mode, active, m.From) {
				out = append(out, m)
			}
		}
		if len(out) >= r.mb.ViewChangeQuorum(r.mode) {
			return out
		}
		return nil
	default:
		return nil
	}
}

// tryAssembleNewView builds and multicasts the NEW-VIEW once the quorum
// of view-change messages is in.
func (r *Replica) tryAssembleNewView(target ids.View, targetMode ids.Mode) {
	if target <= r.view {
		return
	}
	quorum := r.viewChangeQuorumVotes(target)
	if quorum == nil {
		return
	}

	nv := r.composeNewView(target, targetMode, quorum)
	r.eng.Sign(nv)
	r.eng.Multicast(r.mb.All(), nv)
	r.applyNewView(nv)
}

// composeNewView picks each slot of the NEW-VIEW into target under
// the old mode's rule (Sections 5.1–5.3), from the quorum's evidence and
// the collector's own log.
func (r *Replica) composeNewView(target ids.View, targetMode ids.Mode, quorum []*message.Message) *message.Message {
	own := r.log.CommitCertsAbove()
	if r.mode == ids.Peacock {
		own = r.rec.PreparedCertificates()
	}
	return r.rec.NewView(target, targetMode, quorum, own, r.selection(targetMode))
}

// selection is the rule of a change out of the current mode into
// target. Only a trusted node's signed COMMIT proves a slot committed
// on its own, and in Lion so does an agreement quorum of matching
// reports (Section 5.1); in Peacock a pre-prepare and 2m public prepare
// votes prove it prepared. Any other proposal reported may have
// committed, and the trusted collector re-issues it. A slot is
// re-issued as committed only into Lion.
func (r *Replica) selection(target ids.Mode) replica.Selection {
	old := r.mode
	sel := replica.Selection{
		Proposal: r.validEvidenceProposal,
		Certificate: func(s *message.Signed) replica.Evidence {
			switch {
			case s.Kind == message.KindCommit && old != ids.Peacock && r.mb.IsTrusted(s.From) && r.eng.VerifyRecord(s):
				return replica.Committed
			case s.Kind == message.KindPrepare && old == ids.Peacock && r.mb.IsUntrusted(s.From) && r.eng.VerifyRecord(s):
				return replica.PrepareVote
			}
			return replica.Useless
		},
		Prepared:   2 * r.mb.M(),
		Unprepared: true,
		Kind: func(committed bool) message.Kind {
			if committed && target == ids.Lion {
				return message.KindCommit
			}
			return proposalKind(target)
		},
	}
	if old == ids.Lion {
		sel.Reporters = r.mb.AgreementQuorum(ids.Lion)
	}
	return sel
}

// validEvidenceProposal checks a P-set entry: a proposal must be signed
// by someone entitled to propose in the current mode — any trusted node
// for Lion and Dog (only trusted primaries sign proposals, and trusted
// nodes never lie), or the untrusted primary of the entry's view (or a
// trusted transferer re-issue) for Peacock.
func (r *Replica) validEvidenceProposal(s *message.Signed) bool {
	reqs := s.Requests()
	if len(reqs) == 0 || message.BatchDigest(reqs) != s.Digest {
		return false
	}
	switch r.mode {
	case ids.Lion, ids.Dog:
		if s.Kind != message.KindPrepare && s.Kind != message.KindCommit || !r.mb.IsTrusted(s.From) {
			return false
		}
	case ids.Peacock:
		if s.Kind != message.KindPrePrepare ||
			!r.mb.IsTrusted(s.From) && s.From != r.mb.Primary(ids.Peacock, s.View) {
			return false
		}
	}
	return r.eng.VerifyRecord(s)
}

// maybeResendNewView hands the retained NEW-VIEW to a peer observed
// acting in an older view. The receiver re-validates everything
// (collector identity, signature, checkpoint proof), so this is pure
// liveness help; the per-peer throttle bounds the bandwidth a stale or
// forged frame can trigger.
func (r *Replica) maybeResendNewView(peer ids.ReplicaID, staleView ids.View) {
	if r.lastNewView == nil || staleView >= r.lastNewView.View {
		return
	}
	now := r.clk.Now()
	if now.Sub(r.nvResent[peer]) < r.timing.ViewChange {
		return
	}
	r.nvResent[peer] = now
	r.eng.Send(peer, r.lastNewView)
}

// onNewView validates a NEW-VIEW from the trusted collector and enters
// the view.
func (r *Replica) onNewView(m *message.Message) {
	if m.View <= r.view || !m.Mode.Valid() || r.mb.SupportsMode(m.Mode) != nil {
		return
	}
	if m.From != r.mb.Transferer(m.Mode, m.View) || !r.mb.IsTrusted(m.From) {
		return
	}
	if r.rec.CheckNewView(m, proposalKind(m.Mode)) {
		r.applyNewView(m)
	}
}

// applyNewView installs the new view: adopt the checkpoint, log the
// re-issued entries, answer them according to the new mode, and resume
// normal operation.
func (r *Replica) applyNewView(m *message.Message) {
	// A lease armed in the old view dies with it, whoever the new
	// primary is (re-issued slots must not extend it either).
	r.leaseInvalidate()
	r.lastNewView = m
	r.view, r.mode, r.activeView = m.View, m.Mode, m.View
	for v := range r.pendingModes {
		if v <= m.View {
			delete(r.pendingModes, v)
		}
	}

	primary := r.mb.Primary(r.mode, r.view)
	amParticipant := r.mode == ids.Lion || r.isProxy()
	maxSeq := r.rec.EnterNewView(m, func(entry *mlog.Entry, s *message.Signed) {
		if !amParticipant {
			return
		}
		if !entry.Committed() {
			r.pending.Mark(s.Seq)
		} else if r.mode != ids.Lion {
			// This proxy already committed the slot in a previous view,
			// but passive nodes gate execution on INFORMs of the *current*
			// view, so re-advertise the commit (Dog and Peacock only).
			r.inform(s.Seq, s.Digest)
		}
		// Vote in the new view even on a slot already committed here. A
		// participant that had not committed it — a passive node of the
		// old mode the change promoted, a proxy the old quorum formed
		// without — needs these votes for its own quorum; left without
		// them it wedges on the slot until the next checkpoint transfer
		// and, with m peers in the same spot, forces view change after
		// view change meanwhile.
		switch r.mode {
		case ids.Lion:
			if r.eng.ID() == primary {
				entry.AddVote(message.KindAccept, r.view, r.eng.ID(), s.Digest)
			} else {
				r.lionAccept(primary, s.Seq, s.Digest)
			}
		case ids.Dog:
			r.dogAccept(entry, s.Digest)
		case ids.Peacock:
			r.round.Prepare(entry, s.Digest)
		}
	})

	if r.nextSeq <= maxSeq {
		r.nextSeq = maxSeq + 1
	}
	r.in.EnterView(r.isPrimary())
	r.executeReady()
	if p := r.loadProbe(); p.OnViewChange != nil {
		p.OnViewChange(r.view, r.mode)
	}
}

// ---------------------------------------------------------------------------
// Dynamic mode switching (Section 5.4)

// RequestModeSwitch asks this replica to initiate a switch to newMode.
// The caller must pick the trusted replica that will drive the change:
// the primary of view v+1 when switching to Lion or Dog, the transferer
// of view v+1 when switching to Peacock (exactly the paper's replica s).
// The request is injected through the replica's own inbox so all
// protocol state stays on the engine goroutine, which makes it safe to
// call from any goroutine; it is a no-op if this replica turns out not
// to be the driver.
func (r *Replica) RequestModeSwitch(newMode ids.Mode) {
	directive := &message.Message{
		Kind: message.KindModeChange,
		From: r.eng.ID(),
		View: 0, // sentinel: "next view", resolved on the engine goroutine
		Mode: newMode,
	}
	r.eng.Loopback(directive)
}

// onModeChange handles both the local directive (View 0 from self) and
// the broadcast 〈MODE-CHANGE, v+1, π′〉σs from the driving replica.
func (r *Replica) onModeChange(m *message.Message) {
	if !m.Mode.Valid() || r.mb.SupportsMode(m.Mode) != nil {
		return
	}
	// Local directive: become the announcer if we are the driver.
	if m.View == 0 && m.From == r.eng.ID() {
		if !r.mb.IsTrusted(r.eng.ID()) {
			return
		}
		target := r.view + 1
		if r.mb.Transferer(m.Mode, target) != r.eng.ID() {
			return // the caller picked the wrong replica
		}
		mc := &message.Message{Kind: message.KindModeChange, View: target, Mode: m.Mode}
		r.eng.Sign(mc)
		r.eng.Multicast(r.mb.All(), mc)
		r.pendingModes[target] = m.Mode
		r.startViewChange(target, m.Mode)
		return
	}
	// Broadcast announcement from the driver.
	if m.View <= r.view {
		return
	}
	if !r.mb.IsTrusted(m.From) || m.From != r.mb.Transferer(m.Mode, m.View) {
		return
	}
	if !r.eng.Verify(m) {
		return
	}
	r.pendingModes[m.View] = m.Mode
	r.startViewChange(m.View, m.Mode)
}
