package core

import (
	"bytes"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
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
	m := &message.Message{
		Kind:            message.KindViewChange,
		View:            target,
		Mode:            targetMode,
		Seq:             r.log.Low(),
		StateDigest:     r.log.StableDigest(),
		CheckpointProof: r.log.StableProof(),
		Prepares:        r.log.ProposalsAbove(),
		ActiveView:      r.activeView,
	}
	switch r.mode {
	case ids.Lion:
		m.Commits = r.log.CommitCertsAbove()
	case ids.Peacock:
		m.Commits = r.preparedCertificates()
	}
	r.eng.Sign(m)
	return m
}

// preparedCertificates flattens the prepare-vote certificates of every
// live slot (Peacock).
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

// onViewChange files a peer's VIEW-CHANGE once replica.Recovery has
// validated it.
func (r *Replica) onViewChange(m *message.Message) {
	if r.rec.OnViewChange(m) {
		r.voteRecorded(m)
	}
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

// slotEvidence aggregates everything the quorum reported about one
// sequence number.
type slotEvidence struct {
	// committed is the digest proven committed, if any.
	committed     bool
	committedView ids.View
	committedD    crypto.Digest
	// candidates maps digest → the best (highest-view) proposal carrying
	// it, plus how many distinct VC senders reported it.
	candidates map[crypto.Digest]*candidate
}

type candidate struct {
	view ids.View
	// requests is the slot payload behind the digest: one request, or
	// the full batch of a batched slot.
	requests []*message.Request
	// reporters counts distinct view-change senders whose P set contains
	// a proposal for this digest (the Lion 2m+c+1 rule).
	reporters map[ids.ReplicaID]bool
	// prepareVoters counts distinct proxies whose prepare votes for
	// (view, seq, digest) appear in the quorum (the Peacock prepared
	// certificate).
	prepareVoters map[ids.ReplicaID]bool
}

// composeNewView implements the per-sequence selection of Sections
// 5.1–5.3 over the quorum's evidence.
func (r *Replica) composeNewView(target ids.View, targetMode ids.Mode, quorum []*message.Message) *message.Message {
	oldMode := r.mode

	// l: the latest stable checkpoint proven by the quorum or known
	// locally. (Votes were proof-checked on receipt.)
	l := r.log.Low()
	lDigest := r.log.StableDigest()
	lProof := r.log.StableProof()
	for _, m := range quorum {
		if m.Seq > l {
			l = m.Seq
			lDigest = m.StateDigest
			lProof = m.CheckpointProof
		}
	}

	evidence := make(map[uint64]*slotEvidence)
	slot := func(seq uint64) *slotEvidence {
		ev, ok := evidence[seq]
		if !ok {
			ev = &slotEvidence{candidates: make(map[crypto.Digest]*candidate)}
			evidence[seq] = ev
		}
		return ev
	}
	h := l

	addCandidate := func(from ids.ReplicaID, s *message.Signed) *candidate {
		ev := slot(s.Seq)
		c, ok := ev.candidates[s.Digest]
		if !ok {
			c = &candidate{
				reporters:     make(map[ids.ReplicaID]bool),
				prepareVoters: make(map[ids.ReplicaID]bool),
			}
			ev.candidates[s.Digest] = c
		}
		if s.View >= c.view {
			c.view = s.View
			if reqs := s.Requests(); len(reqs) > 0 {
				c.requests = reqs
			}
		} else if len(c.requests) == 0 {
			c.requests = s.Requests()
		}
		c.reporters[from] = true
		return c
	}

	// Harvest the quorum. Include the collector's own log even when its
	// own VIEW-CHANGE message is not part of the quorum (Lion counts it
	// implicitly).
	harvest := func(from ids.ReplicaID, prepares, commits []message.Signed) {
		for i := range prepares {
			s := prepares[i]
			if s.Seq <= l || s.Seq > l+r.timing.HighWaterMarkLag {
				continue
			}
			if !r.validEvidenceProposal(oldMode, &s) {
				continue
			}
			if s.Seq > h {
				h = s.Seq
			}
			addCandidate(from, &s)
		}
		for i := range commits {
			s := commits[i]
			if s.Seq <= l || s.Seq > l+r.timing.HighWaterMarkLag {
				continue
			}
			switch {
			case s.Kind == message.KindCommit && r.mb.IsTrusted(s.From) && oldMode != ids.Peacock:
				// A Lion commit certificate: signed by the trusted old
				// primary, hence definitive.
				if !r.eng.VerifyRecord(&s) {
					continue
				}
				ev := slot(s.Seq)
				if !ev.committed || s.View > ev.committedView {
					ev.committed = true
					ev.committedView = s.View
					ev.committedD = s.Digest
				}
				if s.Seq > h {
					h = s.Seq
				}
				addCandidate(from, &s)
			case s.Kind == message.KindPrepare && oldMode == ids.Peacock:
				// A Peacock prepare vote contributing to a prepared
				// certificate.
				if !r.mb.IsUntrusted(s.From) || !r.eng.VerifyRecord(&s) {
					continue
				}
				ev := slot(s.Seq)
				c, ok := ev.candidates[s.Digest]
				if !ok {
					continue // votes without a matching pre-prepare are unusable
				}
				if s.View == c.view {
					c.prepareVoters[s.From] = true
				}
			}
		}
	}
	for _, m := range quorum {
		harvest(m.From, m.Prepares, m.Commits)
	}
	ownCommits := r.log.CommitCertsAbove()
	if oldMode == ids.Peacock {
		ownCommits = r.preparedCertificates()
	}
	harvest(r.eng.ID(), r.log.ProposalsAbove(), ownCommits)

	// Selection per sequence number in (l, h].
	propKind := message.KindPrepare
	if targetMode == ids.Peacock {
		propKind = message.KindPrePrepare
	}
	var newPrepares, newCommits []message.Signed
	for seq := l + 1; seq <= h; seq++ {
		d, reqs, committed := r.selectDigest(oldMode, evidence[seq])
		if len(reqs) == 0 {
			// No usable evidence: fill the hole with µ∅ (a no-op that is
			// ordered like any request but leaves the state unchanged).
			noop := &message.Request{Client: -1}
			reqs = []*message.Request{noop}
			d = noop.Digest()
			committed = false
		}
		s := message.Signed{Kind: propKind, View: target, Seq: seq, Digest: d}
		s.SetRequests(reqs)
		if committed && targetMode == ids.Lion {
			s.Kind = message.KindCommit
			r.eng.SignRecord(&s)
			newCommits = append(newCommits, s)
			continue
		}
		r.eng.SignRecord(&s)
		newPrepares = append(newPrepares, s)
	}

	return &message.Message{
		Kind:            message.KindNewView,
		View:            target,
		Mode:            targetMode,
		Seq:             l,
		StateDigest:     lDigest,
		CheckpointProof: lProof,
		Prepares:        newPrepares,
		Commits:         newCommits,
	}
}

// validEvidenceProposal checks a P-set entry: a proposal must be signed
// by someone entitled to propose in the old mode — any trusted node for
// Lion and Dog (only trusted primaries sign proposals, and trusted nodes
// never lie), or the untrusted primary of the entry's view (or a trusted
// transferer re-issue) for Peacock.
func (r *Replica) validEvidenceProposal(oldMode ids.Mode, s *message.Signed) bool {
	reqs := s.Requests()
	if len(reqs) == 0 || message.BatchDigest(reqs) != s.Digest {
		return false
	}
	switch oldMode {
	case ids.Lion, ids.Dog:
		if s.Kind != message.KindPrepare && s.Kind != message.KindCommit {
			return false
		}
		if !r.mb.IsTrusted(s.From) {
			return false
		}
	case ids.Peacock:
		if s.Kind != message.KindPrePrepare {
			return false
		}
		if !r.mb.IsTrusted(s.From) && s.From != r.mb.Primary(ids.Peacock, s.View) {
			return false
		}
	}
	return r.eng.VerifyRecord(s)
}

// selectDigest applies the paper's three-step rule to one slot's
// evidence, returning the chosen digest, its request payload (one
// request or a whole batch), and whether the slot is proven committed.
func (r *Replica) selectDigest(oldMode ids.Mode, ev *slotEvidence) (crypto.Digest, []*message.Request, bool) {
	if ev == nil {
		return crypto.Digest{}, nil, false
	}
	// Step 1: explicit commit evidence.
	if ev.committed {
		if c := ev.candidates[ev.committedD]; c != nil && len(c.requests) > 0 {
			return ev.committedD, c.requests, true
		}
	}
	// Ties between candidates (same view, different digests — possible
	// only under Byzantine double-voting) break on digest bytes so the
	// selection never depends on map-iteration order.
	better := func(cv ids.View, cd crypto.Digest, bv ids.View, bd crypto.Digest) bool {
		if cv != bv {
			return cv > bv
		}
		return bytes.Compare(cd[:], bd[:]) < 0
	}
	// Step 2: enough matching prepares to prove a quorum accepted.
	switch oldMode {
	case ids.Lion:
		var bestD crypto.Digest
		var best *candidate
		for d, c := range ev.candidates {
			if len(c.reporters) >= r.mb.AgreementQuorum(ids.Lion) && len(c.requests) > 0 {
				if best == nil || better(c.view, d, best.view, bestD) {
					best, bestD = c, d
				}
			}
		}
		if best != nil {
			return bestD, best.requests, true
		}
	case ids.Peacock:
		// A prepared certificate: pre-prepare + 2m prepare votes. Among
		// prepared candidates the highest view wins (standard PBFT).
		var bestD crypto.Digest
		var best *candidate
		for d, c := range ev.candidates {
			if len(c.prepareVoters) >= 2*r.mb.M() && len(c.requests) > 0 {
				if best == nil || better(c.view, d, best.view, bestD) {
					best, bestD = c, d
				}
			}
		}
		if best != nil {
			return bestD, best.requests, false
		}
	}
	// Step 3: any valid proposal; prefer the highest view.
	var bestD crypto.Digest
	var best *candidate
	for d, c := range ev.candidates {
		if len(c.requests) == 0 {
			continue
		}
		if best == nil || better(c.view, d, best.view, bestD) {
			best, bestD = c, d
		}
	}
	if best != nil {
		return bestD, best.requests, false
	}
	return crypto.Digest{}, nil, false
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
	if m.View <= r.view {
		return
	}
	if !m.Mode.Valid() || r.mb.SupportsMode(m.Mode) != nil {
		return
	}
	collector := r.mb.Transferer(m.Mode, m.View)
	if m.From != collector || !r.mb.IsTrusted(m.From) {
		return
	}
	if !r.eng.Verify(m) {
		return
	}
	if !r.rec.VerifyProof(m.Seq, m.StateDigest, m.CheckpointProof) {
		return
	}
	// Every re-issued entry must be signed by the collector for this
	// view and carry its request payload (lone request or batch). The
	// structural checks of a set run first; then its signatures — one
	// per re-issued slot, the whole in-flight window of the old view —
	// are checked in order, and the first bad one refuses the NEW-VIEW.
	for _, set := range [][]message.Signed{m.Prepares, m.Commits} {
		for i := range set {
			s := set[i]
			reqs := s.Requests()
			if s.From != m.From || s.View != m.View || len(reqs) == 0 ||
				message.BatchDigest(reqs) != s.Digest {
				return
			}
		}
		if !r.eng.VerifyRecords(set) {
			return
		}
	}
	r.applyNewView(m)
}

// applyNewView installs the new view: adopt the checkpoint, log the
// re-issued entries, answer them according to the new mode, and resume
// normal operation.
func (r *Replica) applyNewView(m *message.Message) {
	// A lease armed in the old view dies with it, whoever the new
	// primary is (re-issued slots must not extend it either).
	r.leaseInvalidate()
	r.lastNewView = m
	r.view = m.View
	r.mode = m.Mode
	r.activeView = m.View
	r.rec.EnterView(m.View, m.Mode)
	for v := range r.pendingModes {
		if v <= m.View {
			delete(r.pendingModes, v)
		}
	}

	// Adopt the quorum's checkpoint if it is ahead of ours.
	r.rec.StabilizeOrPend(m.Seq, m.StateDigest, m.CheckpointProof)

	maxSeq := m.Seq
	primary := r.mb.Primary(r.mode, r.view)
	amParticipant := r.mode == ids.Lion || r.isProxy()

	// Committed entries (Lion C′): log, mark, done.
	for i := range m.Commits {
		s := m.Commits[i]
		if s.Seq > maxSeq {
			maxSeq = s.Seq
		}
		entry := r.log.Entry(s.Seq)
		if entry == nil {
			continue
		}
		if entry.SetProposal(&s) != nil {
			continue
		}
		r.jr.Proposal(&s)
		entry.SetCommitCert(&s)
		entry.MarkCommitted()
		r.jr.Commit(s.Seq, s.View, s.Digest, &s)
	}

	// Re-issued open entries (P′): log and vote per the new mode.
	for i := range m.Prepares {
		s := m.Prepares[i]
		if s.Seq > maxSeq {
			maxSeq = s.Seq
		}
		entry := r.log.Entry(s.Seq)
		if entry == nil {
			continue
		}
		if entry.SetProposal(&s) != nil {
			continue
		}
		r.jr.Proposal(&s)
		if !amParticipant {
			continue
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
			r.peacockPrepare(entry, s.Digest)
		}
	}

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
		if !r.trustedSelf() {
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
