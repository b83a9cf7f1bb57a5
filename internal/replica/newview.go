package replica

import (
	"bytes"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/mlog"
)

// The NEW-VIEW half of Recovery. Every protocol here changes views in
// one shape (Sections 5.1–5.3, and Castro & Liskov's PBFT as its
// all-Byzantine corner): suspects send a VIEW-CHANGE carrying their
// checkpoint certificate ξ, their logged proposals P and their
// certificates C; a collector picks one entry per slot above the
// quorum's checkpoint, fills the holes with no-ops and signs the
// result; every replica checks the NEW-VIEW and enters it. What differs
// — who collects, which votes form its quorum, which evidence it
// believes and how each replica answers a re-issued slot — stays in the
// engines, stated as a Selection and a vote callback.

// Evidence is what one certificate record of a VIEW-CHANGE proves to
// the collector.
type Evidence int

const (
	// Useless records prove nothing.
	Useless Evidence = iota
	// Committed records prove their slot committed on their own: a
	// COMMIT signed by a trusted Lion primary.
	Committed
	// PrepareVote records count toward a prepared certificate for the
	// proposal of their view and digest.
	PrepareVote
)

// Selection is an engine's rule for picking each slot of a NEW-VIEW
// from the evidence its quorum reported. The engine derives every field
// from its membership and mode; none is configurable.
type Selection struct {
	// Proposal reports whether a reported proposal is usable: well
	// formed and signed by someone entitled to propose.
	Proposal func(s *message.Signed) bool
	// Certificate classifies a reported certificate record, verifying
	// its signature.
	Certificate func(s *message.Signed) Evidence
	// Reporters is how many distinct replicas reporting the same
	// proposal prove it committed (Lion's agreement quorum), or 0 where
	// reports prove nothing.
	Reporters int
	// Prepared is how many distinct prepare votes at a proposal's view
	// make it prepared. A prepared proposal beats every unprepared one.
	Prepared int
	// Unprepared says whether the best unprepared proposal is re-issued
	// (SeeMoRe, whose trusted collector cannot be fooled about it) or
	// replaced by a no-op (PBFT).
	Unprepared bool
	// Kind is the kind a re-issued entry carries; one of kind
	// message.KindCommit is re-issued as committed.
	Kind func(committed bool) message.Kind
}

// ViewChange builds this replica's 〈VIEW-CHANGE, v′, n, ξ, P, C〉 for
// target from its log, with the engine's certificates as C. The engine
// completes and signs it.
func (rc *Recovery) ViewChange(target ids.View, certs []message.Signed) *message.Message {
	return &message.Message{
		Kind:            message.KindViewChange,
		View:            target,
		Seq:             rc.log.Low(),
		StateDigest:     rc.log.StableDigest(),
		CheckpointProof: rc.log.StableProof(),
		Prepares:        rc.log.ProposalsAbove(),
		Commits:         certs,
	}
}

// PreparedCertificates flattens the prepare votes of every live slot's
// proposal: the C set of a Peacock or PBFT VIEW-CHANGE.
func (rc *Recovery) PreparedCertificates() []message.Signed {
	var out []message.Signed
	for _, prop := range rc.log.ProposalsAbove() {
		entry := rc.log.Peek(prop.Seq)
		if entry == nil {
			continue
		}
		out = append(out, entry.VoteCerts(message.KindPrepare, prop.View, prop.Digest)...)
	}
	return out
}

// candidate is one digest reported for one slot.
type candidate struct {
	// view is the highest view it was proposed or certified in.
	view ids.View
	// requests is the slot payload behind the digest: one request or a
	// whole batch, nil until a record carries it under the digest.
	requests []*message.Request
	// reporters are the distinct VIEW-CHANGE senders reporting it.
	reporters map[ids.ReplicaID]bool
	// voters are the distinct replicas whose prepare votes at view were
	// reported.
	voters map[ids.ReplicaID]bool
}

// slotEvidence is everything the quorum reported about one slot.
type slotEvidence struct {
	// committed is set when a Committed record proves the slot; d is the
	// digest of the highest-view one.
	committed bool
	view      ids.View
	d         crypto.Digest
	byDigest  map[crypto.Digest]*candidate
}

// offer files a proposal or commit record from one reporter. A payload
// is believed only under its digest: the record's signature covers the
// digest, not the requests riding beside it.
func (ev *slotEvidence) offer(from ids.ReplicaID, s *message.Signed) {
	c, ok := ev.byDigest[s.Digest]
	if !ok {
		c = &candidate{reporters: make(map[ids.ReplicaID]bool), voters: make(map[ids.ReplicaID]bool)}
		ev.byDigest[s.Digest] = c
	}
	if reqs := s.Requests(); len(reqs) > 0 && message.BatchDigest(reqs) == s.Digest &&
		(c.requests == nil || s.View >= c.view) {
		c.requests = reqs
	}
	c.view = max(c.view, s.View)
	c.reporters[from] = true
}

// best returns the highest-view candidate with a payload that ok
// accepts. Equal views — possible only under Byzantine double-voting —
// break on digest bytes, so the pick never depends on map order.
func (ev *slotEvidence) best(ok func(*candidate) bool) (crypto.Digest, *candidate) {
	var bestD crypto.Digest
	var best *candidate
	for d, c := range ev.byDigest {
		if len(c.requests) == 0 || !ok(c) {
			continue
		}
		if best == nil || c.view > best.view ||
			c.view == best.view && bytes.Compare(d[:], bestD[:]) < 0 {
			best, bestD = c, d
		}
	}
	return bestD, best
}

// pick applies sel to one slot's evidence: a commit certificate, then
// Reporters matching reports, then a prepared certificate, then (if
// sel.Unprepared) any proposal. It returns the chosen payload, nil for
// a hole, and whether the slot is proven committed.
func (sel *Selection) pick(ev *slotEvidence) (crypto.Digest, []*message.Request, bool) {
	if ev == nil {
		return crypto.Digest{}, nil, false
	}
	if c := ev.byDigest[ev.d]; ev.committed && c != nil && len(c.requests) > 0 {
		return ev.d, c.requests, true
	}
	if sel.Reporters > 0 {
		if d, c := ev.best(func(c *candidate) bool { return len(c.reporters) >= sel.Reporters }); c != nil {
			return d, c.requests, true
		}
	}
	if d, c := ev.best(func(c *candidate) bool { return len(c.voters) >= sel.Prepared }); c != nil {
		return d, c.requests, false
	}
	if sel.Unprepared {
		if d, c := ev.best(func(*candidate) bool { return true }); c != nil {
			return d, c.requests, false
		}
	}
	return crypto.Digest{}, nil, false
}

// NewView composes the NEW-VIEW into target (running mode) from the
// quorum's VIEW-CHANGEs (in sender order) and the collector's own log:
// its proposals and own, its certificates. It takes the highest
// checkpoint the quorum proves (votes were proof-checked on receipt),
// harvests every in-window proposal sel accepts and then every
// certificate, picks each slot up to the highest one reported, fills
// holes with no-ops and signs the entries. The engine signs and sends
// the message.
func (rc *Recovery) NewView(target ids.View, mode ids.Mode, quorum []*message.Message, own []message.Signed, sel Selection) *message.Message {
	l, lDigest, lProof := rc.log.Low(), rc.log.StableDigest(), rc.log.StableProof()
	for _, m := range quorum {
		if m.Seq > l {
			l, lDigest, lProof = m.Seq, m.StateDigest, m.CheckpointProof
		}
	}
	window := rc.log.High() - rc.log.Low()
	// The collector's own log counts even when its VIEW-CHANGE is not in
	// the quorum (Lion's collector is the quorum's implicit +1).
	reports := append(quorum[:len(quorum):len(quorum)],
		&message.Message{From: rc.eng.ID(), Prepares: rc.log.ProposalsAbove(), Commits: own})

	slots := make(map[uint64]*slotEvidence)
	h := l
	slot := func(seq uint64) *slotEvidence {
		ev, ok := slots[seq]
		if !ok {
			ev = &slotEvidence{byDigest: make(map[crypto.Digest]*candidate)}
			slots[seq] = ev
		}
		h = max(h, seq)
		return ev
	}
	inWindow := func(seq uint64) bool { return seq > l && seq <= l+window }
	// Proposals first, so a prepare vote finds its proposal whatever
	// order the reports came in.
	for _, rep := range reports {
		for i := range rep.Prepares {
			if s := &rep.Prepares[i]; inWindow(s.Seq) && sel.Proposal(s) {
				slot(s.Seq).offer(rep.From, s)
			}
		}
	}
	for _, rep := range reports {
		for i := range rep.Commits {
			s := &rep.Commits[i]
			if !inWindow(s.Seq) {
				continue
			}
			switch sel.Certificate(s) {
			case Committed:
				ev := slot(s.Seq)
				if !ev.committed || s.View > ev.view {
					ev.committed, ev.view, ev.d = true, s.View, s.Digest
				}
				ev.offer(rep.From, s)
			case PrepareVote:
				// A vote counts only at its proposal's highest view.
				if ev := slots[s.Seq]; ev != nil {
					if c := ev.byDigest[s.Digest]; c != nil && c.view == s.View {
						c.voters[s.From] = true
					}
				}
			}
		}
	}

	nv := &message.Message{
		Kind: message.KindNewView, View: target, Mode: mode,
		Seq: l, StateDigest: lDigest, CheckpointProof: lProof,
	}
	for seq := l + 1; seq <= h; seq++ {
		d, reqs, committed := sel.pick(slots[seq])
		if len(reqs) == 0 {
			// No usable evidence: fill the hole with µ∅, a no-op ordered
			// like any request that leaves the state unchanged.
			noop := &message.Request{Client: -1}
			reqs, d, committed = []*message.Request{noop}, noop.Digest(), false
		}
		s := message.Signed{Kind: sel.Kind(committed), View: target, Seq: seq, Digest: d, Payload: reqs}
		rc.eng.SignRecord(&s)
		if s.Kind == message.KindCommit {
			nv.Commits = append(nv.Commits, s)
		} else {
			nv.Prepares = append(nv.Prepares, s)
		}
	}
	return nv
}

// CheckNewView validates a NEW-VIEW whose sender the engine has already
// found to be the view's collector: a newer view, the collector's
// signature, the checkpoint certificate ξ, and every re-issued entry —
// from the collector, at m.View, of kind openKind if open or COMMIT if
// committed, with its payload under its digest. The structural checks
// of a set run first; then its signatures (one per re-issued slot, the
// old view's whole in-flight window) are checked in order, and the
// first bad one refuses the NEW-VIEW.
func (rc *Recovery) CheckNewView(m *message.Message, openKind message.Kind) bool {
	if m.View <= rc.view || !rc.eng.Verify(m) || !rc.VerifyProof(m.Seq, m.StateDigest, m.CheckpointProof) {
		return false
	}
	for _, set := range []struct {
		entries []message.Signed
		kind    message.Kind
	}{{m.Prepares, openKind}, {m.Commits, message.KindCommit}} {
		for i := range set.entries {
			s := &set.entries[i]
			reqs := s.Requests()
			if s.From != m.From || s.View != m.View || s.Kind != set.kind ||
				len(reqs) == 0 || message.BatchDigest(reqs) != s.Digest {
				return false
			}
		}
		if !rc.eng.VerifyRecords(set.entries) {
			return false
		}
	}
	return true
}

// EnterNewView enters the view a checked or self-composed NEW-VIEW
// installs. It journals the view entry before anything of the new view
// goes out, adopts the quorum's checkpoint if it is ahead, logs each
// committed entry as committed, and logs each open entry, handing it to
// vote for the engine's answer in the new view. The engine sets its own
// view and mode first. It returns the highest slot m covers.
func (rc *Recovery) EnterNewView(m *message.Message, vote func(entry *mlog.Entry, s *message.Signed)) uint64 {
	rc.enterView(m.View, m.Mode)
	rc.stabilizeOrPend(m.Seq, m.StateDigest, m.CheckpointProof)
	maxSeq := m.Seq
	for _, set := range []struct {
		entries   []message.Signed
		committed bool
	}{{m.Commits, true}, {m.Prepares, false}} {
		for i := range set.entries {
			s := &set.entries[i]
			maxSeq = max(maxSeq, s.Seq)
			entry := rc.log.Entry(s.Seq)
			if entry == nil || entry.SetProposal(s) != nil {
				continue
			}
			rc.jr.Proposal(s)
			if !set.committed {
				vote(entry, s)
				continue
			}
			entry.SetCommitCert(s)
			entry.MarkCommitted()
			rc.jr.Commit(s.Seq, s.View, s.Digest, s)
		}
	}
	return maxSeq
}
