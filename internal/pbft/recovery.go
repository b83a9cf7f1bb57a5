package pbft

import (
	"bytes"
	"sort"
	"time"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/replica"
)

// PBFT checkpoints, state transfer, and the view change. One deliberate
// simplification relative to Castro & Liskov: NEW-VIEW messages do not
// embed the full view-change messages; instead each re-issued slot is
// selected from prepared certificates carried in the VIEW-CHANGE
// messages, and every backup independently enforces that a NEW-VIEW
// never contradicts a prepared certificate it holds locally. Under the
// crash-style failures the paper's evaluation injects, this yields the
// same message flow and recovery timing as full PBFT; DESIGN.md records
// the simplification.

func (r *Replica) maybeCheckpoint() {
	n := r.exec.LastExecuted()
	if !r.exec.AtCheckpoint(n) || n <= r.log.Low() {
		return
	}
	snap, ok := r.exec.SnapshotAt(n)
	if !ok {
		return
	}
	cp := &message.Signed{Kind: message.KindCheckpoint, Seq: n, Digest: replica.DigestOf(snap)}
	r.eng.SignRecord(cp)
	r.eng.Multicast(r.all(), cp.Wire())
	if count := r.log.AddCheckpointCert(*cp); count >= r.Quorum() {
		r.stabilizeOrPend(n, cp.Digest, r.log.CheckpointCerts(n, cp.Digest))
	}
}

func (r *Replica) onCheckpoint(m *message.Message) {
	s := m.Record()
	if int(m.From) < 0 || int(m.From) >= r.n || !r.eng.VerifyRecord(s) {
		return
	}
	if count := r.log.AddCheckpointCert(*s); count >= r.Quorum() {
		r.stabilizeOrPend(m.Seq, m.Digest, r.log.CheckpointCerts(m.Seq, m.Digest))
	}
}

func (r *Replica) stabilizeOrPend(seq uint64, d crypto.Digest, proof []message.Signed) {
	if seq <= r.log.Low() {
		return
	}
	if snap, ok := r.exec.SnapshotAt(seq); ok {
		if replica.DigestOf(snap) == d {
			r.log.MarkStable(seq, d, proof, snap)
			r.jr.Stable(r.view, 0, seq, d, proof, snap)
			r.exec.DropSnapshotsBelow(seq)
			for n := range r.pendingStable {
				if n <= seq {
					delete(r.pendingStable, n)
				}
			}
			if r.nextSeq <= seq {
				r.nextSeq = seq + 1
			}
		}
		return
	}
	if r.exec.LastExecuted() < seq {
		r.pendingStable[seq] = pendingCheckpoint{digest: d, proof: proof}
		r.maybeRequestState()
	}
}

// drainPendingStable retries parked checkpoint evidence after execution
// progressed, in ascending sequence order so the send schedule does not
// depend on map-iteration order (determinism under simulation).
func (r *Replica) drainPendingStable() {
	var ready []uint64
	for seq := range r.pendingStable {
		if seq <= r.exec.LastExecuted() {
			ready = append(ready, seq)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	for _, seq := range ready {
		ev := r.pendingStable[seq]
		delete(r.pendingStable, seq)
		r.stabilizeOrPend(seq, ev.digest, ev.proof)
	}
}

func (r *Replica) maybeRequestState() {
	behind := uint64(0)
	last := r.exec.LastExecuted()
	for seq := range r.pendingStable {
		if seq > last && seq-last > behind {
			behind = seq - last
		}
	}
	if behind < r.exec.Period() {
		return
	}
	now := r.clk.Now()
	if now.Sub(r.stateRequested) < r.timing.ViewChange {
		return
	}
	r.stateRequested = now
	req := &message.Message{Kind: message.KindStateRequest, Seq: r.exec.LastExecuted()}
	r.eng.Sign(req)
	r.eng.Multicast(r.all(), req)
}

func (r *Replica) onStateRequest(m *message.Message) {
	if !r.eng.Verify(m) {
		return
	}
	low := r.log.Low()
	rep := &message.Message{
		Kind:     message.KindStateReply,
		Prepares: replica.CapSuffix(r.log.ProposalsAbove()),
	}
	if low > m.Seq {
		rep.Seq = low
		rep.StateDigest = r.log.StableDigest()
		rep.CheckpointProof = r.log.StableProof()
		rep.Result = r.log.StableSnapshot()
	} else if len(rep.Prepares) == 0 {
		return // requester is at or ahead of everything we hold
	}
	// A requester already at our checkpoint still gets the live log
	// suffix, just not the redundant full-state snapshot.
	r.eng.Sign(rep)
	r.eng.Send(m.From, rep)
}

func (r *Replica) onStateReply(m *message.Message) {
	if !r.eng.Verify(m) {
		return
	}
	if m.Seq > r.exec.LastExecuted() &&
		r.verifyCheckpointProof(m.Seq, m.StateDigest, m.CheckpointProof) &&
		replica.DigestOf(m.Result) == m.StateDigest {
		if err := r.exec.JumpTo(m.Seq, m.Result); err != nil {
			return
		}
		r.log.MarkStable(m.Seq, m.StateDigest, m.CheckpointProof, m.Result)
		r.jr.Stable(r.view, 0, m.Seq, m.StateDigest, m.CheckpointProof, m.Result)
		r.exec.DropSnapshotsBelow(m.Seq)
		for n := range r.pendingStable {
			if n <= m.Seq {
				delete(r.pendingStable, n)
			}
		}
		if r.nextSeq <= m.Seq {
			r.nextSeq = m.Seq + 1
		}
		r.resetPending()
	}
	// The suffix helps even when the snapshot was stale.
	r.installLogSuffix(m)
	r.executeReady()
}

// verifyCheckpointProof accepts Byz+1 distinct well-signed matching
// CHECKPOINTs (a weak certificate: at least one correct signer).
func (r *Replica) verifyCheckpointProof(seq uint64, d crypto.Digest, proof []message.Signed) bool {
	if seq == 0 {
		return true
	}
	seen := make(map[ids.ReplicaID]bool, len(proof))
	for i := range proof {
		s := proof[i]
		if s.Kind != message.KindCheckpoint || s.Seq != seq || s.Digest != d {
			return false
		}
		if seen[s.From] || int(s.From) < 0 || int(s.From) >= r.n {
			return false
		}
		seen[s.From] = true
		if !r.eng.VerifyRecord(&s) {
			return false
		}
	}
	return len(seen) >= r.WeakQuorum()
}

// ---------------------------------------------------------------------------
// View change

func (r *Replica) startViewChange(target ids.View) {
	if target <= r.view {
		return
	}
	r.status = statusViewChange
	r.vcTarget = target
	r.vcDeadline = r.clk.Now().Add(2 * r.timing.ViewChange)
	r.resetPending()

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
	r.recordViewChange(vcm)
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
	if m.View <= r.view {
		return
	}
	if int(m.From) < 0 || int(m.From) >= r.n || m.From == r.eng.ID() {
		return
	}
	if !r.eng.Verify(m) {
		return
	}
	if !r.verifyCheckpointProof(m.Seq, m.StateDigest, m.CheckpointProof) {
		return
	}
	r.recordViewChange(m)
}

func (r *Replica) recordViewChange(m *message.Message) {
	votes := r.vcVotes[m.View]
	if votes == nil {
		votes = make(map[ids.ReplicaID]*message.Message)
		r.vcVotes[m.View] = votes
	}
	if _, dup := votes[m.From]; !dup {
		votes[m.From] = m
	}
	// Join once Byz+1 distinct replicas demand a newer view. The scan
	// is a pure min-aggregation so the joined view — a scheduling
	// decision — cannot depend on map iteration order (simdet).
	if r.status == statusNormal {
		var join ids.View
		for v, vs := range r.vcVotes {
			if v > r.view && len(vs) >= r.WeakQuorum() && (join == 0 || v < join) {
				join = v
			}
		}
		if join != 0 {
			r.startViewChange(join)
		}
	}
	if r.Primary(m.View) == r.eng.ID() {
		r.tryAssembleNewView(m.View)
	}
}

// votesInReplicaOrder flattens a vote map into sender-id order, so
// everything harvested from the votes — checkpoint proof, slot
// candidates, the NEW-VIEW wire content — is independent of map
// iteration order (the simdet determinism contract).
func votesInReplicaOrder(votes map[ids.ReplicaID]*message.Message) []*message.Message {
	froms := make([]int, 0, len(votes))
	for from := range votes {
		froms = append(froms, int(from))
	}
	sort.Ints(froms)
	out := make([]*message.Message, 0, len(froms))
	for _, id := range froms {
		out = append(out, votes[ids.ReplicaID(id)])
	}
	return out
}

func (r *Replica) tryAssembleNewView(target ids.View) {
	if target <= r.view {
		return
	}
	votes := r.vcVotes[target]
	if len(votes) < r.Quorum() {
		return
	}

	// Replica-ordered votes: the checkpoint tie-break (two votes at the
	// same stable Seq can carry different proofs) and the candidate
	// harvest below feed the NEW-VIEW wire content, which must not
	// depend on map iteration order.
	ordered := votesInReplicaOrder(votes)

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
			reqs := s.Requests()
			if s.Seq <= l || s.Seq > l+r.timing.HighWaterMarkLag ||
				s.Kind != message.KindPrePrepare || len(reqs) == 0 ||
				message.BatchDigest(reqs) != s.Digest {
				continue
			}
			if s.From != r.Primary(s.View) || !r.eng.VerifyRecord(&s) {
				continue
			}
			c := getCand(s.Seq, s.Digest)
			if s.View >= c.view {
				c.view = s.View
				c.requests = reqs
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
	if !r.verifyCheckpointProof(m.Seq, m.StateDigest, m.CheckpointProof) {
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
	r.status = statusNormal
	r.jr.View(m.View, 0)
	r.inFlight = make(map[inFlightKey]uint64)
	r.resetPending()
	r.vcDeadline = time.Time{}
	r.vcTarget = 0
	for v := range r.vcVotes {
		if v <= m.View {
			delete(r.vcVotes, v)
		}
	}
	if m.Seq > r.log.Low() {
		r.stabilizeOrPend(m.Seq, m.StateDigest, m.CheckpointProof)
	}

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
		if entry.Committed() {
			continue
		}
		r.markPending(s.Seq)
		entry.AddVote(message.KindPrepare, r.view, m.From, s.Digest)
		if r.eng.ID() != m.From {
			prep := &message.Signed{Kind: message.KindPrepare, View: r.view, Seq: s.Seq, Digest: s.Digest}
			r.eng.SignRecord(prep)
			r.jr.Vote(prep)
			entry.AddVoteCert(prep)
			r.eng.Multicast(r.all(), prep.Wire())
		}
		r.maybePrepared(entry)
	}
	if r.nextSeq <= maxSeq {
		r.nextSeq = maxSeq + 1
	}
	// Work buffered before the view change — an unflushed batch plus any
	// window-parked queue: the new primary re-admits what is still
	// fresh; everyone else drops it (clients retransmit).
	backlog := append(r.batcher.Take(), r.queue...)
	r.queue = nil
	if len(backlog) > 0 && r.isPrimary() {
		for _, req := range backlog {
			if r.exec.Fresh(req) {
				r.admitRequest(req)
			}
		}
		if r.pipe.Enabled() {
			r.pump(r.clk.Now())
		} else {
			r.proposeBatch(r.batcher.Take())
		}
	}
	r.executeReady()
	if p := r.loadProbe(); p.OnViewChange != nil {
		p.OnViewChange(r.view)
	}
}
