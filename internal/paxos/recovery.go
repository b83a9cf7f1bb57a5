package paxos

import (
	"sort"
	"time"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/replica"
)

// Checkpointing, state transfer and leader change for the Paxos
// baseline. Everything here is a crash-only simplification of the
// machinery in internal/core: all replicas are trusted, so a single
// leader-signed checkpoint is stable and view-change evidence needs no
// Byzantine filtering.

func (r *Replica) maybeCheckpoint() {
	n := r.exec.LastExecuted()
	if !r.exec.AtCheckpoint(n) || n <= r.log.Low() || !r.isLeader() {
		return
	}
	snap, ok := r.exec.SnapshotAt(n)
	if !ok {
		return
	}
	cp := &message.Signed{Kind: message.KindCheckpoint, Seq: n, Digest: replica.DigestOf(snap)}
	r.eng.SignRecord(cp)
	r.eng.Multicast(r.all(), cp.Wire())
	r.stabilizeOrPend(n, cp.Digest, []message.Signed{*cp})
}

func (r *Replica) onCheckpoint(m *message.Message) {
	s := m.Record()
	if !r.eng.VerifyRecord(s) {
		return
	}
	r.stabilizeOrPend(m.Seq, m.Digest, []message.Signed{*s})
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
	r.eng.Send(r.Leader(r.view), req)
}

func (r *Replica) onStateRequest(m *message.Message) {
	if !r.eng.Verify(m) {
		return
	}
	low := r.log.Low()
	rep := &message.Message{
		Kind:     message.KindStateReply,
		Prepares: replica.CapSuffix(r.log.ProposalsAbove()),
		// Crash-only trust: this replica's signature on the reply
		// vouches for which transferred slots already decided.
		Commits: replica.CapSuffix(r.log.CommittedAbove()),
	}
	if low > m.Seq {
		rep.Seq = low
		rep.StateDigest = r.log.StableDigest()
		rep.CheckpointProof = r.log.StableProof()
		rep.Result = r.log.StableSnapshot()
	} else if len(rep.Prepares) == 0 && len(rep.Commits) == 0 {
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
	if m.Seq > r.exec.LastExecuted() && replica.DigestOf(m.Result) == m.StateDigest {
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

// startViewChange abandons the current view and solicits a leader
// change.
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
		Commits:         r.log.CommitCertsAbove(),
	}
	r.eng.Sign(vcm)
	r.recordViewChange(vcm)
	r.eng.Multicast(r.all(), vcm)
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
	// Crash-only world: a single peer demanding a newer view is
	// believable; join so the cluster converges quickly.
	if r.status == statusNormal && m.From != r.eng.ID() {
		r.startViewChange(m.View)
	}
	if r.Leader(m.View) == r.eng.ID() {
		r.tryAssembleNewView(m.View)
	}
}

// votesInReplicaOrder flattens a vote map into sender-id order, so
// everything harvested from the votes — checkpoint proof, slot picks,
// the NEW-VIEW wire content — is independent of map iteration order
// (the simdet determinism contract).
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
	others := 0
	for from := range votes {
		if from != r.eng.ID() {
			others++
		}
	}
	// Majority: f others plus the new leader itself.
	if others < r.Quorum()-1 {
		return
	}

	// Replica-ordered votes: the checkpoint tie-break (two votes at the
	// same stable Seq can carry different proofs) and the slot picks
	// below must not depend on map iteration order.
	ordered := votesInReplicaOrder(votes)

	l := r.log.Low()
	lDigest := r.log.StableDigest()
	lProof := r.log.StableProof()
	for _, m := range ordered {
		if m.Seq > l {
			l, lDigest, lProof = m.Seq, m.StateDigest, m.CheckpointProof
		}
	}

	type slotPick struct {
		view      ids.View
		digest    crypto.Digest
		requests  []*message.Request
		committed bool
	}
	picks := make(map[uint64]*slotPick)
	consider := func(s *message.Signed, committed bool) {
		reqs := s.Requests()
		if s.Seq <= l || s.Seq > l+r.timing.HighWaterMarkLag || len(reqs) == 0 {
			return
		}
		p, ok := picks[s.Seq]
		if !ok {
			p = &slotPick{}
			picks[s.Seq] = p
		}
		if committed && !p.committed {
			p.committed = true
			p.view, p.digest, p.requests = s.View, s.Digest, reqs
			return
		}
		if !p.committed && (len(p.requests) == 0 || s.View > p.view) {
			p.view, p.digest, p.requests = s.View, s.Digest, reqs
		}
	}
	harvest := func(m *message.Message) {
		for i := range m.Prepares {
			consider(&m.Prepares[i], false)
		}
		for i := range m.Commits {
			consider(&m.Commits[i], true)
		}
	}
	for _, m := range ordered {
		harvest(m)
	}
	own := r.log.ProposalsAbove()
	for i := range own {
		consider(&own[i], false)
	}
	ownC := r.log.CommitCertsAbove()
	for i := range ownC {
		consider(&ownC[i], true)
	}

	h := l
	for seq := range picks {
		if seq > h {
			h = seq
		}
	}

	var prepares, commits []message.Signed
	for seq := l + 1; seq <= h; seq++ {
		p := picks[seq]
		if p == nil || len(p.requests) == 0 {
			noop := &message.Request{Client: -1}
			s := message.Signed{Kind: message.KindPrepare, View: target, Seq: seq, Digest: noop.Digest(), Request: noop}
			r.eng.SignRecord(&s)
			prepares = append(prepares, s)
			continue
		}
		s := message.Signed{View: target, Seq: seq, Digest: p.digest}
		s.SetRequests(p.requests)
		if p.committed {
			s.Kind = message.KindCommit
			r.eng.SignRecord(&s)
			commits = append(commits, s)
		} else {
			s.Kind = message.KindPrepare
			r.eng.SignRecord(&s)
			prepares = append(prepares, s)
		}
	}

	nv := &message.Message{
		Kind:            message.KindNewView,
		View:            target,
		Seq:             l,
		StateDigest:     lDigest,
		CheckpointProof: lProof,
		Prepares:        prepares,
		Commits:         commits,
	}
	r.eng.Sign(nv)
	r.eng.Multicast(r.all(), nv)
	r.applyNewView(nv)
}

func (r *Replica) onNewView(m *message.Message) {
	if m.View <= r.view {
		return
	}
	if m.From != r.Leader(m.View) {
		return
	}
	if !r.eng.Verify(m) {
		return
	}
	for _, set := range [][]message.Signed{m.Prepares, m.Commits} {
		for i := range set {
			s := set[i]
			reqs := s.Requests()
			if s.From != m.From || s.View != m.View || len(reqs) == 0 ||
				message.BatchDigest(reqs) != s.Digest || !r.eng.VerifyRecord(&s) {
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
	leader := r.Leader(r.view)
	for i := range m.Commits {
		s := m.Commits[i]
		if s.Seq > maxSeq {
			maxSeq = s.Seq
		}
		entry := r.log.Entry(s.Seq)
		if entry == nil || entry.SetProposal(&s) != nil {
			continue
		}
		r.jr.Proposal(&s)
		entry.SetCommitCert(&s)
		entry.MarkCommitted()
		r.jr.Commit(s.Seq, s.View, s.Digest, &s)
	}
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
		r.markPending(s.Seq)
		if r.eng.ID() == leader {
			entry.AddVote(message.KindAccept, r.view, r.eng.ID(), s.Digest)
		} else {
			ack := &message.Message{
				Kind: message.KindAccept, From: r.eng.ID(),
				View: r.view, Seq: s.Seq, Digest: s.Digest,
			}
			r.eng.Send(leader, ack)
		}
	}
	if r.nextSeq <= maxSeq {
		r.nextSeq = maxSeq + 1
	}
	r.drainQueue()
	r.executeReady()
	if p := r.loadProbe(); p.OnViewChange != nil {
		p.OnViewChange(r.view)
	}
}
