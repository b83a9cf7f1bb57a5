package core

import (
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/replica"
	"sort"
)

// Checkpointing and state transfer (the State Transfer subsections of
// Sections 5.1–5.3). In Lion and Dog the trusted primary's signed
// CHECKPOINT message is immediately a stability certificate; in Peacock
// the primary is untrusted, so stability needs 2m+1 matching proxy
// checkpoints, exactly like PBFT.

// maybeCheckpoint emits a CHECKPOINT if execution just crossed a
// checkpoint boundary and this replica's role produces checkpoints in
// the current mode.
func (r *Replica) maybeCheckpoint() {
	n := r.exec.LastExecuted()
	if !r.exec.AtCheckpoint(n) || n <= r.log.Low() {
		return
	}
	snap, ok := r.exec.SnapshotAt(n)
	if !ok {
		return
	}
	d := replica.DigestOf(snap)
	cp := &message.Signed{Kind: message.KindCheckpoint, Seq: n, Digest: d}

	switch r.mode {
	case ids.Lion, ids.Dog:
		// Only the trusted primary checkpoints; its signature alone makes
		// the checkpoint stable everywhere.
		if !r.isPrimary() {
			return
		}
		r.eng.SignRecord(cp)
		r.eng.Multicast(r.mb.All(), cp.Wire())
		r.stabilizeOrPend(n, d, []message.Signed{*cp})
	case ids.Peacock:
		// Every proxy checkpoints; stability needs a 2m+1 certificate.
		if !r.isProxy() {
			return
		}
		r.eng.SignRecord(cp)
		r.eng.Multicast(r.mb.All(), cp.Wire())
		if count := r.log.AddCheckpointCert(*cp); count >= r.mb.AgreementQuorum(ids.Peacock) {
			r.stabilizeOrPend(n, d, r.log.CheckpointCerts(n, d))
		}
	}
}

// onCheckpoint processes a CHECKPOINT message from a peer.
func (r *Replica) onCheckpoint(m *message.Message) {
	s := m.Record()
	if !r.eng.VerifyRecord(s) {
		return
	}
	switch r.mode {
	case ids.Lion, ids.Dog:
		// Trust only private-cloud signers (the paper's trusted primary;
		// any trusted node is non-malicious, so a crashed-and-recovered
		// ex-primary's checkpoint is equally sound).
		if !r.mb.IsTrusted(m.From) {
			return
		}
		r.stabilizeOrPend(m.Seq, m.Digest, []message.Signed{*s})
	case ids.Peacock:
		if !r.mb.IsUntrusted(m.From) {
			return
		}
		if count := r.log.AddCheckpointCert(*s); count >= r.mb.AgreementQuorum(ids.Peacock) {
			r.stabilizeOrPend(m.Seq, m.Digest, r.log.CheckpointCerts(m.Seq, m.Digest))
		}
	}
}

// stabilizeOrPend marks a checkpoint stable if local execution has
// already produced the matching snapshot; otherwise it parks the
// evidence and, if the replica has fallen a whole period behind,
// requests a state transfer.
func (r *Replica) stabilizeOrPend(seq uint64, d crypto.Digest, proof []message.Signed) {
	if seq <= r.log.Low() {
		return
	}
	if snap, ok := r.exec.SnapshotAt(seq); ok {
		if replica.DigestOf(snap) == d {
			r.markStableLocal(seq, d, proof, snap)
		}
		// A digest mismatch with local state would mean a diverged
		// replica; with a crash-only private cloud signing checkpoints
		// that cannot happen, and in Peacock a 2m+1 certificate outvotes
		// us — but overwriting executed state in place is not possible
		// (state transfer only moves forward), so the evidence is
		// dropped and the replica will be caught by its peers.
		return
	}
	if r.exec.LastExecuted() < seq {
		r.pendingStable[seq] = &stableEvidence{digest: d, proof: proof}
		r.maybeRequestState()
	}
}

func (r *Replica) markStableLocal(seq uint64, d crypto.Digest, proof []message.Signed, snap []byte) {
	if seq <= r.log.Low() {
		return
	}
	r.log.MarkStable(seq, d, proof, snap)
	// The WAL truncates on the same stabilization that garbage-collects
	// the in-memory log, so disk usage tracks the live window.
	r.jr.Stable(r.view, r.mode, seq, d, proof, snap)
	r.exec.DropSnapshotsBelow(seq)
	for n := range r.pendingStable {
		if n <= seq {
			delete(r.pendingStable, n)
		}
	}
	if r.nextSeq <= seq {
		r.nextSeq = seq + 1
	}
	if p := r.loadProbe(); p.OnCheckpointStable != nil {
		p.OnCheckpointStable(seq)
	}
}

// drainPendingStable retries parked checkpoint evidence after execution
// progressed. Ready sequence numbers are drained in ascending order —
// stabilization may send messages, and map-iteration order would make
// the send schedule vary between otherwise identical runs.
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

// maybeRequestState asks peers for a snapshot when this replica has
// evidence of a stable checkpoint at least one full period ahead of its
// own execution — the "bring slow replicas up to date" path.
func (r *Replica) maybeRequestState() {
	last := r.exec.LastExecuted()
	behindBy := uint64(0)
	for seq := range r.pendingStable {
		if seq > last && seq-last > behindBy {
			behindBy = seq - last
		}
	}
	if behindBy == 0 {
		return
	}
	now := r.clk.Now()
	if behindBy < r.exec.Period() {
		// A sub-period gap normally closes by itself as in-flight commits
		// execute. But an executor that sits still a whole view-change
		// period with stable evidence ahead of it is wedged on a hole —
		// slots that committed while it was partitioned or deposed — and
		// only a transfer can unwedge it.
		if last != r.stallExec {
			r.stallExec, r.stallSince = last, now
			return
		}
		if now.Sub(r.stallSince) < r.timing.ViewChange {
			return
		}
	}
	if now.Sub(r.stateRequested) < r.timing.ViewChange {
		return // throttle
	}
	r.stateRequested = now

	req := &message.Message{Kind: message.KindStateRequest, Seq: r.exec.LastExecuted()}
	r.eng.Sign(req)
	switch r.mode {
	case ids.Lion, ids.Dog:
		r.eng.Send(r.mb.Primary(r.mode, r.view), req)
	case ids.Peacock:
		r.eng.Multicast(r.mb.Proxies(ids.Peacock, r.view), req)
	}
}

// onStateRequest serves the latest stable snapshot — plus the log
// suffix above it — to a lagging or restarted peer. The suffix lets the
// receiver hold the request payloads of in-flight slots (so it can
// vote and execute as the commits arrive) and, in Lion, adopt slots the
// trusted primary already committed, instead of idling until the next
// checkpoint.
func (r *Replica) onStateRequest(m *message.Message) {
	if !r.eng.Verify(m) {
		return
	}
	low := r.log.Low()
	rep := &message.Message{
		Kind:     message.KindStateReply,
		Prepares: replica.CapSuffix(r.log.ProposalsAbove()),
	}
	if r.mode != ids.Peacock {
		// Lion keeps trusted commit certificates; they are definitive
		// for the receiver on their own.
		rep.Commits = replica.CapSuffix(r.log.CommitCertsAbove())
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
	// suffix (payloads of in-flight slots), just not the redundant
	// full-state snapshot.
	r.eng.Sign(rep)
	r.eng.Send(m.From, rep)
}

// onStateReply installs a transferred snapshot after verifying the
// checkpoint certificate and the snapshot digest, then adopts the
// attached log suffix (each record individually verified).
func (r *Replica) onStateReply(m *message.Message) {
	if !r.eng.Verify(m) {
		return
	}
	seq := m.Seq
	if seq > r.exec.LastExecuted() &&
		r.verifyCheckpointProof(seq, m.StateDigest, m.CheckpointProof) &&
		replica.DigestOf(m.Result) == m.StateDigest {
		if err := r.exec.JumpTo(seq, m.Result); err != nil {
			return
		}
		r.log.MarkStable(seq, m.StateDigest, m.CheckpointProof, m.Result)
		r.jr.Stable(r.view, r.mode, seq, m.StateDigest, m.CheckpointProof, m.Result)
		r.exec.DropSnapshotsBelow(seq)
		for n := range r.pendingStable {
			if n <= seq {
				delete(r.pendingStable, n)
			}
		}
		if r.nextSeq <= seq {
			r.nextSeq = seq + 1
		}
		r.resetPending()
		if p := r.loadProbe(); p.OnCheckpointStable != nil {
			p.OnCheckpointStable(seq)
		}
	}
	// The suffix is useful even when the snapshot itself was stale (we
	// may only be missing payloads of live slots).
	r.installLogSuffix(m)
	r.executeReady()
}

// verifyCheckpointProof validates ξ for (seq, d): every record must be a
// well-signed CHECKPOINT for that exact state, and the signer set must
// contain a trusted node (whose word alone suffices — it cannot lie) or
// at least m+1 distinct public nodes (so at least one correct one
// vouches; PBFT's weak certificate).
func (r *Replica) verifyCheckpointProof(seq uint64, d crypto.Digest, proof []message.Signed) bool {
	if seq == 0 {
		return true // genesis
	}
	seen := make(map[ids.ReplicaID]bool, len(proof))
	publicSigners := 0
	trustedSigner := false
	for i := range proof {
		s := proof[i]
		if s.Kind != message.KindCheckpoint || s.Seq != seq || s.Digest != d {
			return false
		}
		if seen[s.From] || !r.mb.Contains(s.From) {
			return false
		}
		seen[s.From] = true
		if !r.eng.VerifyRecord(&s) {
			return false
		}
		if r.mb.IsTrusted(s.From) {
			trustedSigner = true
		} else {
			publicSigners++
		}
	}
	return trustedSigner || publicSigners >= r.mb.M()+1
}
