package replica

import (
	"sort"
	"time"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/mlog"
)

// Trust is the set of decisions on which the engines' recovery paths
// differ. Checkpointing, state transfer and the view-change vote table
// have one shape in every protocol here (Sections 5.1–5.3 of the paper,
// and the PBFT/S-UpRight comparison lines as its all-Byzantine corner);
// what changes is whose word is believed. An engine answers these
// questions from its membership, mode and view and never touches
// Recovery's tables.
type Trust interface {
	// MaySignCheckpoint reports whether from's CHECKPOINT counts toward
	// stability (the trusted nodes in Lion and Dog, the public ones in
	// Peacock, every member in PBFT).
	MaySignCheckpoint(from ids.ReplicaID) bool
	// StableQuorum is how many matching admissible CHECKPOINTs make a
	// checkpoint stable: 1 where the signer cannot lie, an agreement
	// quorum otherwise.
	StableQuorum() int
	// ProofSuffices reports whether the distinct, verified signers of a
	// checkpoint certificate ξ prove it to a replica that did not witness
	// the stabilization (state transfer, VIEW-CHANGE, NEW-VIEW).
	ProofSuffices(signers []ids.ReplicaID) bool
	// StateServers lists whom a lagging replica asks for state.
	StateServers() []ids.ReplicaID
	// SuffixCommits is the commit evidence a STATE-REPLY may carry for
	// the slots above the served checkpoint (nil where no single replica's
	// word proves a commit).
	SuffixCommits() []message.Signed
	// ValidProposal reports whether a proposal record handed over by a
	// peer is well-formed and signed by someone entitled to propose.
	ValidProposal(s *message.Signed) bool
	// AdoptCommit adopts one in-window commit record of a STATE-REPLY
	// suffix, or ignores it if it proves nothing to this engine.
	AdoptCommit(s *message.Signed)
	// Stabilized tells the engine the stable checkpoint moved to seq, so
	// it can continue numbering above it and notify its observers.
	Stabilized(seq uint64)
}

// RecoveryConfig wires a Recovery to the engine-owned pieces it drives.
type RecoveryConfig struct {
	// Engine runs the replica; Recovery journals through its Journal.
	Engine  *Engine
	Log     *mlog.Log
	Exec    *Executor
	Pending *Pending
	Trust   Trust
	// N is the cluster size; replica identities are [0, N).
	N int
	// ViewChange is τ: the state-request throttle, the stall detector's
	// patience, and half the NEW-VIEW wait.
	ViewChange time.Duration
	// JoinQuorum is how many distinct replicas demanding a newer view
	// make this one join (and keep a stalled view change escalating): one
	// more than the replicas that may lie.
	JoinQuorum int
	// Mode tags journaled view and stable records until a view entry
	// says otherwise (engines without modes leave it zero).
	Mode ids.Mode
}

// Recovery is the recovery substrate shared by every engine, beside
// Executor, Journal and Pending: the parked-checkpoint table with
// stabilize-or-park and its ascending drain, the lag heuristic that asks
// for a state transfer (throttle and stall detector included),
// STATE-REQUEST serving, STATE-REPLY verification and install,
// checkpoint-certificate checking, the boot-time recover-then-ask
// sequence, and the view-change vote table with its join scan and
// escalate-or-back-off deadline. Engine-goroutine confined; no locking.
type Recovery struct {
	eng     *Engine
	log     *mlog.Log
	exec    *Executor
	jr      *Journal
	pending *Pending
	trust   Trust

	all        []ids.ReplicaID
	tau        time.Duration
	joinQuorum int

	// view and mode are the last view entry (Boot, EnterView): the head
	// of every journaled stable record and the floor of the vote scans.
	view ids.View
	mode ids.Mode

	// parked holds checkpoint evidence that arrived before local
	// execution reached it: seq → evidence.
	parked map[uint64]stableEvidence

	// stateRequested throttles state-transfer requests. stallExec and
	// stallSince detect an executor that stopped advancing with stable
	// checkpoint evidence ahead of it (see CatchUp).
	stateRequested time.Time
	stallExec      uint64
	stallSince     time.Time

	// votes stores received VIEW-CHANGE messages per candidate view, one
	// per sender. target is the view this replica is trying to enter (0
	// in normal operation); deadline bounds the wait for its NEW-VIEW.
	votes    map[ids.View]map[ids.ReplicaID]*message.Message
	target   ids.View
	deadline time.Time
}

type stableEvidence struct {
	digest crypto.Digest
	proof  []message.Signed
}

// NewRecovery builds the recovery component of one replica.
func NewRecovery(cfg RecoveryConfig) *Recovery {
	all := make([]ids.ReplicaID, cfg.N)
	for i := range all {
		all[i] = ids.ReplicaID(i)
	}
	return &Recovery{
		eng: cfg.Engine, log: cfg.Log, exec: cfg.Exec, jr: cfg.Engine.jr,
		pending: cfg.Pending, trust: cfg.Trust,
		all: all, tau: cfg.ViewChange, joinQuorum: cfg.JoinQuorum,
		mode:   cfg.Mode,
		parked: make(map[uint64]stableEvidence),
		votes:  make(map[ids.View]map[ids.ReplicaID]*message.Message),
	}
}

func (rc *Recovery) member(id ids.ReplicaID) bool { return id >= 0 && int(id) < len(rc.all) }

// ---------------------------------------------------------------------------
// Boot

// Boot rebuilds log and executor from the journal's store (see Recover)
// before the engine starts, so no locking is needed. A pristine data
// directory gets the boot view stamped, so a crash before the first view
// change still recovers into the right mode. A restarted replica instead
// asks every peer for the latest stable checkpoint and log suffix rather
// than waiting to notice it is behind — its recovered view may be long
// gone, any replica serves state, and peers with nothing newer stay
// silent. The caller applies the returned view to its own state.
func (rc *Recovery) Boot() (RecoveredState, error) {
	rs, err := Recover(rc.jr.Store(), rc.log, rc.exec)
	if err != nil {
		return rs, err
	}
	if rs.HasView {
		rc.view, rc.mode = rs.View, rs.Mode
	}
	if !rs.HadState {
		rc.jr.View(rc.view, rc.mode)
		return rs, nil
	}
	rc.requestState(rc.all)
	return rs, nil
}

// ---------------------------------------------------------------------------
// Checkpoints

// Executed is the engines' hook after execution advanced: emit a
// CHECKPOINT if it crossed a boundary and this replica's role produces
// checkpoints right now (emit — the trusted primary in Lion and Dog, the
// proxies in Peacock, every PBFT replica), then retry
// parked evidence the executor has caught up with.
func (rc *Recovery) Executed(emit bool) {
	if emit {
		rc.maybeCheckpoint()
	}
	rc.drainPendingStable()
}

func (rc *Recovery) maybeCheckpoint() {
	n := rc.exec.LastExecuted()
	if !rc.exec.AtCheckpoint(n) || n <= rc.log.Low() {
		return
	}
	snap, ok := rc.exec.SnapshotAt(n)
	if !ok {
		return
	}
	cp := &message.Signed{Kind: message.KindCheckpoint, Seq: n, Digest: DigestOf(snap)}
	rc.eng.SignRecord(cp)
	rc.eng.Multicast(rc.all, cp.Wire())
	rc.countCheckpoint(cp)
}

// OnCheckpoint processes a CHECKPOINT message from a peer.
func (rc *Recovery) OnCheckpoint(m *message.Message) {
	if !rc.member(m.From) || !rc.trust.MaySignCheckpoint(m.From) {
		return
	}
	if s := m.Record(); rc.eng.VerifyRecord(s) {
		rc.countCheckpoint(s)
	}
}

// countCheckpoint files one admissible signed CHECKPOINT; once enough
// signers agree, the matching certificates are the stability proof ξ.
func (rc *Recovery) countCheckpoint(cp *message.Signed) {
	if rc.log.AddCheckpointCert(*cp) >= rc.trust.StableQuorum() {
		rc.StabilizeOrPend(cp.Seq, cp.Digest, rc.log.CheckpointCerts(cp.Seq, cp.Digest))
	}
}

// StabilizeOrPend marks a checkpoint stable if local execution has
// already produced the matching snapshot; otherwise it parks the
// evidence and, if the replica has fallen behind, requests a state
// transfer. Engines call it with a NEW-VIEW's checkpoint, whose
// certificate they verified.
func (rc *Recovery) StabilizeOrPend(seq uint64, d crypto.Digest, proof []message.Signed) {
	if seq <= rc.log.Low() {
		return
	}
	if snap, ok := rc.exec.SnapshotAt(seq); ok {
		if DigestOf(snap) == d {
			rc.install(seq, d, proof, snap)
		}
		// A digest mismatch with local state would mean a diverged
		// replica; with crash-only signers that cannot happen, and a
		// quorum certificate outvotes us — but overwriting executed state
		// in place is not possible (state transfer only moves forward), so
		// the evidence is dropped and the replica will be caught by its
		// peers.
		return
	}
	if rc.exec.LastExecuted() < seq {
		rc.parked[seq] = stableEvidence{digest: d, proof: proof}
		rc.CatchUp()
	}
}

// install moves the stable checkpoint to seq. The WAL truncates on the
// same stabilization that garbage-collects the in-memory log, so disk
// usage tracks the live window.
func (rc *Recovery) install(seq uint64, d crypto.Digest, proof []message.Signed, snap []byte) {
	rc.log.MarkStable(seq, d, proof, snap)
	rc.jr.Stable(rc.view, rc.mode, seq, d, proof, snap)
	rc.exec.DropSnapshotsBelow(seq)
	for n := range rc.parked {
		if n <= seq {
			delete(rc.parked, n)
		}
	}
	rc.trust.Stabilized(seq)
}

// drainPendingStable retries parked checkpoint evidence after execution
// progressed. Ready sequence numbers are drained in ascending order —
// stabilization may send messages, and map-iteration order would make
// the send schedule vary between otherwise identical runs.
func (rc *Recovery) drainPendingStable() {
	var ready []uint64
	for seq := range rc.parked {
		if seq <= rc.exec.LastExecuted() {
			ready = append(ready, seq)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	for _, seq := range ready {
		ev := rc.parked[seq]
		delete(rc.parked, seq)
		rc.StabilizeOrPend(seq, ev.digest, ev.proof)
	}
}

// VerifyProof validates ξ for (seq, d): every record must be a
// well-signed CHECKPOINT for that exact state from a distinct member,
// and the signer set must satisfy the engine's sufficiency rule.
func (rc *Recovery) VerifyProof(seq uint64, d crypto.Digest, proof []message.Signed) bool {
	if seq == 0 {
		return true // genesis
	}
	signers := make([]ids.ReplicaID, 0, len(proof))
	seen := make(map[ids.ReplicaID]bool, len(proof))
	for i := range proof {
		s := proof[i]
		if s.Kind != message.KindCheckpoint || s.Seq != seq || s.Digest != d {
			return false
		}
		if seen[s.From] || !rc.member(s.From) {
			return false
		}
		seen[s.From] = true
		if !rc.eng.VerifyRecord(&s) {
			return false
		}
		signers = append(signers, s.From)
	}
	return rc.trust.ProofSuffices(signers)
}

// ---------------------------------------------------------------------------
// State transfer

// CatchUp asks the engine's state servers for a snapshot when this
// replica holds evidence of a stable checkpoint at least one full period
// ahead of its own execution — the "bring slow replicas up to date"
// path. Besides running when evidence is parked, engines call it on
// every tick spent in normal operation (it throttles to one request per
// τ): without the retry a single lost STATE-REPLY — or a throttled
// request during a traffic lull — would strand a recovering replica
// until the next checkpoint happens to arrive.
func (rc *Recovery) CatchUp() {
	last := rc.exec.LastExecuted()
	behindBy := uint64(0)
	for seq := range rc.parked {
		if seq > last && seq-last > behindBy {
			behindBy = seq - last
		}
	}
	if behindBy == 0 {
		return
	}
	now := rc.eng.Clock().Now()
	if behindBy < rc.exec.Period() {
		// A sub-period gap normally closes by itself as in-flight commits
		// execute. But an executor that sits still a whole view-change
		// period with stable evidence ahead of it is wedged on a hole —
		// slots that committed while it was partitioned or deposed — and
		// only a transfer can unwedge it.
		if last != rc.stallExec {
			rc.stallExec, rc.stallSince = last, now
			return
		}
		if now.Sub(rc.stallSince) < rc.tau {
			return
		}
	}
	if now.Sub(rc.stateRequested) < rc.tau {
		return // throttle
	}
	rc.requestState(rc.trust.StateServers())
}

// requestState sends a STATE-REQUEST now, bypassing the lag heuristic.
// The throttle timestamp advances so the heuristic does not immediately
// fire again.
func (rc *Recovery) requestState(to []ids.ReplicaID) {
	rc.stateRequested = rc.eng.Clock().Now()
	req := &message.Message{Kind: message.KindStateRequest, Seq: rc.exec.LastExecuted()}
	rc.eng.Sign(req)
	rc.eng.Multicast(to, req)
}

// OnStateRequest serves the latest stable snapshot — plus the log
// suffix above it — to a lagging or restarted peer. The suffix lets the
// receiver hold the request payloads of in-flight slots (so it can vote
// and execute as the commits arrive) and adopt slots whose commit
// evidence stands on its own, instead of idling until the next
// checkpoint.
func (rc *Recovery) OnStateRequest(m *message.Message) {
	if !rc.eng.Verify(m) {
		return
	}
	rep := &message.Message{
		Kind:     message.KindStateReply,
		Prepares: CapSuffix(rc.log.ProposalsAbove()),
		Commits:  CapSuffix(rc.trust.SuffixCommits()),
	}
	if low := rc.log.Low(); low > m.Seq {
		rep.Seq = low
		rep.StateDigest = rc.log.StableDigest()
		rep.CheckpointProof = rc.log.StableProof()
		rep.Result = rc.log.StableSnapshot()
	} else if len(rep.Prepares) == 0 && len(rep.Commits) == 0 {
		return // requester is at or ahead of everything we hold
	}
	// A requester already at our checkpoint still gets the live log
	// suffix (payloads of in-flight slots), just not the redundant
	// full-state snapshot.
	rc.eng.Sign(rep)
	rc.eng.Send(m.From, rep)
}

// OnStateReply installs a transferred snapshot after verifying the
// checkpoint certificate and the snapshot digest, then adopts the
// attached log suffix, every record individually checked — the reply
// sender is not trusted beyond its own signature. It reports whether
// the reply was processed; the engine then executes whatever became
// ready.
func (rc *Recovery) OnStateReply(m *message.Message) bool {
	if !rc.eng.Verify(m) {
		return false
	}
	if m.Seq > rc.exec.LastExecuted() &&
		rc.VerifyProof(m.Seq, m.StateDigest, m.CheckpointProof) &&
		DigestOf(m.Result) == m.StateDigest {
		if err := rc.exec.JumpTo(m.Seq, m.Result); err != nil {
			return false
		}
		rc.install(m.Seq, m.StateDigest, m.CheckpointProof, m.Result)
		rc.pending.Reset()
	}
	// The suffix is useful even when the snapshot itself was stale (we
	// may only be missing payloads of live slots): proposals so this
	// replica holds the payloads and can vote and execute when the
	// commits arrive, then whatever commit evidence the engine accepts.
	for i := range m.Prepares {
		s := m.Prepares[i]
		if !rc.log.InWindow(s.Seq) || !rc.trust.ValidProposal(&s) {
			continue
		}
		if entry := rc.log.Entry(s.Seq); entry != nil && entry.SetProposal(&s) == nil {
			rc.jr.Proposal(&s)
		}
	}
	for i := range m.Commits {
		if s := m.Commits[i]; rc.log.InWindow(s.Seq) {
			rc.trust.AdoptCommit(&s)
		}
	}
	return true
}
