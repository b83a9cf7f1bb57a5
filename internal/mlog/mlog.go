// Package mlog implements the per-replica message log that every
// protocol in this repository builds on: sequence-number slots with vote
// accounting, low/high watermarks, stable checkpoints and garbage
// collection. The paper relies on exactly this machinery in its State
// Transfer subsections: "all the messages sent by a replica are kept in a
// message log in case they have to be re-sent ... when a checkpoint
// becomes stable, replicas discard all prepare, accept, and commit
// messages with sequence numbers less than or equal to the checkpoint's".
package mlog

import (
	"fmt"
	"sort"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
)

// Entry is the log slot for one sequence number. It accumulates the
// primary's proposal, the votes received from other replicas, and the
// commit/execution status.
type Entry struct {
	seq uint64

	// proposal is the signed PREPARE (Lion/Dog) or PRE-PREPARE
	// (Peacock/PBFT) accepted for this slot in the view recorded inside
	// it, including the attached request when the protocol carries one.
	proposal *message.Signed

	// commitCert is a primary-signed COMMIT (Lion) kept as evidence for
	// the view-change C set.
	commitCert *message.Signed

	votes map[voteKey]crypto.Digest
	// certs keeps the full signed vote messages for protocols whose view
	// changes must prove a slot was prepared (Peacock and the PBFT
	// baseline carry 2m prepare signatures as a prepared certificate).
	certs map[voteKey]message.Signed

	committed bool
	executed  bool
}

type voteKey struct {
	kind message.Kind
	view ids.View
	from ids.ReplicaID
}

// Seq returns the slot's sequence number.
func (e *Entry) Seq() uint64 { return e.seq }

// Committed reports whether the slot has committed.
func (e *Entry) Committed() bool { return e.committed }

// MarkCommitted transitions the slot to committed. Idempotent.
func (e *Entry) MarkCommitted() { e.committed = true }

// Executed reports whether the slot's request has been applied to the
// state machine.
func (e *Entry) Executed() bool { return e.executed }

// MarkExecuted transitions the slot to executed. Idempotent.
func (e *Entry) MarkExecuted() { e.executed = true }

// SetProposal records the accepted proposal for this slot. A second
// proposal with a different digest in the same view is rejected —
// protocols treat that as primary equivocation. Re-setting the identical
// proposal is a no-op so retransmissions are harmless, and a proposal
// from a newer view replaces an older one (view changes re-issue slots).
func (e *Entry) SetProposal(p *message.Signed) error {
	if e.proposal == nil || p.View > e.proposal.View {
		cp := *p
		e.proposal = &cp
		return nil
	}
	if p.View < e.proposal.View {
		return fmt.Errorf("mlog: stale proposal view %d < %d for seq %d", p.View, e.proposal.View, e.seq)
	}
	if p.Digest != e.proposal.Digest {
		return fmt.Errorf("mlog: conflicting proposal for seq %d in view %d (equivocation)", e.seq, p.View)
	}
	// Same view, same digest: keep the richer copy (one of them may
	// carry the request payload).
	if len(e.proposal.Requests()) == 0 && len(p.Requests()) > 0 {
		cp := *p
		e.proposal = &cp
	}
	return nil
}

// Proposal returns the recorded proposal, or nil.
func (e *Entry) Proposal() *message.Signed { return e.proposal }

// Request returns the request attached to the proposal, if any. For
// batched slots it returns the first request; execution paths use
// Requests.
func (e *Entry) Request() *message.Request {
	if e.proposal == nil {
		return nil
	}
	if reqs := e.proposal.Requests(); len(reqs) > 0 {
		return reqs[0]
	}
	return nil
}

// Requests returns the full ordered request payload of the slot: the
// proposal's batch, or its lone request wrapped, or nil.
func (e *Entry) Requests() []*message.Request {
	if e.proposal == nil {
		return nil
	}
	return e.proposal.Requests()
}

// SetCommitCert stores a primary-signed COMMIT as view-change evidence.
func (e *Entry) SetCommitCert(c *message.Signed) {
	cp := *c
	e.commitCert = &cp
}

// CommitCert returns the stored COMMIT evidence, or nil.
func (e *Entry) CommitCert() *message.Signed { return e.commitCert }

// AddVote records a vote of the given kind from a replica. It returns
// true if the vote is new. A replica voting twice with a different digest
// in the same (kind, view) keeps its first vote — Byzantine double votes
// cannot inflate counts.
func (e *Entry) AddVote(kind message.Kind, view ids.View, from ids.ReplicaID, d crypto.Digest) bool {
	if e.votes == nil {
		e.votes = make(map[voteKey]crypto.Digest, 8)
	}
	k := voteKey{kind: kind, view: view, from: from}
	if _, dup := e.votes[k]; dup {
		return false
	}
	e.votes[k] = d
	return true
}

// VoteCount returns how many distinct replicas voted (kind, view, digest).
func (e *Entry) VoteCount(kind message.Kind, view ids.View, d crypto.Digest) int {
	n := 0
	for k, vd := range e.votes {
		if k.kind == kind && k.view == view && vd == d {
			n++
		}
	}
	return n
}

// AddVoteCert records the full signed vote alongside AddVote accounting,
// so the replica can later assemble a prepared certificate. It returns
// whether the vote was new (same dedup semantics as AddVote).
func (e *Entry) AddVoteCert(s *message.Signed) bool {
	if !e.AddVote(s.Kind, s.View, s.From, s.Digest) {
		return false
	}
	if e.certs == nil {
		e.certs = make(map[voteKey]message.Signed, 8)
	}
	cp := *s
	cp.ClearRequests() // certificates never need the request payload
	e.certs[voteKey{kind: s.Kind, view: s.View, from: s.From}] = cp
	return true
}

// VoteCerts returns the stored signed votes matching (kind, view, digest),
// sorted by voter, e.g. the 2m prepare signatures proving a Peacock slot
// prepared.
func (e *Entry) VoteCerts(kind message.Kind, view ids.View, d crypto.Digest) []message.Signed {
	var out []message.Signed
	for k, s := range e.certs {
		if k.kind == kind && k.view == view && s.Digest == d {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].From < out[j].From })
	return out
}

// Voted reports whether from's (kind, view) vote is for digest d.
func (e *Entry) Voted(kind message.Kind, view ids.View, from ids.ReplicaID, d crypto.Digest) bool {
	vd, ok := e.votes[voteKey{kind: kind, view: view, from: from}]
	return ok && vd == d
}

// Checkpoint accumulates checkpoint votes for one sequence number and
// remembers the proof once stable.
type checkpointSlot struct {
	votes map[ids.ReplicaID]crypto.Digest
	certs map[ids.ReplicaID]message.Signed
}

// Log is the sequence-number window of one replica.
type Log struct {
	window uint64 // high-watermark lag

	low     uint64 // last stable checkpoint sequence number
	entries map[uint64]*Entry

	checkpoints map[uint64]*checkpointSlot

	stableDigest crypto.Digest
	stableProof  []message.Signed
	stableSnap   []byte // state snapshot at the stable checkpoint
}

// New creates a log with the given window (how far sequence numbers may
// run ahead of the last stable checkpoint).
func New(window uint64) *Log {
	if window == 0 {
		panic("mlog: zero window")
	}
	return &Log{
		window:      window,
		entries:     make(map[uint64]*Entry),
		checkpoints: make(map[uint64]*checkpointSlot),
	}
}

// Low returns the last stable checkpoint sequence number (the low
// watermark). Slot numbering starts at Low+1.
func (l *Log) Low() uint64 { return l.low }

// High returns the high watermark: the largest admissible sequence
// number.
func (l *Log) High() uint64 { return l.low + l.window }

// InWindow reports whether seq is admissible: Low < seq ≤ High.
func (l *Log) InWindow(seq uint64) bool {
	return seq > l.low && seq <= l.High()
}

// Entry returns the slot for seq, creating it if needed. It returns nil
// if seq is outside the window — callers must treat that as "discard the
// message" (it is either garbage-collected history or too far ahead).
func (l *Log) Entry(seq uint64) *Entry {
	if !l.InWindow(seq) {
		return nil
	}
	e, ok := l.entries[seq]
	if !ok {
		e = &Entry{seq: seq}
		l.entries[seq] = e
	}
	return e
}

// Peek returns the slot for seq only if it already exists and is inside
// the window.
func (l *Log) Peek(seq uint64) *Entry {
	if !l.InWindow(seq) {
		return nil
	}
	return l.entries[seq]
}

// Len returns the number of live slots (for GC tests and metrics).
func (l *Log) Len() int { return len(l.entries) }

// AddCheckpointVote records a CHECKPOINT(n, d) from a replica and
// returns how many distinct replicas have now reported digest d for n.
// Votes for sequence numbers at or below the stable checkpoint are
// ignored (they are history).
func (l *Log) AddCheckpointVote(seq uint64, from ids.ReplicaID, d crypto.Digest) int {
	if seq <= l.low {
		return 0
	}
	cs, ok := l.checkpoints[seq]
	if !ok {
		cs = &checkpointSlot{votes: make(map[ids.ReplicaID]crypto.Digest, 4)}
		l.checkpoints[seq] = cs
	}
	if _, dup := cs.votes[from]; !dup {
		cs.votes[from] = d
	}
	n := 0
	for _, vd := range cs.votes {
		if vd == d {
			n++
		}
	}
	return n
}

// AddCheckpointCert records the full signed CHECKPOINT message and
// returns the matching count, like AddCheckpointVote. Peacock and the
// PBFT baseline keep the certificates because 2m+1 of them form the
// stability proof ξ.
func (l *Log) AddCheckpointCert(s message.Signed) int {
	n := l.AddCheckpointVote(s.Seq, s.From, s.Digest)
	if n == 0 {
		return 0
	}
	cs := l.checkpoints[s.Seq]
	if cs.certs == nil {
		cs.certs = make(map[ids.ReplicaID]message.Signed, 4)
	}
	if _, dup := cs.certs[s.From]; !dup {
		cs.certs[s.From] = s
	}
	return n
}

// CheckpointCerts returns the stored certificates matching (seq, d),
// sorted by signer.
func (l *Log) CheckpointCerts(seq uint64, d crypto.Digest) []message.Signed {
	cs, ok := l.checkpoints[seq]
	if !ok {
		return nil
	}
	var out []message.Signed
	for from, s := range cs.certs {
		if cs.votes[from] == d {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].From < out[j].From })
	return out
}

// MarkStable advances the stable checkpoint to seq with state digest d,
// proof messages, and the state snapshot, then garbage-collects every
// slot and checkpoint vote at or below seq. It returns the number of
// discarded slots. Moving backwards is a no-op (returns 0): stability is
// monotone.
func (l *Log) MarkStable(seq uint64, d crypto.Digest, proof []message.Signed, snapshot []byte) int {
	if seq <= l.low {
		return 0
	}
	l.low = seq
	l.stableDigest = d
	l.stableProof = append([]message.Signed(nil), proof...)
	l.stableSnap = append([]byte(nil), snapshot...)
	pruned := 0
	for n := range l.entries {
		if n <= seq {
			delete(l.entries, n)
			pruned++
		}
	}
	for n := range l.checkpoints {
		if n <= seq {
			delete(l.checkpoints, n)
		}
	}
	return pruned
}

// StableDigest returns the state digest of the last stable checkpoint.
func (l *Log) StableDigest() crypto.Digest { return l.stableDigest }

// StableProof returns the certificate ξ of the last stable checkpoint.
func (l *Log) StableProof() []message.Signed {
	return append([]message.Signed(nil), l.stableProof...)
}

// StableSnapshot returns the state snapshot of the last stable
// checkpoint (used for state transfer to lagging replicas).
func (l *Log) StableSnapshot() []byte {
	return append([]byte(nil), l.stableSnap...)
}

// ProposalsAbove collects the signed proposals for every slot above the
// stable checkpoint, in sequence order: the P set of a VIEW-CHANGE.
func (l *Log) ProposalsAbove() []message.Signed {
	var seqs []uint64
	for n, e := range l.entries {
		if e.proposal != nil {
			seqs = append(seqs, n)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	out := make([]message.Signed, 0, len(seqs))
	for _, n := range seqs {
		p := *l.entries[n].proposal
		out = append(out, p)
	}
	return out
}

// CommitCertsAbove collects primary-signed COMMIT evidence above the
// stable checkpoint, in sequence order: the C set of a Lion VIEW-CHANGE.
func (l *Log) CommitCertsAbove() []message.Signed {
	var seqs []uint64
	for n, e := range l.entries {
		if e.commitCert != nil {
			seqs = append(seqs, n)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	out := make([]message.Signed, 0, len(seqs))
	for _, n := range seqs {
		c := *l.entries[n].commitCert
		out = append(out, c)
	}
	return out
}
