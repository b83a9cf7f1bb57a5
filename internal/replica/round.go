package replica

import (
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/mlog"
)

// The PBFT agreement round that follows a PRE-PREPARE (Castro & Liskov,
// OSDI '99): every voter multicasts a signed PREPARE; a slot is prepared
// once it holds the view's proposal and Quorum prepare voices, the
// pre-prepare standing in for the primary's; a prepared voter multicasts
// a tagged COMMIT; and the slot commits locally on Quorum commit voices.
// Peacock runs it among the view's proxies (Section 5.3), the
// PBFT/S-UpRight baseline among all of its replicas. The engine wires in
// what differs — the voters, the quorum and what follows a commit — and
// keeps the PRE-PREPARE: its authentication, its payload's member check
// and the vote it stands in for are the engine's, and it hands the slot
// to Prepare.

// RoundConfig wires a Round to its engine.
type RoundConfig struct {
	// Recovery supplies the engine, log, journal and liveness timers it
	// was built on, and the view: the round's view is the last one
	// Recovery entered, which is the engine's own.
	Recovery *Recovery
	// Voter reports whether id votes in view v.
	Voter func(v ids.View, id ids.ReplicaID) bool
	// Voters lists the voters of view v, to whom every vote goes.
	Voters func(v ids.View) []ids.ReplicaID
	// Quorum is how many matching voices prepare, then commit, a slot.
	Quorum int
	// Authentic checks a received vote, given as its Record, the way the
	// engine authenticates its kind.
	Authentic func(*message.Signed) bool
	// Committed runs once slot seq committed locally on digest d, its
	// commit journaled and its liveness timer cleared.
	Committed func(seq uint64, d crypto.Digest)
}

// Round is one replica's side of the PBFT prepare and commit phases.
// Engine-goroutine confined, like the Recovery it is built on.
type Round struct {
	rc      *Recovery
	eng     *Engine
	log     *mlog.Log
	jr      *Journal
	pending *Pending

	voter     func(ids.View, ids.ReplicaID) bool
	voters    func(ids.View) []ids.ReplicaID
	quorum    int
	authentic func(*message.Signed) bool
	committed func(uint64, crypto.Digest)
}

// NewRound builds the round of one replica.
func NewRound(cfg RoundConfig) *Round {
	rc := cfg.Recovery
	return &Round{
		rc: rc, eng: rc.eng, log: rc.log, jr: rc.jr, pending: rc.pending,
		voter: cfg.Voter, voters: cfg.Voters, quorum: cfg.Quorum,
		authentic: cfg.Authentic, committed: cfg.Committed,
	}
}

// Prepare journals, files and multicasts this replica's PREPARE vote for
// d on the slot in the current view, then checks whether the slot is
// prepared. The vote is signed: Quorum-1 of them beside the pre-prepare
// are the prepared certificate a view change presents.
func (rd *Round) Prepare(entry *mlog.Entry, d crypto.Digest) {
	v := rd.rc.view
	prep := &message.Signed{Kind: message.KindPrepare, View: v, Seq: entry.Seq(), Digest: d}
	rd.eng.SignRecord(prep)
	rd.jr.Vote(prep)
	entry.AddVoteCert(prep)
	rd.eng.Multicast(rd.voters(v), prep.Wire())
	rd.MaybePrepared(entry)
}

// Voted reports whether this replica already voted (kind) for d on the
// entry in the current view: each vote goes out once.
func (rd *Round) Voted(entry *mlog.Entry, kind message.Kind, d crypto.Digest) bool {
	return entry.Voted(kind, rd.rc.view, rd.eng.ID(), d)
}

// admits reports whether m is a vote of the current view from another
// voter to this one, during normal operation.
func (rd *Round) admits(m *message.Message) bool {
	v, self := rd.rc.view, rd.eng.ID()
	return !rd.rc.InViewChange() && m.View == v && m.From != self &&
		rd.voter(v, self) && rd.voter(v, m.From)
}

// OnPrepare takes a peer's PREPARE vote, keeping it whole: Quorum-1 of
// them form the prepared certificate.
func (rd *Round) OnPrepare(m *message.Message) {
	if !rd.admits(m) {
		return
	}
	entry := rd.log.Entry(m.Seq)
	if entry == nil {
		return
	}
	// Once this replica has sent its COMMIT vote the slot is prepared
	// here for good — it already holds the certificate — so a further
	// vote is not worth verifying.
	if prop := entry.Proposal(); prop != nil && prop.View == rd.rc.view &&
		rd.Voted(entry, message.KindCommit, prop.Digest) {
		return
	}
	s := m.Record()
	if !rd.authentic(s) {
		return
	}
	entry.AddVoteCert(s)
	rd.MaybePrepared(entry)
}

// MaybePrepared sends this replica's COMMIT vote once the slot is
// prepared. The vote is read by its receivers and exported by no view
// change, so it is tagged, not signed.
func (rd *Round) MaybePrepared(entry *mlog.Entry) {
	v := rd.rc.view
	prop := entry.Proposal()
	if prop == nil || prop.View != v {
		return
	}
	d := prop.Digest
	if entry.VoteCount(message.KindPrepare, v, d) < rd.quorum {
		return
	}
	if rd.Voted(entry, message.KindCommit, d) {
		return // commit vote already sent
	}
	self := rd.eng.ID()
	com := &message.Signed{Kind: message.KindCommit, From: self, View: v, Seq: entry.Seq(), Digest: d}
	rd.jr.Vote(com)
	entry.AddVote(message.KindCommit, v, self, d)
	rd.eng.MulticastTagged(rd.voters(v), com)
	rd.maybeCommitted(entry)
}

// OnCommit takes a peer's COMMIT vote. A vote on a committed slot
// changes nothing: it is dropped unchecked.
func (rd *Round) OnCommit(m *message.Message) {
	if !rd.admits(m) {
		return
	}
	entry := rd.log.Entry(m.Seq)
	if entry == nil || entry.Committed() || !rd.authentic(m.Record()) {
		return
	}
	entry.AddVote(message.KindCommit, rd.rc.view, m.From, m.Digest)
	rd.MaybePrepared(entry)
	rd.maybeCommitted(entry)
}

// maybeCommitted commits the slot once committed-local holds: prepared,
// plus Quorum commit voices.
func (rd *Round) maybeCommitted(entry *mlog.Entry) {
	if entry.Committed() {
		return
	}
	v := rd.rc.view
	prop := entry.Proposal()
	if prop == nil || prop.View != v {
		return
	}
	d := prop.Digest
	if entry.VoteCount(message.KindPrepare, v, d) < rd.quorum ||
		entry.VoteCount(message.KindCommit, v, d) < rd.quorum {
		return
	}
	entry.MarkCommitted()
	rd.jr.Commit(entry.Seq(), v, d, nil)
	rd.pending.Clear(entry.Seq())
	rd.committed(entry.Seq(), d)
}
