package replica

import (
	"fmt"
	"log"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/mlog"
	"repro/internal/storage"
)

// Journal is the write side of the durability subsystem, shared by
// every consensus engine (SeeMoRe's three modes, PBFT/S-UpRight). It
// is nil-safe: a Journal over a nil store (durability off) turns every
// call into a no-op, so engines sprinkle journal calls through their
// hot paths without branching.
//
// The engines call the Journal only from their single engine goroutine,
// matching the storage.Store contract. A record is appended before the
// engine sends anything that depends on it (a proposal before it is
// multicast, a vote before it is sent); appends only write, and the
// Engine's outbox syncs the journal once before the first frame it
// releases after them (Dirty, Sync). So no frame leaves before every
// record appended before it is durable, and a recovered replica can
// never have told the network something its log does not remember.
//
// A storage error breaks the journal for good (Broken): the replica can
// no longer remember what it says, so from then on its engine sends
// nothing until the process restarts — it looks crashed, never amnesiac
// (ARCHITECTURE.md, "Durability and recovery").
type Journal struct {
	store    storage.Store
	dirty    bool // records appended since the last Sync
	broken   bool
	failures int
}

// NewJournal wraps a store; st may be nil (durability off).
func NewJournal(st storage.Store) *Journal { return &Journal{store: st} }

// Enabled reports whether records are currently being written.
func (j *Journal) Enabled() bool { return j != nil && j.store != nil && !j.broken }

// Dirty reports whether records were appended since the last Sync.
func (j *Journal) Dirty() bool { return j != nil && j.dirty }

// Broken reports whether the store failed, fail-stopping the replica.
func (j *Journal) Broken() bool { return j != nil && j.broken }

// Failures counts the storage errors that broke the journal.
func (j *Journal) Failures() int {
	if j == nil {
		return 0
	}
	return j.failures
}

// Store exposes the underlying store (nil when durability is off).
func (j *Journal) Store() storage.Store {
	if j == nil {
		return nil
	}
	return j.store
}

// Sync makes every record appended so far durable.
func (j *Journal) Sync() {
	if !j.Enabled() || !j.dirty {
		return
	}
	if err := j.store.Sync(); err != nil {
		j.fail(err)
		return
	}
	j.dirty = false
}

func (j *Journal) append(rec storage.Record) {
	if !j.Enabled() {
		return
	}
	if err := j.store.Append(rec); err != nil {
		j.fail(err)
		return
	}
	j.dirty = true
}

func (j *Journal) fail(err error) {
	j.broken = true
	j.failures++
	log.Printf("replica: durable storage failed, fail-stopping until restart: %v", err)
}

// Proposal journals an accepted proposal, payload included.
func (j *Journal) Proposal(s *message.Signed) {
	if !j.Enabled() {
		return
	}
	// Store.Append does not retain the payload, so a pooled frame stages
	// it without leaving a garbage buffer per journaled record.
	f := message.EncodeSigned(s)
	j.append(storage.Record{
		Kind:    storage.KindProposal,
		Seq:     s.Seq,
		View:    uint64(s.View),
		Digest:  s.Digest,
		Payload: f.Bytes(),
	})
	f.Release()
}

// Vote journals a vote this replica is about to send: with its
// signature if the vote is sent signed, bare if it is sent tagged — a
// tag is addressed to one peer and nothing replay would check.
func (j *Journal) Vote(s *message.Signed) {
	if !j.Enabled() {
		return
	}
	f := message.EncodeSigned(s)
	j.append(storage.Record{
		Kind:    storage.KindVote,
		Seq:     s.Seq,
		View:    uint64(s.View),
		Digest:  s.Digest,
		Payload: f.Bytes(),
	})
	f.Release()
}

// Commit journals that a slot committed; cert (optional) is the commit
// certificate kept by modes that have one (Lion's primary-signed
// COMMIT).
func (j *Journal) Commit(seq uint64, view ids.View, d crypto.Digest, cert *message.Signed) {
	if !j.Enabled() {
		return
	}
	rec := storage.Record{
		Kind:   storage.KindCommit,
		Seq:    seq,
		View:   uint64(view),
		Digest: d,
	}
	var f *message.Frame
	if cert != nil {
		f = message.EncodeSigned(cert)
		rec.Payload = f.Bytes()
	}
	j.append(rec)
	f.Release()
}

// View journals entry into a view (boot, or an applied NEW-VIEW).
func (j *Journal) View(v ids.View, mode ids.Mode) {
	if !j.Enabled() {
		return
	}
	j.append(storage.Record{Kind: storage.KindView, View: uint64(v), Mode: uint8(mode)})
}

// Stable persists a stable checkpoint — snapshot, digest and proof ξ —
// and garbage-collects the WAL below it, riding the same stabilization
// that prunes the in-memory message log. The current view and the
// stable marker become the head of the surviving log so recovery never
// depends on deleted history.
func (j *Journal) Stable(view ids.View, mode ids.Mode, seq uint64, d crypto.Digest, proof []message.Signed, snap []byte) {
	if !j.Enabled() {
		return
	}
	if err := j.store.SaveSnapshot(storage.Snapshot{
		Seq:    seq,
		Digest: d,
		Proof:  message.MarshalSignedSet(proof),
		Data:   snap,
	}); err != nil {
		j.fail(err)
		return
	}
	epoch := []storage.Record{
		{Kind: storage.KindView, View: uint64(view), Mode: uint8(mode)},
		{Kind: storage.KindStable, Seq: seq, Digest: d},
	}
	if err := j.store.Truncate(seq, epoch); err != nil {
		j.fail(err)
	}
}

// Close flushes and releases the store. Safe on a nil or disabled
// journal, and idempotent.
func (j *Journal) Close() {
	if j == nil || j.store == nil {
		return
	}
	if err := j.store.Close(); err != nil && !j.broken {
		log.Printf("replica: closing durable storage: %v", err)
	}
	j.store = nil
}

// MaxSuffix bounds how many log-suffix records one STATE-REPLY carries,
// keeping the frame well under the transport limit even with batched
// slots. A replica that is further behind catches the rest up through
// the normal protocol or a follow-up request.
const MaxSuffix = 256

// CapSuffix truncates a signed set to MaxSuffix entries.
func CapSuffix(set []message.Signed) []message.Signed {
	if len(set) > MaxSuffix {
		return set[:MaxSuffix]
	}
	return set
}

// RecoveredState is what Recover rebuilt from a store.
type RecoveredState struct {
	// View and Mode are the last journaled view entry (valid when
	// HasView).
	View    ids.View
	Mode    ids.Mode
	HasView bool
	// MaxSeq is the highest slot mentioned anywhere in the log or
	// snapshot; a recovering primary must continue numbering above it.
	MaxSeq uint64
	// HadState reports whether the store held anything at all (false on
	// a pristine data directory).
	HadState bool
}

// Recover replays a store into a fresh message log and executor: the
// latest snapshot is restored first (verified against its recorded
// state digest), then the WAL suffix re-populates proposals, own votes
// and commit marks, and finally every consecutively committed slot is
// re-applied to the state machine. No messages are sent and no reply
// callbacks fire — recovery rebuilds exactly the state the crash
// erased, nothing more; rejoining the cluster afterwards is the
// engines' job (state transfer).
func Recover(st storage.Store, l *mlog.Log, exec *Executor) (RecoveredState, error) {
	var rs RecoveredState
	snap, err := st.LatestSnapshot()
	if err != nil {
		return rs, err
	}
	if snap != nil && snap.Seq > 0 {
		if DigestOf(snap.Data) != snap.Digest {
			return rs, fmt.Errorf("replica: recovered snapshot at seq %d fails its digest", snap.Seq)
		}
		proof, err := message.UnmarshalSignedSet(snap.Proof)
		if err != nil {
			return rs, fmt.Errorf("replica: recovered snapshot proof: %w", err)
		}
		if err := exec.JumpTo(snap.Seq, snap.Data); err != nil {
			return rs, err
		}
		l.MarkStable(snap.Seq, snap.Digest, proof, snap.Data)
		rs.MaxSeq = snap.Seq
		rs.HadState = true
	}
	err = st.Replay(func(rec storage.Record) error {
		rs.HadState = true
		switch rec.Kind {
		case storage.KindView:
			if v := ids.View(rec.View); !rs.HasView || v >= rs.View {
				rs.View = v
				rs.Mode = ids.Mode(rec.Mode)
				rs.HasView = true
			}
		case storage.KindProposal:
			s, err := message.UnmarshalSigned(rec.Payload)
			if err != nil {
				return fmt.Errorf("replica: journaled proposal: %w", err)
			}
			if s.Seq > rs.MaxSeq {
				rs.MaxSeq = s.Seq
			}
			if e := l.Entry(s.Seq); e != nil {
				// Ignore rejection: replay can race a view change that
				// re-issued the slot later in the log; the later record
				// wins when it arrives.
				_ = e.SetProposal(s)
			}
		case storage.KindVote:
			s, err := message.UnmarshalSigned(rec.Payload)
			if err != nil {
				return fmt.Errorf("replica: journaled vote: %w", err)
			}
			if e := l.Entry(s.Seq); e != nil {
				e.AddVoteCert(s)
			}
		case storage.KindCommit:
			if rec.Seq > rs.MaxSeq {
				rs.MaxSeq = rec.Seq
			}
			e := l.Entry(rec.Seq)
			if e == nil {
				return nil // below the snapshot: already in the restored state
			}
			if len(rec.Payload) > 0 {
				cert, err := message.UnmarshalSigned(rec.Payload)
				if err != nil {
					return fmt.Errorf("replica: journaled commit cert: %w", err)
				}
				if e.Proposal() == nil && len(cert.Requests()) > 0 {
					_ = e.SetProposal(cert)
				}
				e.SetCommitCert(cert)
			}
			// The proposal record always precedes its commit record;
			// a commit without a payload to execute stays un-marked and
			// recommits through state transfer instead of wedging the
			// execution cursor.
			if e.Proposal() != nil {
				e.MarkCommitted()
			}
		case storage.KindStable:
			// Ordering marker only: the snapshot store is authoritative
			// for stable state.
		}
		return nil
	})
	if err != nil {
		return rs, err
	}
	// Re-apply every consecutively committed slot. Replies were already
	// sent in the previous life; clients that missed one retransmit and
	// hit the recovered reply cache.
	exec.ExecuteReady(l, nil)
	return rs, nil
}
