package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/crypto"
)

// Kind discriminates WAL record types.
type Kind uint8

const (
	// KindInvalid is the zero Kind; it never appears in a log.
	KindInvalid Kind = iota
	// KindView records entry into a view: View and Mode are set. Written
	// when a replica boots and whenever it applies a NEW-VIEW, so replay
	// ends knowing the current view.
	KindView
	// KindProposal records an accepted proposal (the primary's own, or
	// one received and logged). Payload is the encoded message.Signed
	// including its request payload.
	KindProposal
	// KindVote records a signed vote this replica sent (an accept,
	// prepare or commit vote). Payload is the encoded message.Signed. A
	// recovered replica must not contradict votes it already cast.
	KindVote
	// KindCommit records that the slot Seq committed with Digest.
	// Payload optionally carries an encoded commit certificate
	// (message.Signed) for modes that keep one.
	KindCommit
	// KindStable records that the checkpoint at Seq with state digest
	// Digest became stable. The snapshot itself lives in the snapshot
	// store; the marker orders stabilization against the surrounding
	// records.
	KindStable
	kindSentinel // keep last
)

var kindNames = [...]string{
	KindInvalid:  "INVALID",
	KindView:     "VIEW",
	KindProposal: "PROPOSAL",
	KindVote:     "VOTE",
	KindCommit:   "COMMIT",
	KindStable:   "STABLE",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) && k != KindInvalid {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is a defined record kind.
func (k Kind) Valid() bool { return k > KindInvalid && k < kindSentinel }

// Record is one WAL entry. The protocol payloads (signed proposals,
// votes, checkpoint proofs) stay opaque bytes here so the storage layer
// depends on nothing above the crypto primitives.
type Record struct {
	Kind    Kind
	Seq     uint64
	View    uint64
	Mode    uint8
	Digest  crypto.Digest
	Payload []byte
}

// maxPayload bounds a decoded payload, mirroring the wire codec's
// hostile-input cap: a corrupt length prefix must not allocate
// gigabytes.
const maxPayload = 64 << 20

// encode appends the record's canonical encoding to buf.
func (r *Record) encode(buf []byte) []byte {
	buf = append(buf, byte(r.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, r.View)
	buf = append(buf, r.Mode)
	buf = append(buf, r.Digest[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Payload)))
	buf = append(buf, r.Payload...)
	return buf
}

// decodeRecord parses one record body (the CRC-verified frame payload).
func decodeRecord(b []byte) (Record, error) {
	var r Record
	const fixed = 1 + 8 + 8 + 1 + crypto.DigestSize + 4
	if len(b) < fixed {
		return r, errors.New("storage: short record")
	}
	r.Kind = Kind(b[0])
	if !r.Kind.Valid() {
		return r, fmt.Errorf("storage: invalid record kind %d", b[0])
	}
	r.Seq = binary.LittleEndian.Uint64(b[1:])
	r.View = binary.LittleEndian.Uint64(b[9:])
	r.Mode = b[17]
	copy(r.Digest[:], b[18:])
	n := binary.LittleEndian.Uint32(b[18+crypto.DigestSize:])
	if n > maxPayload || int(n) != len(b)-fixed {
		return r, fmt.Errorf("storage: record payload length %d does not match frame", n)
	}
	if n > 0 {
		r.Payload = append([]byte(nil), b[fixed:]...)
	}
	return r, nil
}

// Snapshot is a persisted stable checkpoint: the composite state bytes
// at sequence number Seq, the state digest the protocol agreed on, and
// the encoded stability proof ξ (opaque to storage; the engines encode
// it with the message codec).
type Snapshot struct {
	Seq    uint64
	Digest crypto.Digest
	Proof  []byte
	Data   []byte
}

// Store is the durability interface the consensus engines write
// through. Implementations must be safe for use from a single engine
// goroutine; Close may race with nothing.
type Store interface {
	// Append adds one record to the log; it will be replayed after every
	// record appended before it. The record survives a process crash
	// only once a later Sync returns nil (or Close does): until then it
	// may vanish, together with every record appended after it. Append
	// does not retain rec.Payload: the caller may reuse it once Append
	// returns.
	Append(rec Record) error
	// Sync makes every earlier Append durable (subject to the
	// implementation's fsync batching policy, which may leave the most
	// recent appends exposed to a power failure, never to a process
	// crash). An error is sticky: the store cannot vouch for those
	// appends any more, and every later Append and Sync reports it too.
	Sync() error
	// Replay streams every surviving record in append order. It is
	// called once, before the engine starts.
	Replay(fn func(rec Record) error) error
	// SaveSnapshot atomically persists a stable checkpoint snapshot and
	// discards older ones.
	SaveSnapshot(snap Snapshot) error
	// LatestSnapshot returns the newest intact snapshot, or nil when
	// none exists.
	LatestSnapshot() (*Snapshot, error)
	// Truncate garbage-collects log history: epoch records (the current
	// view and stable checkpoint, supplied by the engine) become the
	// head of a fresh segment, and any segment whose records all have
	// Seq ≤ seq is deleted. Records above seq survive.
	Truncate(seq uint64, epoch []Record) error
	// Close syncs and releases the store.
	Close() error
}
