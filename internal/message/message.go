package message

import (
	"fmt"

	"repro/internal/crypto"
	"repro/internal/ids"
)

// Kind discriminates message types. The names follow the paper's
// vocabulary (Sections 5.1–5.4); PrePrepare exists for the Peacock mode
// and the PBFT baseline.
type Kind uint8

const (
	// KindInvalid is the zero Kind; it never appears on the wire.
	KindInvalid Kind = iota
	// KindRequest is a client's 〈REQUEST, op, ts, ς〉σς.
	KindRequest
	// KindPrePrepare is PBFT's/Peacock's 〈PRE-PREPARE, v, n, d〉σp with µ.
	KindPrePrepare
	// KindPrepare is 〈PREPARE, v, n, d〉σp (Lion/Dog: primary → all, with
	// µ attached; PBFT/Peacock: replica → replicas, digest only).
	KindPrepare
	// KindAccept is 〈ACCEPT, v, n, d, r〉 (Lion: backup → primary; Dog:
	// proxy → proxies), tagged for its receivers.
	KindAccept
	// KindCommit is 〈COMMIT, v, n, d〉 (Lion: primary → all with µ, signed
	// — the commit certificate; Dog/Peacock/PBFT: participant →
	// participants, a tagged vote).
	KindCommit
	// KindInform is 〈INFORM, v, n, d, r〉 from proxies to passive nodes
	// (Dog and Peacock), tagged for its receivers.
	KindInform
	// KindReply is 〈REPLY, π, v, ts, u〉 back to the client, tagged for it.
	KindReply
	// KindCheckpoint is 〈CHECKPOINT, n, d〉σr.
	KindCheckpoint
	// KindViewChange is 〈VIEW-CHANGE, v+1, n, ξ, P, C〉.
	KindViewChange
	// KindNewView is 〈NEW-VIEW, v+1, P′, C′〉σp′.
	KindNewView
	// KindModeChange is 〈MODE-CHANGE, v+1, π′〉σs (Section 5.4).
	KindModeChange
	// KindStateRequest asks a peer for the snapshot behind its last
	// stable checkpoint (the "bring slow replicas up to date" path of the
	// paper's State Transfer subsections).
	KindStateRequest
	// KindStateReply carries a stable checkpoint's snapshot (in Result)
	// together with its sequence number, state digest and proof.
	KindStateReply
	// KindRead is a client read that asks to bypass consensus ordering:
	// a leased linearizable read served locally by a primary holding a
	// quorum-acknowledged lease, or a bounded-staleness read served by
	// any replica from its executed prefix. The envelope carries the
	// read Request plus a Consistency level; replies stamp Watermark.
	KindRead
	kindSentinel // keep last
)

var kindNames = [...]string{
	KindInvalid:      "INVALID",
	KindRequest:      "REQUEST",
	KindPrePrepare:   "PRE-PREPARE",
	KindPrepare:      "PREPARE",
	KindAccept:       "ACCEPT",
	KindCommit:       "COMMIT",
	KindInform:       "INFORM",
	KindReply:        "REPLY",
	KindCheckpoint:   "CHECKPOINT",
	KindViewChange:   "VIEW-CHANGE",
	KindNewView:      "NEW-VIEW",
	KindModeChange:   "MODE-CHANGE",
	KindStateRequest: "STATE-REQUEST",
	KindStateReply:   "STATE-REPLY",
	KindRead:         "READ",
}

// Consistency selects how a read is served. It rides on KindRead
// requests and is echoed in their replies.
type Consistency uint8

const (
	// ConsistencyLinearizable orders the read through consensus like any
	// write — the default, and the only level baseline protocols serve.
	ConsistencyLinearizable Consistency = iota
	// ConsistencyLeased asks the trusted-mode primary to serve the read
	// locally under a quorum-acknowledged leader lease, after waiting
	// out its executor watermark. Still linearizable; a replica without
	// a valid lease falls back to consensus ordering.
	ConsistencyLeased
	// ConsistencyStale lets any replica answer from its executed prefix
	// with no coordination; the reply's Watermark lets the client
	// enforce its staleness bound and its own read-your-writes floor.
	ConsistencyStale
	consistencySentinel // keep last
)

// Valid reports whether c is a defined consistency level.
func (c Consistency) Valid() bool { return c < consistencySentinel }

var consistencyNames = [...]string{
	ConsistencyLinearizable: "linearizable",
	ConsistencyLeased:       "leased",
	ConsistencyStale:        "stale",
}

// String implements fmt.Stringer.
func (c Consistency) String() string {
	if c.Valid() {
		return consistencyNames[c]
	}
	return fmt.Sprintf("Consistency(%d)", uint8(c))
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) && k != KindInvalid {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is a defined wire kind.
func (k Kind) Valid() bool { return k > KindInvalid && k < kindSentinel }

// Request is µ, a client operation. The digest D(µ) used throughout the
// protocols is the digest of the request's canonical encoding.
type Request struct {
	// Op is the opaque state-machine operation.
	Op []byte
	// Timestamp is the client's monotonically increasing timestamp tsς,
	// used for total ordering of one client's requests and exactly-once
	// execution (Section 5.1).
	Timestamp uint64
	// Client is ς.
	Client ids.ClientID
	// Sig is σς over the canonical encoding of (Op, Timestamp, Client).
	Sig []byte
	// Auth is the client's authenticator from the frame the client sent
	// (AuthenticateRequest), which a Peacock primary keeps on the request
	// it admits and forwards in its PRE-PREPARE. It is no part of µ: no
	// signature, digest, Equal or record covers it, and only a
	// PRE-PREPARE frame carries it, behind the wrapper's Sig.
	Auth []byte
}

// SignedBytes returns the bytes a client signature covers.
func (r *Request) SignedBytes() []byte {
	return r.appendSignedBytes(make([]byte, 0, sizeBytes(r.Op)+8+8))
}

func (r *Request) appendSignedBytes(buf []byte) []byte {
	e := encoder{buf: buf}
	e.bytes(r.Op)
	e.u64(r.Timestamp)
	e.i64(int64(r.Client))
	return e.buf
}

// Digest returns D(µ): the digest of the request including its
// signature, so that two requests with identical payloads from the same
// client remain distinguishable only by timestamp, as the paper requires
// for exactly-once semantics. The digested bytes are µ's encoding as a
// one-member payload (MarshalRequest).
func (r *Request) Digest() crypto.Digest {
	e := encoder{buf: make([]byte, 0, 1+sizeRequest(r))}
	e.payload([]*Request{r})
	return crypto.Sum(e.buf)
}

// Equal reports deep equality of two requests.
func (r *Request) Equal(o *Request) bool {
	if r == nil || o == nil {
		return r == o
	}
	return r.Timestamp == o.Timestamp && r.Client == o.Client &&
		string(r.Op) == string(o.Op) && string(r.Sig) == string(o.Sig)
}

// MaxBatch caps how many requests one proposal may carry. It bounds both
// the primary's batching knob and what a decoder will accept from a
// hostile peer.
const MaxBatch = 4096

// BatchDigest returns the digest binding a proposal to its request set.
// A one-member set digests to exactly D(µ); larger sets hash the ordered
// list of member digests under a domain-separation tag.
func BatchDigest(reqs []*Request) crypto.Digest {
	if len(reqs) == 1 {
		return reqs[0].Digest()
	}
	e := encoder{buf: make([]byte, 0, 1+4+crypto.DigestSize*len(reqs))}
	e.u8('B') // domain separation from single-request digests
	e.u32(uint32(len(reqs)))
	for _, r := range reqs {
		d := r.Digest()
		e.digest(d)
	}
	return crypto.Sum(e.buf)
}

func payloadEqual(a, b []*Request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// Signed is a compact record of a previously sent signed protocol message
// (a prepare, commit, or checkpoint). View changes carry sets of these as
// evidence (the paper's P, C, and ξ), and NEW-VIEW messages carry the
// reconstructed P′ and C′ — those entries may attach the slot's requests.
type Signed struct {
	Kind   Kind
	From   ids.ReplicaID
	View   ids.View
	Seq    uint64
	Digest crypto.Digest
	// Payload is the slot's ordered request set where the protocol
	// attaches it (0 to MaxBatch members). Digest covers the set via
	// BatchDigest.
	Payload []*Request
	Sig     []byte
}

// Requests returns the slot payload, or nil when the record carries none.
func (s *Signed) Requests() []*Request { return s.Payload }

// Wire builds the wire message for a Signed record.
func (s *Signed) Wire() *Message {
	return &Message{
		Kind: s.Kind, From: s.From, View: s.View, Seq: s.Seq,
		Digest: s.Digest, Payload: s.Payload, Sig: s.Sig,
	}
}

// Record reconstructs the Signed evidence record carried by an agreement
// wire message. Agreement messages (PREPARE, PRE-PREPARE, ACCEPT, COMMIT,
// INFORM, CHECKPOINT) are authenticated over the Signed tuple (Kind,
// From, View, Seq, Digest): where the kind is signed, the very same
// signature serves both the wire and later view-change evidence,
// mirroring the paper's "signed ... as a proof of receiving the message"
// usage; where it is tagged, Sig holds the authenticator instead (see
// SetTag).
func (m *Message) Record() *Signed {
	return &Signed{
		Kind: m.Kind, From: m.From, View: m.View, Seq: m.Seq,
		Digest: m.Digest, Payload: m.Payload, Sig: m.Sig,
	}
}

// SignedBytes returns the bytes the signature covers: the tuple
// (Kind, From, View, Seq, Digest) — the request µ travels outside the
// signature, bound by Digest, exactly as in the paper's 〈〈PREPARE,v,n,d〉σp, µ〉.
func (s *Signed) SignedBytes() []byte {
	return s.AppendSignedBytes(make([]byte, 0, SignedBytesSize))
}

// SignedBytesSize is the length of the signed tuple.
const SignedBytesSize = 1 + 8 + 8 + 8 + crypto.DigestSize

// AppendSignedBytes appends the signed tuple to buf, so a caller
// checking many records can lay their tuples out in one buffer.
func (s *Signed) AppendSignedBytes(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u8(uint8(s.Kind))
	e.i64(int64(s.From))
	e.u64(uint64(s.View))
	e.u64(s.Seq)
	e.digest(s.Digest)
	return e.buf
}

// Message is the single wire envelope for every protocol message other
// than the bare client Request (which also travels wrapped in a Message
// of KindRequest for uniform transport handling).
type Message struct {
	Kind Kind
	// From is the sending replica, or -1 when the sender is a client
	// (KindRequest retransmissions).
	From ids.ReplicaID
	View ids.View
	Seq  uint64
	// Digest is d = D(µ) for agreement messages.
	Digest crypto.Digest
	// Mode is π, carried by REPLY (so clients can track the current
	// mode, Section 5.1) and MODE-CHANGE (the new mode π′, Section 5.4).
	Mode ids.Mode
	// Payload is the request set the message carries: exactly µ on a
	// REQUEST or READ, the slot's ordered batch (0 to MaxBatch members)
	// where the protocol attaches it (Lion/Dog PREPARE, Lion COMMIT,
	// Peacock PRE-PREPARE). Digest binds a slot's set via BatchDigest.
	Payload []*Request
	// Result is u, the execution result in a REPLY.
	Result []byte
	// Timestamp is tsς echoed in a REPLY.
	Timestamp uint64
	// Client is ς for REPLY routing.
	Client ids.ClientID
	// StateDigest is the checkpoint state digest (CHECKPOINT d).
	StateDigest crypto.Digest
	// ActiveView is, in a Dog-mode VIEW-CHANGE, the sender's last active
	// view (the latest view with a non-faulty primary it participated
	// in). Section 5.2 requires the new primary to collect view-change
	// messages from the proxies of the last active view.
	ActiveView ids.View
	// Consistency is the requested read level on a READ and is echoed in
	// the reply so clients can tell fast-path replies from ordered ones.
	Consistency Consistency
	// Watermark is the replying replica's last-executed sequence number,
	// stamped on read replies. Clients use it to bound staleness and to
	// keep their own reads monotonic.
	Watermark uint64
	// CheckpointProof is ξ, the checkpoint certificate carried by a
	// VIEW-CHANGE: the signed CHECKPOINT message(s) proving stability.
	CheckpointProof []Signed
	// Prepares is P (VIEW-CHANGE) or P′ (NEW-VIEW).
	Prepares []Signed
	// Commits is C (VIEW-CHANGE) or C′ (NEW-VIEW).
	Commits []Signed
	// Sig authenticates the message as its kind requires: the sender's
	// signature (over SignedBytes, or over the Record tuple for agreement
	// kinds), or — for kinds only their receiver reads — its pairwise
	// tags (see SetTag). Empty where the kind carries neither.
	Sig []byte
}

// Requests returns the message payload, or nil when it carries none.
func (m *Message) Requests() []*Request { return m.Payload }

// SignedBytes returns the canonical bytes covered by Sig. Variable-size
// payloads (result, evidence sets) are bound by digest so the signature
// input stays small and unambiguous; the full payloads travel alongside.
func (m *Message) SignedBytes() []byte {
	// Fixed shape: every variable-size field enters as a 32-byte digest.
	const size = 1 + 8 + 8 + 8 + 1 + 1 + 8 + 8 + 8 + 8 + 6*crypto.DigestSize
	e := encoder{buf: make([]byte, 0, size)}
	e.u8(uint8(m.Kind))
	e.i64(int64(m.From))
	e.u64(uint64(m.View))
	e.u64(m.Seq)
	e.digest(m.Digest)
	e.u8(uint8(m.Mode))
	e.u64(m.Timestamp)
	e.i64(int64(m.Client))
	e.digest(m.StateDigest)
	e.u64(uint64(m.ActiveView))
	e.digest(crypto.Sum(m.Result))
	e.u8(uint8(m.Consistency))
	e.u64(m.Watermark)
	e.digest(digestSigned(m.CheckpointProof))
	e.digest(digestSigned(m.Prepares))
	e.digest(digestSigned(m.Commits))
	return e.buf
}

func digestSigned(set []Signed) crypto.Digest {
	if len(set) == 0 {
		return crypto.Digest{}
	}
	e := encoder{buf: make([]byte, 0, sizeSignedSet(set))}
	e.signedSet(set)
	return crypto.Sum(e.buf)
}

// String renders a short human-readable form for logs and tests.
func (m *Message) String() string {
	return fmt.Sprintf("%s{from=%d v=%d n=%d d=%s}", m.Kind, m.From, m.View, m.Seq, m.Digest)
}

// Validate performs kind-specific structural checks. It does not verify
// signatures (the replica does that with its crypto.Suite); it rejects
// messages whose shape cannot be processed.
func (m *Message) Validate() error {
	if !m.Kind.Valid() {
		return fmt.Errorf("message: invalid kind %d", uint8(m.Kind))
	}
	if len(m.Payload) > MaxBatch {
		return fmt.Errorf("message: batch of %d exceeds limit %d", len(m.Payload), MaxBatch)
	}
	for _, r := range m.Payload {
		if r == nil {
			return fmt.Errorf("message: %s batch with nil request", m.Kind)
		}
	}
	switch m.Kind {
	case KindRequest:
		if len(m.Payload) != 1 {
			return fmt.Errorf("message: REQUEST carries %d requests, want 1", len(m.Payload))
		}
	case KindPrePrepare, KindPrepare:
		if m.From < 0 {
			return fmt.Errorf("message: %s without sender", m.Kind)
		}
		// Lion/Dog prepare and Peacock pre-prepare carry µ; PBFT-style
		// inner prepares do not. Both shapes are legal here; protocols
		// enforce their own expectations.
	case KindAccept, KindInform:
		if m.From < 0 {
			return fmt.Errorf("message: %s without sender", m.Kind)
		}
	case KindCommit:
		if m.From < 0 {
			return fmt.Errorf("message: COMMIT without sender")
		}
	case KindReply:
		if m.Client < 0 {
			return fmt.Errorf("message: REPLY without client")
		}
		if !m.Mode.Valid() {
			return fmt.Errorf("message: REPLY with invalid mode %d", int(m.Mode))
		}
	case KindCheckpoint:
		if m.From < 0 {
			return fmt.Errorf("message: CHECKPOINT without sender")
		}
	case KindViewChange:
		if m.From < 0 {
			return fmt.Errorf("message: VIEW-CHANGE without sender")
		}
		if m.View == 0 {
			return fmt.Errorf("message: VIEW-CHANGE into view 0")
		}
	case KindNewView:
		if m.From < 0 {
			return fmt.Errorf("message: NEW-VIEW without sender")
		}
		if m.View == 0 {
			return fmt.Errorf("message: NEW-VIEW for view 0")
		}
	case KindModeChange:
		if m.From < 0 {
			return fmt.Errorf("message: MODE-CHANGE without sender")
		}
		if !m.Mode.Valid() {
			return fmt.Errorf("message: MODE-CHANGE to invalid mode %d", int(m.Mode))
		}
	case KindStateRequest, KindStateReply:
		if m.From < 0 {
			return fmt.Errorf("message: %s without sender", m.Kind)
		}
	case KindRead:
		if len(m.Payload) != 1 {
			return fmt.Errorf("message: READ carries %d requests, want 1", len(m.Payload))
		}
		if !m.Consistency.Valid() {
			return fmt.Errorf("message: READ with invalid consistency %d", uint8(m.Consistency))
		}
	}
	return nil
}

// Equal reports deep equality; used by tests and duplicate suppression.
func (m *Message) Equal(o *Message) bool {
	if m == nil || o == nil {
		return m == o
	}
	if m.Kind != o.Kind || m.From != o.From || m.View != o.View ||
		m.Seq != o.Seq || m.Digest != o.Digest || m.Mode != o.Mode ||
		m.Timestamp != o.Timestamp || m.Client != o.Client ||
		m.StateDigest != o.StateDigest || m.ActiveView != o.ActiveView ||
		m.Consistency != o.Consistency || m.Watermark != o.Watermark ||
		string(m.Result) != string(o.Result) ||
		string(m.Sig) != string(o.Sig) ||
		!payloadEqual(m.Payload, o.Payload) ||
		m.Kind == KindPrePrepare && !authsEqual(m.Payload, o.Payload) {
		return false
	}
	return signedSetEqual(m.CheckpointProof, o.CheckpointProof) &&
		signedSetEqual(m.Prepares, o.Prepares) &&
		signedSetEqual(m.Commits, o.Commits)
}

// authsEqual compares the client authenticators two equal payloads
// carry, which a PRE-PREPARE frame forwards.
func authsEqual(a, b []*Request) bool {
	for i := range a {
		if string(a[i].Auth) != string(b[i].Auth) {
			return false
		}
	}
	return true
}

func signedSetEqual(a, b []Signed) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].From != b[i].From ||
			a[i].View != b[i].View || a[i].Seq != b[i].Seq ||
			a[i].Digest != b[i].Digest ||
			string(a[i].Sig) != string(b[i].Sig) ||
			!payloadEqual(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}
