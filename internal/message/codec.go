package message

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/crypto"
	"repro/internal/ids"
)

// Wire format
//
// Every value is encoded deterministically:
//
//	u8           one byte
//	u64 / i64    8 bytes little-endian (i64 two's complement)
//	bytes        u32 length prefix + raw bytes
//	digest       32 raw bytes
//	request      presence byte (0/1) + Op + Timestamp + Client + Sig
//	payload      presence byte 0 (none), 1 (one request), or 2 (batch:
//	             u32 count + that many request records) — so unbatched
//	             frames are byte-identical to the pre-batching format
//	signed       Kind + From + View + Seq + Digest + payload + Sig
//	signedSet    u32 count + that many signed records
//	auths        u32 count, equal to the payload's member count, + one
//	             bytes per member: its Request.Auth
//
// A Message is a fixed field sequence in declaration order, preceded by a
// one-byte format version so the wire can evolve. A PRE-PREPARE alone
// appends auths, the client authenticators its primary forwards, behind
// Sig; every other kind's frame, and every signed record, ends at Sig.

const wireVersion = 1

// maxSliceLen caps every decoded length prefix to keep a malicious peer
// from making us allocate gigabytes from a tiny frame (the Section 3
// adversary controls public-cloud nodes, so decode paths must be hostile-
// input safe).
const maxSliceLen = 64 << 20

// ErrTruncated is returned when a frame ends before the structure does.
var ErrTruncated = errors.New("message: truncated frame")

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }

func (e *encoder) u64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

func (e *encoder) i64(v int64) { e.u64(uint64(v)) }

func (e *encoder) u32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *encoder) digest(d crypto.Digest) { e.buf = append(e.buf, d[:]...) }

func (e *encoder) request(r *Request) {
	if r == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.bytes(r.Op)
	e.u64(r.Timestamp)
	e.i64(int64(r.Client))
	e.bytes(r.Sig)
}

// payload encodes the Request/Batch pair occupying one proposal slot.
// Batches use presence byte 2 so every non-batched message keeps the
// exact byte layout of the pre-batching wire format.
func (e *encoder) payload(r *Request, batch []*Request) {
	if len(batch) == 0 {
		e.request(r)
		return
	}
	e.u8(2)
	e.u32(uint32(len(batch)))
	for _, br := range batch {
		e.request(br)
	}
}

func (e *encoder) signed(s *Signed) {
	e.u8(uint8(s.Kind))
	e.i64(int64(s.From))
	e.u64(uint64(s.View))
	e.u64(s.Seq)
	e.digest(s.Digest)
	e.payload(s.Request, s.Batch)
	e.bytes(s.Sig)
}

func (e *encoder) auths(reqs []*Request) {
	e.u32(uint32(len(reqs)))
	for _, r := range reqs {
		e.bytes(r.Auth)
	}
}

func (e *encoder) signedSet(set []Signed) {
	e.u32(uint32(len(set)))
	for i := range set {
		e.signed(&set[i])
	}
}

// Exact encoded sizes, mirroring the encoder methods field for field so
// Marshal allocates each frame once, at its final length.

func sizeBytes(b []byte) int { return 4 + len(b) }

func sizeRequest(r *Request) int {
	if r == nil {
		return 1
	}
	return 1 + sizeBytes(r.Op) + 8 + 8 + sizeBytes(r.Sig)
}

func sizePayload(r *Request, batch []*Request) int {
	if len(batch) == 0 {
		return sizeRequest(r)
	}
	n := 1 + 4
	for _, br := range batch {
		n += sizeRequest(br)
	}
	return n
}

// EncodedSize returns the exact length of s's standalone encoding.
func (s *Signed) EncodedSize() int {
	return 1 + 8 + 8 + 8 + crypto.DigestSize + sizePayload(s.Request, s.Batch) + sizeBytes(s.Sig)
}

func sizeSignedSet(set []Signed) int {
	n := 4
	for i := range set {
		n += set[i].EncodedSize()
	}
	return n
}

// EncodedSize returns the exact length of Marshal(m).
func (m *Message) EncodedSize() int {
	return 1 + // wire version
		1 + 8 + 8 + 8 + crypto.DigestSize + 1 + // Kind..Mode
		sizePayload(m.Request, m.Batch) +
		sizeBytes(m.Result) +
		8 + 8 + crypto.DigestSize + 8 + 1 + 8 + 8 + // Timestamp..Epoch
		sizeSignedSet(m.CheckpointProof) +
		sizeSignedSet(m.Prepares) +
		sizeSignedSet(m.Commits) +
		sizeBytes(m.Sig) +
		sizeAuths(m)
}

// sizeAuths is the length of the client authenticators m forwards: a
// PRE-PREPARE's, nothing for any other kind.
func sizeAuths(m *Message) int {
	if m.Kind != KindPrePrepare {
		return 0
	}
	n := 4
	for _, r := range m.Requests() {
		n += sizeBytes(r.Auth)
	}
	return n
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.buf) {
		d.fail(ErrTruncated)
		return false
	}
	return true
}

func (d *decoder) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i64() int64 { return int64(d.u64()) }

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n > maxSliceLen {
		d.fail(fmt.Errorf("message: slice length %d exceeds limit", n))
		return nil
	}
	if !d.need(n) {
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += n
	return out
}

func (d *decoder) digest() crypto.Digest {
	var out crypto.Digest
	if !d.need(crypto.DigestSize) {
		return out
	}
	copy(out[:], d.buf[d.off:])
	d.off += crypto.DigestSize
	return out
}

func (d *decoder) request() *Request {
	switch d.u8() {
	case 0:
		return nil
	case 1:
		return d.requestBody()
	default:
		d.fail(errors.New("message: invalid request presence byte"))
		return nil
	}
}

func (d *decoder) requestBody() *Request {
	r := &Request{}
	d.requestBodyInto(r)
	return r
}

func (d *decoder) requestBodyInto(r *Request) {
	r.Op = d.bytes()
	r.Timestamp = d.u64()
	r.Client = ids.ClientID(d.i64())
	r.Sig = d.bytes()
}

// payload decodes the request/batch slot written by encoder.payload.
func (d *decoder) payload() (*Request, []*Request) {
	switch d.u8() {
	case 0:
		return nil, nil
	case 1:
		return d.requestBody(), nil
	case 2:
		n := int(d.u32())
		if d.err != nil {
			return nil, nil
		}
		// Each batched request occupies at least 25 bytes on the wire
		// (presence + op length + timestamp + client + sig length); bound
		// the count by the frame before allocating, then by the protocol
		// limit.
		if n > len(d.buf)/25+1 || n > MaxBatch {
			d.fail(fmt.Errorf("message: batch count %d exceeds limit", n))
			return nil, nil
		}
		if n < 2 {
			d.fail(errors.New("message: batch must carry at least two requests"))
			return nil, nil
		}
		// The count is already bounded by the frame size, so pre-size the
		// whole batch: one backing array for the Request structs instead of
		// one allocation per request.
		backing := make([]Request, n)
		out := make([]*Request, n)
		for i := 0; i < n; i++ {
			switch d.u8() {
			case 1:
			case 0:
				d.fail(errors.New("message: nil request inside batch"))
				return nil, nil
			default:
				d.fail(errors.New("message: invalid request presence byte"))
				return nil, nil
			}
			d.requestBodyInto(&backing[i])
			if d.err != nil {
				return nil, nil
			}
			out[i] = &backing[i]
		}
		return nil, out
	default:
		d.fail(errors.New("message: invalid payload presence byte"))
		return nil, nil
	}
}

func (d *decoder) signed() Signed {
	var s Signed
	s.Kind = Kind(d.u8())
	s.From = ids.ReplicaID(d.i64())
	s.View = ids.View(d.u64())
	s.Seq = d.u64()
	s.Digest = d.digest()
	s.Request, s.Batch = d.payload()
	s.Sig = d.bytes()
	return s
}

// auths decodes the client authenticators a PRE-PREPARE forwards into
// its payload's members; there must be exactly one per member.
func (d *decoder) auths(reqs []*Request) {
	n := d.u32()
	if d.err != nil {
		return
	}
	if int(n) != len(reqs) {
		d.fail(fmt.Errorf("message: %d client authenticators for %d requests", n, len(reqs)))
		return
	}
	for _, r := range reqs {
		r.Auth = d.bytes()
	}
}

func (d *decoder) signedSet() []Signed {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	// Each signed record occupies at least 58 bytes on the wire; bound
	// the count by what the frame could possibly hold.
	if n > len(d.buf)/58+1 {
		d.fail(fmt.Errorf("message: signed-set count %d exceeds frame capacity", n))
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]Signed, n)
	for i := range out {
		out[i] = d.signed()
	}
	return out
}

func (e *encoder) message(m *Message) {
	e.u8(wireVersion)
	e.u8(uint8(m.Kind))
	e.i64(int64(m.From))
	e.u64(uint64(m.View))
	e.u64(m.Seq)
	e.digest(m.Digest)
	e.u8(uint8(m.Mode))
	e.payload(m.Request, m.Batch)
	e.bytes(m.Result)
	e.u64(m.Timestamp)
	e.i64(int64(m.Client))
	e.digest(m.StateDigest)
	e.u64(uint64(m.ActiveView))
	e.u8(uint8(m.Consistency))
	e.u64(m.Watermark)
	e.u64(m.Epoch)
	e.signedSet(m.CheckpointProof)
	e.signedSet(m.Prepares)
	e.signedSet(m.Commits)
	e.bytes(m.Sig)
	if m.Kind == KindPrePrepare {
		e.auths(m.Requests())
	}
}

// Marshal encodes m into a fresh byte slice sized exactly by EncodedSize,
// so the encoder never regrows mid-message: one allocation per frame.
// The frame is immutable once built — a multicast hands the same slice
// to every destination, and Endpoint.Send may keep it.
func Marshal(m *Message) []byte {
	e := encoder{buf: make([]byte, 0, m.EncodedSize())}
	e.message(m)
	return e.buf
}

// Unmarshal decodes a frame produced by Marshal. It never panics on
// hostile input; malformed frames return an error.
func Unmarshal(frame []byte) (*Message, error) {
	d := decoder{buf: frame}
	if v := d.u8(); d.err == nil && v != wireVersion {
		return nil, fmt.Errorf("message: unsupported wire version %d", v)
	}
	m := &Message{}
	m.Kind = Kind(d.u8())
	m.From = ids.ReplicaID(d.i64())
	m.View = ids.View(d.u64())
	m.Seq = d.u64()
	m.Digest = d.digest()
	m.Mode = ids.Mode(d.u8())
	m.Request, m.Batch = d.payload()
	m.Result = d.bytes()
	m.Timestamp = d.u64()
	m.Client = ids.ClientID(d.i64())
	m.StateDigest = d.digest()
	m.ActiveView = ids.View(d.u64())
	m.Consistency = Consistency(d.u8())
	m.Watermark = d.u64()
	m.Epoch = d.u64()
	m.CheckpointProof = d.signedSet()
	m.Prepares = d.signedSet()
	m.Commits = d.signedSet()
	m.Sig = d.bytes()
	if m.Kind == KindPrePrepare {
		d.auths(m.Requests())
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(frame) {
		return nil, fmt.Errorf("message: %d trailing bytes", len(frame)-d.off)
	}
	return m, nil
}

// MarshalSigned encodes one Signed record standalone — the WAL and the
// snapshot store persist proposals, votes and checkpoint proofs with the
// same deterministic encoding the wire uses.
func MarshalSigned(s *Signed) []byte {
	return s.AppendTo(make([]byte, 0, s.EncodedSize()))
}

// AppendTo appends the standalone encoding of s (the MarshalSigned
// format) to dst and returns the extended slice, growing dst only if its
// capacity is short of EncodedSize: a caller that owns a reusable buffer
// (the replica journal) stages records without allocating.
func (s *Signed) AppendTo(dst []byte) []byte {
	e := encoder{buf: dst}
	e.signed(s)
	return e.buf
}

// UnmarshalSigned decodes the output of MarshalSigned. It never panics
// on corrupt input.
func UnmarshalSigned(b []byte) (*Signed, error) {
	d := decoder{buf: b}
	s := d.signed()
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("message: %d trailing bytes", len(b)-d.off)
	}
	return &s, nil
}

// MarshalSignedSet encodes a set of Signed records (a checkpoint
// certificate ξ persisted next to its snapshot).
func MarshalSignedSet(set []Signed) []byte {
	e := encoder{buf: make([]byte, 0, sizeSignedSet(set))}
	e.signedSet(set)
	return e.buf
}

// UnmarshalSignedSet decodes the output of MarshalSignedSet.
func UnmarshalSignedSet(b []byte) ([]Signed, error) {
	d := decoder{buf: b}
	set := d.signedSet()
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("message: %d trailing bytes", len(b)-d.off)
	}
	return set, nil
}

// MarshalRequest encodes a bare request (used by D(µ) and client signing
// tests); the Message envelope embeds requests with the same encoding.
func MarshalRequest(r *Request) []byte {
	e := encoder{buf: make([]byte, 0, sizeRequest(r))}
	e.request(r)
	return e.buf
}

// UnmarshalRequest decodes the output of MarshalRequest.
func UnmarshalRequest(frame []byte) (*Request, error) {
	d := decoder{buf: frame}
	r := d.request()
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(frame) {
		return nil, fmt.Errorf("message: %d trailing bytes", len(frame)-d.off)
	}
	if r == nil {
		return nil, errors.New("message: frame encodes a nil request")
	}
	return r, nil
}
