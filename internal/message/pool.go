package message

import (
	"sync"

	"repro/internal/crypto"
)

// Pooled zero-allocation encoding. Marshal allocates a fresh slice per
// frame, which on the consensus hot path means one garbage buffer per
// protocol message per destination. Encode instead borrows a size-classed
// pooled buffer: the caller hands Bytes() to the transport, then calls
// Release once the transport returns. Endpoint.Send is contractually
// forbidden from retaining the frame (see transport.Endpoint), so the
// buffer is free for reuse the moment the send call returns, and
// steady-state encoding settles at zero allocations per frame.

// Frame is a pooled encode buffer holding one wire frame.
type Frame struct {
	buf   []byte
	class int8 // index into framePools; -1 for oversized unpooled frames
}

// Bytes returns the encoded frame. The slice is only valid until Release.
func (f *Frame) Bytes() []byte { return f.buf }

// Release returns the frame's buffer to its pool. The frame and any slice
// previously obtained from Bytes must not be used afterwards; reuse would
// alias a future frame's bytes (FuzzDecode exercises exactly this hazard).
// Release on a nil frame is a no-op.
func (f *Frame) Release() {
	if f == nil || f.class < 0 {
		return
	}
	f.buf = f.buf[:0]
	framePools[f.class].Put(f)
}

// frameClasses are the pooled capacity tiers. Vote-sized frames (~100 B)
// land in the first class; a full MaxBatch of small requests still fits
// the last. Anything larger is allocated exactly and not pooled, so one
// huge state-transfer frame cannot pin megabytes in every pool slot.
var frameClasses = [...]int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10}

var framePools [len(frameClasses)]sync.Pool

func init() {
	for i := range framePools {
		c := frameClasses[i]
		i8 := int8(i)
		framePools[i].New = func() any {
			return &Frame{buf: make([]byte, 0, c), class: i8}
		}
	}
}

// frameFor returns a frame with at least size bytes of capacity.
func frameFor(size int) *Frame {
	for i, c := range frameClasses {
		if size <= c {
			return framePools[i].Get().(*Frame)
		}
	}
	return &Frame{buf: make([]byte, 0, size), class: -1}
}

// Encode encodes m into a pooled frame sized by EncodedSize. The caller
// must Release the frame after the transport send returns.
func Encode(m *Message) *Frame {
	f := frameFor(m.EncodedSize())
	f.buf = m.AppendTo(f.buf[:0])
	return f
}

// EncodeSigned encodes one standalone Signed record (the MarshalSigned
// format) into a pooled frame; the journal uses this to stage WAL payloads
// without a per-append garbage buffer.
func EncodeSigned(s *Signed) *Frame {
	f := frameFor(s.EncodedSize())
	f.buf = s.AppendTo(f.buf[:0])
	return f
}

// ---------------------------------------------------------------------------
// Exact encoded sizes, mirroring the encoder methods field for field so
// AppendTo never regrows a right-sized buffer.

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
