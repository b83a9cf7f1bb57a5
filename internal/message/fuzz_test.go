package message

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/crypto"
	"repro/internal/ids"
)

// fuzzSeeds builds representative valid frames so the fuzzer starts
// from the interesting corners of the wire format: every payload shape
// (none, lone request, batch) and every variable-size evidence set.
func fuzzSeeds() [][]byte {
	seal := func(sigLen, slots int) []byte {
		sealed, _ := Seal(make([]byte, sigLen), slots)
		return sealed
	}
	req := &Request{Op: []byte("op-bytes"), Timestamp: 7, Client: 3, Sig: []byte("sig")}
	batch := []*Request{req, {Op: []byte("second"), Timestamp: 8, Client: 4, Sig: []byte("s2")}}
	forwarded := []*Request{
		{Op: []byte("op-bytes"), Timestamp: 7, Client: 3, Sig: []byte("sig"), Auth: make([]byte, 6*crypto.TagSize)},
		{Op: []byte("second"), Timestamp: 8, Client: 4, Sig: []byte("s2")},
	}
	prep := Signed{Kind: KindPrepare, From: 1, View: 2, Seq: 9, Digest: crypto.Sum([]byte("d")), Sig: []byte("ps")}
	var seeds [][]byte
	msgs := []*Message{
		{Kind: KindRequest, From: -1, Payload: []*Request{req}},
		{Kind: KindPrepare, From: 0, View: 1, Seq: 5, Digest: req.Digest(), Payload: []*Request{req}, Sig: []byte("x")},
		{Kind: KindPrepare, From: 0, View: 1, Seq: 6, Digest: BatchDigest(batch), Payload: batch, Sig: []byte("x")},
		{Kind: KindCommit, From: 0, View: 1, Seq: 5, Digest: req.Digest(), Sig: []byte("x")},
		{Kind: KindReply, From: 2, View: 1, Mode: ids.Lion, Timestamp: 7, Client: 3, Result: []byte("r"), Sig: []byte("x")},
		{Kind: KindCheckpoint, From: 2, Seq: 128, StateDigest: crypto.Sum([]byte("state")), Sig: []byte("x")},
		{
			Kind: KindViewChange, From: 2, View: 3, Seq: 128, ActiveView: 2,
			CheckpointProof: []Signed{prep}, Prepares: []Signed{prep}, Commits: []Signed{prep}, Sig: []byte("x"),
		},
		// Authenticators: whole slots, a short one, one with a ragged tail.
		{Kind: KindCommit, From: 3, View: 1, Seq: 5, Digest: req.Digest(), Sig: make([]byte, 6*crypto.TagSize)},
		{Kind: KindAccept, From: 3, View: 1, Seq: 5, Digest: req.Digest(), Sig: make([]byte, crypto.TagSize-1)},
		{Kind: KindInform, From: 3, View: 1, Seq: 5, Digest: req.Digest(), Sig: make([]byte, 2*crypto.TagSize+7)},
		// Seals: whole, with a ragged authenticator, cut inside the
		// signature, a length byte past the end, and no signature at all
		// (NoopSuite) in front of the authenticator.
		{Kind: KindPrepare, From: 0, View: 1, Seq: 5, Digest: req.Digest(), Payload: []*Request{req}, Sig: seal(64, 6)},
		{Kind: KindCommit, From: 0, View: 1, Seq: 5, Digest: req.Digest(), Payload: []*Request{req}, Sig: seal(32, 6)[:1+32+5*crypto.TagSize+9]},
		{Kind: KindPrepare, From: 0, View: 1, Seq: 6, Digest: BatchDigest(batch), Payload: batch, Sig: seal(64, 6)[:40]},
		{Kind: KindPrepare, From: 0, View: 1, Seq: 7, Digest: req.Digest(), Payload: []*Request{req}, Sig: append([]byte{0xff}, make([]byte, 64)...)},
		{Kind: KindCommit, From: 0, View: 1, Seq: 7, Digest: req.Digest(), Payload: []*Request{req}, Sig: seal(0, 6)},
		// A PRE-PREPARE forwarding its members' client authenticators,
		// one of them empty.
		{Kind: KindPrePrepare, From: 2, View: 1, Seq: 6, Digest: BatchDigest(forwarded), Payload: forwarded, Sig: seal(64, 6)},
		{Kind: KindStateRequest, From: 1, Seq: 40, Sig: []byte("x")},
		{Kind: KindStateReply, From: 2, Seq: 128, Result: []byte("snapshot"), CheckpointProof: []Signed{prep}, Prepares: []Signed{prep}, Sig: []byte("x")},
	}
	for _, m := range msgs {
		seeds = append(seeds, Marshal(m))
	}
	return seeds
}

// refusedFrame is a malformed frame a receiver must drop: Unmarshal
// refuses it, or where validate is set, it decodes and Validate does.
type refusedFrame struct {
	name     string
	frame    []byte
	validate bool
}

// refusedFrames builds one frame per payload refusal: a count that is not
// minimally encoded, one above MaxBatch, one the frame cannot hold, a
// REQUEST with zero or two members, and a frame of the previous wire
// version.
func refusedFrames() []refusedFrame {
	req := &Request{Op: []byte("op-bytes"), Timestamp: 7, Client: 3, Sig: []byte("sig")}
	pair := []*Request{req, {Op: []byte("second"), Timestamp: 8, Client: 4, Sig: []byte("s2")}}
	prep := Marshal(&Message{Kind: KindPrepare, From: 0, View: 1, Seq: 5, Digest: BatchDigest(pair), Payload: pair, Sig: []byte("x")})
	const at = 1 + 1 + 8 + 8 + 8 + crypto.DigestSize + 1 // the payload's count byte
	withCount := func(count ...byte) []byte {
		return append(append(bytes.Clone(prep[:at]), count...), prep[at+1:]...)
	}
	v2 := Marshal(&Message{Kind: KindRequest, From: -1, Payload: []*Request{req}})
	v2[0] = 2
	return []refusedFrame{
		{name: "count 2 in two bytes", frame: withCount(0x82, 0x00)},
		{name: "count 0 in two bytes", frame: withCount(0x80, 0x00)},
		{name: "count past 64 bits", frame: withCount(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)},
		{name: "count MaxBatch+1", frame: withCount(binary.AppendUvarint(nil, MaxBatch+1)...)},
		{name: "count past the frame", frame: withCount(binary.AppendUvarint(nil, MaxBatch)...)},
		{name: "count 3 for 2 members", frame: withCount(3)},
		{name: "version 2", frame: v2},
		{name: "REQUEST without a request", frame: Marshal(&Message{Kind: KindRequest, From: -1}), validate: true},
		{name: "REQUEST with two requests", frame: Marshal(&Message{Kind: KindRequest, From: -1, Payload: pair}), validate: true},
	}
}

// FuzzDecode hammers Unmarshal with arbitrary frames: it must never
// panic or over-allocate, and any frame it does accept must be
// structurally sound and survive a marshal round-trip byte-for-byte
// (the decoder accepts exactly the canonical encoding).
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	for _, c := range refusedFrames() {
		f.Add(c.frame)
	}
	f.Add([]byte{})
	f.Add([]byte{wireVersion})
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := Unmarshal(frame)
		if err != nil {
			return // rejected, as long as it didn't panic
		}
		// An accepted frame re-encodes to exactly the input: the wire
		// format has one canonical form, so decode∘encode is identity.
		out := Marshal(m)
		if !bytes.Equal(out, frame) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", frame, out)
		}
		// And the decoded message must survive a second round-trip into
		// an equal structure.
		m2, err := Unmarshal(out)
		if err != nil {
			t.Fatalf("re-decode of canonical frame failed: %v", err)
		}
		if !m.Equal(m2) {
			t.Fatalf("decoded messages differ across round-trip")
		}
		// Sig may be an authenticator of any length a hostile peer likes:
		// looking up a slot yields a whole tag or nothing, never a panic.
		for _, id := range []ids.ReplicaID{-1, 0, 1, 5, 1 << 40} {
			if tag := TagOf(m.Sig, id); tag != nil && len(tag) != crypto.TagSize {
				t.Fatalf("TagOf(%d bytes, %d) returned %d bytes", len(m.Sig), id, len(tag))
			}
		}
		// Likewise a seal: Sig opens into a signature and whole slots that
		// together are exactly Sig less its length byte, or not at all.
		if sig, auth, ok := OpenSeal(m.Sig); ok {
			if 1+len(sig)+len(auth) != len(m.Sig) || len(auth)%crypto.TagSize != 0 || int(m.Sig[0]) != len(sig) {
				t.Fatalf("OpenSeal(%d bytes) = %d-byte signature, %d-byte authenticator", len(m.Sig), len(sig), len(auth))
			}
			m.Record().SealedBytes(sig)
		} else if sig != nil || auth != nil {
			t.Fatalf("OpenSeal refused %d bytes yet returned parts of them", len(m.Sig))
		}
		// EncodedSize must be exact: Marshal sizes every frame by it.
		if m.EncodedSize() != len(frame) {
			t.Fatalf("EncodedSize %d != encoded length %d", m.EncodedSize(), len(frame))
		}
	})
}

// FuzzDecodeRequest covers the standalone request codec the same way.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(MarshalRequest(&Request{Op: []byte("op"), Timestamp: 1, Client: 0, Sig: []byte("s")}))
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, frame []byte) {
		r, err := UnmarshalRequest(frame)
		if err != nil {
			return
		}
		out := MarshalRequest(r)
		if !bytes.Equal(out, frame) {
			t.Fatalf("request round-trip mismatch:\n in  %x\n out %x", frame, out)
		}
	})
}
