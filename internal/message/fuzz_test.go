package message

import (
	"bytes"
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
	prep := Signed{Kind: KindPrepare, From: 1, View: 2, Seq: 9, Digest: crypto.Sum([]byte("d")), Sig: []byte("ps")}
	var seeds [][]byte
	msgs := []*Message{
		{Kind: KindRequest, From: -1, Request: req},
		{Kind: KindPrepare, From: 0, View: 1, Seq: 5, Digest: req.Digest(), Request: req, Sig: []byte("x")},
		{Kind: KindPrepare, From: 0, View: 1, Seq: 6, Digest: BatchDigest(batch), Batch: batch, Sig: []byte("x")},
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
		{Kind: KindPrepare, From: 0, View: 1, Seq: 5, Digest: req.Digest(), Request: req, Sig: seal(64, 6)},
		{Kind: KindCommit, From: 0, View: 1, Seq: 5, Digest: req.Digest(), Request: req, Sig: seal(32, 6)[:1+32+5*crypto.TagSize+9]},
		{Kind: KindPrepare, From: 0, View: 1, Seq: 6, Digest: BatchDigest(batch), Batch: batch, Sig: seal(64, 6)[:40]},
		{Kind: KindPrepare, From: 0, View: 1, Seq: 7, Digest: req.Digest(), Request: req, Sig: append([]byte{0xff}, make([]byte, 64)...)},
		{Kind: KindCommit, From: 0, View: 1, Seq: 7, Digest: req.Digest(), Request: req, Sig: seal(0, 6)},
		{Kind: KindStateRequest, From: 1, Seq: 40, Sig: []byte("x")},
		{Kind: KindStateReply, From: 2, Seq: 128, Result: []byte("snapshot"), CheckpointProof: []Signed{prep}, Prepares: []Signed{prep}, Sig: []byte("x")},
	}
	for _, m := range msgs {
		seeds = append(seeds, Marshal(m))
	}
	return seeds
}

// FuzzDecode hammers Unmarshal with arbitrary frames: it must never
// panic or over-allocate, and any frame it does accept must be
// structurally sound and survive a marshal round-trip byte-for-byte
// (the decoder accepts exactly the canonical encoding).
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
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
		// The pooled path must agree byte-for-byte with Marshal and its
		// EncodedSize must be exact.
		fr := Encode(m)
		if len(fr.Bytes()) != m.EncodedSize() {
			t.Fatalf("EncodedSize %d != encoded length %d", m.EncodedSize(), len(fr.Bytes()))
		}
		if !bytes.Equal(fr.Bytes(), frame) {
			t.Fatalf("pooled encode mismatch:\n in  %x\n out %x", frame, fr.Bytes())
		}
		// Reuse must not alias: release the frame, encode a different
		// message (which grabs the same pooled buffer back), and check no
		// stale bytes from the first encoding leak into the second — the
		// reused frame must still be exactly canonical for its message.
		fr.Release()
		perturbed := *m
		perturbed.Seq ^= 0xa5a5
		fr2 := Encode(&perturbed)
		if !bytes.Equal(fr2.Bytes(), Marshal(&perturbed)) {
			t.Fatalf("pooled re-encode after Release is not canonical")
		}
		fr2.Release()
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
