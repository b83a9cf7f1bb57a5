package message

import (
	"bytes"
	"testing"

	"repro/internal/crypto"
)

// benchMessages are the three steady-state frame shapes the hot path
// encodes: a client request, a vote (prepare/commit share one shape), and
// a batched proposal.
func benchMessages() map[string]*Message {
	req := &Request{Op: bytes.Repeat([]byte{0x5e}, 64), Timestamp: 7, Client: 3, Sig: bytes.Repeat([]byte{1}, 64)}
	batch := make([]*Request, 16)
	for i := range batch {
		batch[i] = &Request{Op: bytes.Repeat([]byte{byte(i)}, 64), Timestamp: uint64(i), Client: 3, Sig: bytes.Repeat([]byte{2}, 64)}
	}
	return map[string]*Message{
		"request": {Kind: KindRequest, From: -1, Request: req},
		"vote":    {Kind: KindCommit, From: 2, View: 1, Seq: 99, Digest: req.Digest(), Sig: bytes.Repeat([]byte{3}, 64)},
		"commit-batch": {
			Kind: KindPrepare, From: 0, View: 1, Seq: 100,
			Digest: BatchDigest(batch), Batch: batch, Sig: bytes.Repeat([]byte{4}, 64),
		},
	}
}

// frameSink keeps the encoders' results alive, so AllocsPerRun counts
// the frames they allocate.
var frameSink []byte

// TestMarshalOneAlloc pins the one encoder: on every hot-path shape
// Marshal and MarshalSigned allocate exactly one slice, sized exactly by
// EncodedSize, and a signed record survives a round trip.
func TestMarshalOneAlloc(t *testing.T) {
	for name, m := range benchMessages() {
		if got, want := m.EncodedSize(), len(Marshal(m)); got != want {
			t.Fatalf("%s: EncodedSize %d, Marshal length %d", name, got, want)
		}
		if n := testing.AllocsPerRun(100, func() { frameSink = Marshal(m) }); n != 1 {
			t.Fatalf("%s: Marshal made %v allocations per frame, want 1", name, n)
		}
	}
	req := &Request{Op: []byte("op"), Timestamp: 1, Client: 2, Sig: []byte("sig")}
	for name, s := range map[string]*Signed{
		"vote":     {Kind: KindCommit, From: 1, View: 2, Seq: 3, Digest: crypto.Sum([]byte("d")), Sig: []byte("vs")},
		"proposal": {Kind: KindPrepare, From: 0, View: 2, Seq: 3, Digest: req.Digest(), Request: req, Sig: []byte("ps")},
		"batch": {
			Kind: KindPrepare, From: 0, View: 2, Seq: 4,
			Batch: []*Request{req, {Op: []byte("op2"), Timestamp: 2, Client: 3, Sig: []byte("s2")}},
			Sig:   []byte("bs"),
		},
	} {
		want := MarshalSigned(s)
		if got := s.EncodedSize(); got != len(want) {
			t.Fatalf("%s: EncodedSize %d, MarshalSigned length %d", name, got, len(want))
		}
		if n := testing.AllocsPerRun(100, func() { frameSink = MarshalSigned(s) }); n != 1 {
			t.Fatalf("%s: MarshalSigned made %v allocations per record, want 1", name, n)
		}
		back, err := UnmarshalSigned(want)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(MarshalSigned(back), want) {
			t.Fatalf("%s: round-trip changed the record", name)
		}
	}
}

// BenchmarkMarshal measures encode on the same shapes.
func BenchmarkMarshal(b *testing.B) {
	for name, m := range benchMessages() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = Marshal(m)
			}
		})
	}
}

// BenchmarkUnmarshal measures decode, including the pre-sized batch path.
func BenchmarkUnmarshal(b *testing.B) {
	for name, m := range benchMessages() {
		frame := Marshal(m)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Unmarshal(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
