package crypto

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchBatch(b *testing.B, s Suite, n int) []BatchItem {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	items := make([]BatchItem, n)
	for i := range items {
		p := ReplicaPrincipal(i % 4)
		msg := make([]byte, 128)
		rng.Read(msg)
		items[i] = BatchItem{Signer: p, Msg: msg, Sig: s.Sign(p, msg)}
	}
	return items
}

func BenchmarkSign(b *testing.B) {
	s := NewEd25519Suite(7, 4, 0)
	msg := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sign(ReplicaPrincipal(0), msg)
	}
}

func BenchmarkVerify(b *testing.B) {
	s := NewEd25519Suite(7, 4, 0)
	msg := make([]byte, 128)
	sig := s.Sign(ReplicaPrincipal(0), msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Verify(ReplicaPrincipal(0), msg, sig) {
			b.Fatal("verify failed")
		}
	}
}

// BenchmarkVerifyAll is the pre-batching baseline: n independent stdlib
// verifications spread over the worker pool.
func BenchmarkVerifyAll(b *testing.B) {
	s := NewEd25519Suite(7, 4, 0)
	for _, n := range []int{16, 64, 256} {
		items := benchBatch(b, s, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !VerifyAll(len(items), func(j int) bool {
					return s.Verify(items[j].Signer, items[j].Msg, items[j].Sig)
				}) {
					b.Fatal("verify failed")
				}
			}
		})
	}
}

// BenchmarkBatchVerify is the batched path; compare per-n with
// BenchmarkVerifyAll for the batching speedup.
func BenchmarkBatchVerify(b *testing.B) {
	s := NewEd25519Suite(7, 4, 0)
	for _, n := range []int{16, 64, 256} {
		items := benchBatch(b, s, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ok, _ := BatchVerify(s, items); !ok {
					b.Fatal("verify failed")
				}
			}
		})
	}
}

// The tag benchmarks pin the hot-path property the protocols rely on: a
// tag or its check allocates nothing, for a vote record and for the
// largest authenticated message (a REPLY's 259 signed bytes).
func benchTagMsgs() map[string][]byte {
	return map[string][]byte{"vote=57B": make([]byte, 57), "reply=259B": make([]byte, 259)}
}

var tagSink [TagSize]byte

func BenchmarkTag(b *testing.B) {
	s := NewEd25519Suite(7, 4, 1)
	for name, msg := range benchTagMsgs() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tagSink = s.Tag(ReplicaPrincipal(0), ReplicaPrincipal(1), msg)
			}
			if n := testing.AllocsPerRun(100, func() { s.Tag(ReplicaPrincipal(0), ReplicaPrincipal(1), msg) }); n != 0 {
				b.Fatalf("Tag allocates %v times per call, want 0", n)
			}
		})
	}
}

func BenchmarkVerifyTag(b *testing.B) {
	s := NewEd25519Suite(7, 4, 1)
	for name, msg := range benchTagMsgs() {
		b.Run(name, func(b *testing.B) {
			tag := s.Tag(ReplicaPrincipal(0), ClientPrincipal(0), msg)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !s.VerifyTag(ReplicaPrincipal(0), ClientPrincipal(0), msg, tag[:]) {
					b.Fatal("verify failed")
				}
			}
			if n := testing.AllocsPerRun(100, func() { s.VerifyTag(ReplicaPrincipal(0), ClientPrincipal(0), msg, tag[:]) }); n != 0 {
				b.Fatalf("VerifyTag allocates %v times per call, want 0", n)
			}
		})
	}
}
