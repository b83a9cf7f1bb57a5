package crypto

import (
	"crypto/ed25519"
	"testing"
)

func BenchmarkSign(b *testing.B) {
	s := NewEd25519Suite(7, 4, 0)
	msg := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sign(ReplicaPrincipal(0), msg)
	}
}

// BenchmarkVerify runs the suite's verifier beside crypto/ed25519.Verify
// on the same key and message, so one run prints both costs on the same
// machine, and pins that a suite verify allocates nothing once the key's
// table is built.
func BenchmarkVerify(b *testing.B) {
	s := NewEd25519Suite(7, 4, 0)
	msg := make([]byte, 128)
	sig := s.Sign(ReplicaPrincipal(0), msg)
	pub := ed25519.PublicKey(s.pub[ReplicaPrincipal(0)].pub[:])
	// The first check builds the key's and the generator's tables; keep
	// that one-time cost out of the timed loop.
	if !s.Verify(ReplicaPrincipal(0), msg, sig) {
		b.Fatal("verify failed")
	}
	b.Run("suite", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !s.Verify(ReplicaPrincipal(0), msg, sig) {
				b.Fatal("verify failed")
			}
		}
		b.StopTimer()
		if n := testing.AllocsPerRun(100, func() { s.Verify(ReplicaPrincipal(0), msg, sig) }); n != 0 {
			b.Fatalf("Verify allocates %v times per call, want 0", n)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !ed25519.Verify(pub, msg, sig) {
				b.Fatal("verify failed")
			}
		}
	})
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
