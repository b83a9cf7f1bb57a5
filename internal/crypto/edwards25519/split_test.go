package edwards25519

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha512"
	"math/rand"
	"testing"
)

// randScalar returns a uniformly random scalar drawn from rng.
func randScalar(t *testing.T, rng *rand.Rand) *Scalar {
	var wide [64]byte
	rng.Read(wide[:])
	s, err := new(Scalar).SetUniformBytes(wide[:])
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSplitBaseMultMatchesEd25519Keys checks [s]B over the generator's
// split table against crypto/ed25519's own public keys, A = [s]B for the
// clamped secret scalar s.
func TestSplitBaseMultMatchesEd25519Keys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var zero Scalar
	anyTable := basepointSplitTable()
	for i := 0; i < 64; i++ {
		seed := make([]byte, ed25519.SeedSize)
		rng.Read(seed)
		h := sha512.Sum512(seed)
		var wide [64]byte
		copy(wide[:], h[:32])
		wide[0] &= 248
		wide[31] &= 63
		wide[31] |= 64
		s, err := new(Scalar).SetUniformBytes(wide[:])
		if err != nil {
			t.Fatal(err)
		}
		got := new(Point).VarTimeDoubleScalarSplitBaseMult(&zero, anyTable, s).Bytes()
		want := ed25519.NewKeyFromSeed(seed).Public().(ed25519.PublicKey)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %x: [s]B = %x, ed25519 public key %x", seed, got, want)
		}
	}
}

// TestSplitDoubleScalarMult checks [a]Q + [b]B = [a·c + b]B for Q = [c]B
// and random a, b, c, so every table of Q and of B is used.
func TestSplitDoubleScalarMult(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var zero Scalar
	bTable := basepointSplitTable()
	for i := 0; i < 32; i++ {
		a, b, c := randScalar(t, rng), randScalar(t, rng), randScalar(t, rng)
		q := new(Point).VarTimeDoubleScalarSplitBaseMult(&zero, bTable, c)
		got := new(Point).VarTimeDoubleScalarSplitBaseMult(a, NewSplitTable(q), b).Bytes()
		e := new(Scalar).Multiply(a, c)
		e.Add(e, b)
		want := new(Point).VarTimeDoubleScalarSplitBaseMult(&zero, bTable, e).Bytes()
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: [a]Q + [b]B = %x, [a·c + b]B = %x", i, got, want)
		}
	}
}
