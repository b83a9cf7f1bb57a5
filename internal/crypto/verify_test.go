package crypto

import (
	"bytes"
	"crypto/ed25519"
	"encoding/hex"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/crypto/edwards25519"
)

// smallOrder holds the eight canonical encodings of the points of order
// 1, 2, 4 and 8, and nonCanonicalY one point encoded with y ≥ p (y = p+1,
// the identity), which the standard library's key decoding accepts.
var (
	smallOrder = []string{
		"0100000000000000000000000000000000000000000000000000000000000000", // order 1
		"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", // order 2
		"0000000000000000000000000000000000000000000000000000000000000000", // order 4
		"0000000000000000000000000000000000000000000000000000000000000080", // order 4
		"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05", // order 8
		"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85", // order 8
		"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a", // order 8
		"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa", // order 8
	}
	nonCanonicalY = "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"
)

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmallOrderEncodings pins the fuzz seeds' premise: each encoding
// decodes to a point P with [8]P the identity.
func TestSmallOrderEncodings(t *testing.T) {
	eight, err := new(edwards25519.Scalar).SetCanonicalBytes(append([]byte{8}, make([]byte, 31)...))
	if err != nil {
		t.Fatal(err)
	}
	var zero edwards25519.Scalar
	identity := unhex(t, smallOrder[0])
	for _, enc := range append(smallOrder, nonCanonicalY) {
		p, err := new(edwards25519.Point).SetBytes(unhex(t, enc))
		if err != nil {
			t.Fatalf("%s: %v", enc, err)
		}
		got := new(edwards25519.Point).VarTimeDoubleScalarSplitBaseMult(eight, edwards25519.NewSplitTable(p), &zero).Bytes()
		if !bytes.Equal(got, identity) {
			t.Errorf("[8]P for P = %s is %x, want the identity", enc, got)
		}
	}
}

// plusL returns the 32-byte little-endian encoding of S + L, the
// non-canonical twin of a signature's S half.
func plusL(s []byte) []byte {
	rev := func(b []byte) []byte {
		out := make([]byte, len(b))
		for i := range b {
			out[len(b)-1-i] = b[i]
		}
		return out
	}
	l, _ := new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)
	sum := new(big.Int).Add(new(big.Int).SetBytes(rev(s)), l).FillBytes(make([]byte, 32))
	return rev(sum)
}

// TestVerifyMatchesStdlib is the differential test of the one verifier:
// on valid signatures and on every malformation class a Byzantine
// sender can produce it must decide exactly as crypto/ed25519.Verify.
func TestVerifyMatchesStdlib(t *testing.T) {
	s := NewEd25519Suite(11, 4, 2)
	rng := rand.New(rand.NewSource(5))
	signers := []Principal{ReplicaPrincipal(0), ReplicaPrincipal(3), ClientPrincipal(1)}
	check := func(name string, p Principal, msg, sig []byte) {
		t.Helper()
		want := ed25519.Verify(s.pub[p].pub[:], msg, sig)
		if got := s.Verify(p, msg, sig); got != want {
			t.Fatalf("%s (signer %d, msg %x, sig %x): Verify = %v, ed25519.Verify = %v", name, p, msg, sig, got, want)
		}
	}
	valid := 0
	for _, p := range signers {
		for _, n := range []int{0, 1, 57, 259, 1000} {
			msg := make([]byte, n)
			rng.Read(msg)
			sig := s.Sign(p, msg)
			if !s.Verify(p, msg, sig) {
				t.Fatalf("signer %d: valid %d-byte signature rejected", p, n)
			}
			valid++
			check("valid", p, msg, sig)

			check("S+L", p, msg, append(bytes.Clone(sig[:32]), plusL(sig[32:])...))
			for bit := 5; bit < 8; bit++ {
				bad := bytes.Clone(sig)
				bad[63] |= 1 << bit
				check("high bit in sig[63]", p, msg, bad)
			}
			for bit := 0; bit < 8*ed25519.SignatureSize; bit++ {
				bad := bytes.Clone(sig)
				bad[bit/8] ^= 1 << (bit % 8)
				check("bit flip in R or S", p, msg, bad)
			}
			for bit := 0; bit < 8*len(msg) && bit < 64; bit++ {
				bad := bytes.Clone(msg)
				bad[bit/8] ^= 1 << (bit % 8)
				check("bit flip in the message", p, bad, sig)
			}
			for _, l := range []int{0, 32, 63, 65, 128} {
				bad := make([]byte, l)
				copy(bad, sig)
				check("wrong length", p, msg, bad)
			}
			for _, other := range signers {
				if other != p {
					check("wrong signer", other, msg, sig)
				}
			}
			for _, enc := range smallOrder {
				check("small-order R", p, msg, append(unhex(t, enc), sig[32:]...))
			}
		}
	}
	if valid == 0 {
		t.Fatal("no valid signature checked")
	}
	msg := []byte("unknown principal")
	if s.Verify(Principal(99), msg, s.Sign(ReplicaPrincipal(0), msg)) {
		t.Fatal("unknown principal verified")
	}
}

// FuzzVerify requires the verifier to decide as crypto/ed25519.Verify on
// any input. A 32-byte key goes through newVerifyKey as it is, whatever
// point (or non-point) it encodes; any other key length checks (msg,
// sig) against replica 0 of a suite.
func FuzzVerify(f *testing.F) {
	s := NewEd25519Suite(3, 1, 0)
	msg := []byte("pre-prepare v=1 n=1")
	sig := s.Sign(ReplicaPrincipal(0), msg)
	f.Add([]byte(nil), msg, sig)
	f.Add(s.pub[ReplicaPrincipal(0)].pub[:], msg, sig)
	f.Add([]byte(nil), msg, append(bytes.Clone(sig[:32]), plusL(sig[32:])...))
	zeroS := make([]byte, 32)
	for _, enc := range append(smallOrder, nonCanonicalY) {
		point := unhex(f, enc)
		f.Add(point, msg, append(bytes.Clone(point), zeroS...))
		f.Add(point, msg, append(unhex(f, smallOrder[0]), zeroS...))
		f.Add(point, msg, sig)
		f.Add([]byte(nil), msg, append(bytes.Clone(point), sig[32:]...))
	}
	f.Fuzz(func(t *testing.T, key, msg, sig []byte) {
		var got bool
		if len(key) == ed25519.PublicKeySize {
			got = newVerifyKey(key).verify(msg, sig)
		} else {
			key = s.pub[ReplicaPrincipal(0)].pub[:]
			got = s.Verify(ReplicaPrincipal(0), msg, sig)
		}
		if want := ed25519.Verify(key, msg, sig); got != want {
			t.Fatalf("key %x msg %x sig %x: verify = %v, ed25519.Verify = %v", key, msg, sig, got, want)
		}
	})
}

// TestVerifyConcurrentFirstUse checks one key from several goroutines
// at once, so the lazily built split table is raced for under -race.
func TestVerifyConcurrentFirstUse(t *testing.T) {
	s := NewEd25519Suite(13, 2, 0)
	msg := []byte("prepare v=2 n=9")
	sig := s.Sign(ReplicaPrincipal(1), msg)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !s.Verify(ReplicaPrincipal(1), msg, sig) {
				t.Error("valid signature rejected")
			}
		}()
	}
	wg.Wait()
}
