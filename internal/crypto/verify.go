package crypto

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha512"
	"sync"

	"repro/internal/crypto/edwards25519"
)

// verifyKey is one signer's Ed25519 public key together with the
// fixed-base split table of −A its signatures are checked against. The
// table (30 KiB, about a millisecond of field inversions) is built on
// the key's first check, so a key that never verifies costs nothing.
type verifyKey struct {
	pub   [ed25519.PublicKeySize]byte
	once  sync.Once
	table *edwards25519.SplitTable // of −A; nil if pub encodes no point
}

// newVerifyKey wraps a 32-byte public key; any other length panics, as
// in ed25519.Verify.
func newVerifyKey(pub []byte) *verifyKey {
	if len(pub) != ed25519.PublicKeySize {
		panic("crypto: bad ed25519 public key length")
	}
	k := &verifyKey{}
	copy(k.pub[:], pub)
	return k
}

// negTable returns the split table of −A, or nil if the key bytes
// decode to no curve point.
func (k *verifyKey) negTable() *edwards25519.SplitTable {
	k.once.Do(func() {
		a, err := new(edwards25519.Point).SetBytes(k.pub[:])
		if err != nil {
			return
		}
		k.table = edwards25519.NewSplitTable(new(edwards25519.Point).Negate(a))
	})
	return k.table
}

// verify reports whether sig is the key's signature over msg. It takes
// the steps of the standard library's ed25519.Verify one for one — the
// same length and high-bit rejects, the same key decoding, the same
// k = SHA-512(R ‖ A ‖ M) mod L over the key's own bytes, the same
// canonical-S rule and the same cofactorless equation R = [k](−A) + [S]B
// with R compared as bytes — so it accepts exactly what that accepts.
// Only the multiplication differs: it runs over −A's and B's split
// tables instead of decompressing A and doubling ~254 times.
func (k *verifyKey) verify(msg, sig []byte) bool {
	if len(sig) != ed25519.SignatureSize || sig[63]&224 != 0 {
		return false
	}
	minusA := k.negTable()
	if minusA == nil {
		return false
	}
	h := sha512.New()
	h.Write(sig[:32])
	h.Write(k.pub[:])
	h.Write(msg)
	var digest [sha512.Size]byte
	kS, err := new(edwards25519.Scalar).SetUniformBytes(h.Sum(digest[:0]))
	if err != nil {
		panic("crypto: internal error: setting scalar failed")
	}
	s, err := new(edwards25519.Scalar).SetCanonicalBytes(sig[32:])
	if err != nil {
		return false
	}
	r := new(edwards25519.Point).VarTimeDoubleScalarSplitBaseMult(kS, minusA, s)
	return bytes.Equal(sig[:32], r.Bytes())
}
