package crypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestSumProperties(t *testing.T) {
	a := Sum([]byte("hello"))
	b := Sum([]byte("hello"))
	c := Sum([]byte("hellp"))
	if a != b {
		t.Error("digest not deterministic")
	}
	if a == c {
		t.Error("distinct inputs collided")
	}
	if a.IsZero() {
		t.Error("real digest reported zero")
	}
	var z Digest
	if !z.IsZero() {
		t.Error("zero digest not reported zero")
	}
	if len(a.String()) != 12 {
		t.Errorf("digest string %q should be 12 hex chars", a.String())
	}
}

func TestPrincipalNamespacesDisjoint(t *testing.T) {
	seen := map[Principal]bool{}
	for r := 0; r < 100; r++ {
		seen[ReplicaPrincipal(r)] = true
	}
	for c := int64(0); c < 100; c++ {
		p := ClientPrincipal(c)
		if seen[p] {
			t.Fatalf("client %d collides with a replica principal (%d)", c, p)
		}
	}
}

func suites() []Suite {
	return []Suite{
		NewEd25519Suite(42, 4, 2),
		NewHMACSuite(42, 4, 2),
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	for _, s := range suites() {
		t.Run(s.Name(), func(t *testing.T) {
			msg := []byte("prepare v=3 n=17")
			sig := s.Sign(ReplicaPrincipal(1), msg)
			if !s.Verify(ReplicaPrincipal(1), msg, sig) {
				t.Fatal("valid signature rejected")
			}
			if s.Verify(ReplicaPrincipal(2), msg, sig) {
				t.Error("signature accepted for wrong signer")
			}
			if s.Verify(ReplicaPrincipal(1), []byte("tampered"), sig) {
				t.Error("signature accepted for tampered message")
			}
			if s.Verify(ReplicaPrincipal(1), msg, append([]byte(nil), sig[:len(sig)-1]...)) {
				t.Error("truncated signature accepted")
			}
			if s.Verify(Principal(999), msg, sig) {
				t.Error("unknown principal verified")
			}
		})
	}
}

func TestClientSignatures(t *testing.T) {
	for _, s := range suites() {
		msg := []byte("request op=put")
		sig := s.Sign(ClientPrincipal(0), msg)
		if !s.Verify(ClientPrincipal(0), msg, sig) {
			t.Errorf("%s: client signature rejected", s.Name())
		}
		if s.Verify(ClientPrincipal(1), msg, sig) {
			t.Errorf("%s: signature accepted for wrong client", s.Name())
		}
	}
}

func TestDeterministicKeyDerivation(t *testing.T) {
	a := NewEd25519Suite(7, 3, 1)
	b := NewEd25519Suite(7, 3, 1)
	msg := []byte("same keys from same seed")
	if !bytes.Equal(a.Sign(ReplicaPrincipal(0), msg), b.Sign(ReplicaPrincipal(0), msg)) {
		t.Error("same seed produced different ed25519 keys")
	}
	cdiff := NewEd25519Suite(8, 3, 1)
	if bytes.Equal(a.Sign(ReplicaPrincipal(0), msg), cdiff.Sign(ReplicaPrincipal(0), msg)) {
		t.Error("different seeds produced identical keys")
	}
	// Cross-suite verification must fail.
	sig := a.Sign(ReplicaPrincipal(0), msg)
	if cdiff.Verify(ReplicaPrincipal(0), msg, sig) {
		t.Error("key from seed 7 verified under seed 8")
	}
}

func TestSignUnknownPrincipalPanics(t *testing.T) {
	s := NewEd25519Suite(1, 2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("signing with unknown principal did not panic")
		}
	}()
	s.Sign(ReplicaPrincipal(99), []byte("x"))
}

func TestRestrictedSuite(t *testing.T) {
	full := NewEd25519Suite(3, 4, 0)
	r1 := Restrict(full, ReplicaPrincipal(1))
	msg := []byte("hello")
	sig := r1.Sign(ReplicaPrincipal(1), msg)
	if !r1.Verify(ReplicaPrincipal(1), msg, sig) {
		t.Fatal("restricted suite rejected own signature")
	}
	// It can verify others...
	other := full.Sign(ReplicaPrincipal(2), msg)
	if !r1.Verify(ReplicaPrincipal(2), msg, other) {
		t.Fatal("restricted suite cannot verify peers")
	}
	if r1.Name() != full.Name() {
		t.Error("restricted suite changed scheme name")
	}
	// ...but signing as someone else is forgery and must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("forgery attempt did not panic")
		}
	}()
	r1.Sign(ReplicaPrincipal(2), msg)
}

func TestNoopSuite(t *testing.T) {
	var s NoopSuite
	if sig := s.Sign(ReplicaPrincipal(0), []byte("x")); sig != nil {
		t.Error("noop signature should be nil")
	}
	if !s.Verify(Principal(123), []byte("anything"), nil) {
		t.Error("noop verify should accept everything")
	}
	if s.Name() != "none" {
		t.Error("unexpected suite name")
	}
}

// Property: HMAC verification accepts exactly the signer's output and
// rejects single-bit corruptions.
func TestHMACPropertyBitFlip(t *testing.T) {
	s := NewHMACSuite(99, 2, 0)
	prop := func(msg []byte, flipByte, flipBit uint8) bool {
		sig := s.Sign(ReplicaPrincipal(0), msg)
		if !s.Verify(ReplicaPrincipal(0), msg, sig) {
			return false
		}
		bad := append([]byte(nil), sig...)
		bad[int(flipByte)%len(bad)] ^= 1 << (flipBit % 8)
		return !s.Verify(ReplicaPrincipal(0), msg, bad)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: ed25519 signatures from our deterministic keyring verify for
// arbitrary messages.
func TestEd25519PropertyRoundTrip(t *testing.T) {
	s := NewEd25519Suite(5, 2, 1)
	prop := func(msg []byte) bool {
		sig := s.Sign(ClientPrincipal(0), msg)
		return s.Verify(ClientPrincipal(0), msg, sig) &&
			!s.Verify(ReplicaPrincipal(0), msg, sig)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// TestTags is the table for pairwise tags, over both keyed suites and
// their restricted views: what a tag authenticates, and everything it
// must not.
func TestTags(t *testing.T) {
	a, b, c := ReplicaPrincipal(0), ReplicaPrincipal(1), ReplicaPrincipal(2)
	client := ClientPrincipal(1)
	msg := []byte("commit v=3 n=17")
	for _, s := range suites() {
		t.Run(s.Name(), func(t *testing.T) {
			tag := s.Tag(a, b, msg)
			flipped := tag
			flipped[TagSize-1] ^= 1
			for _, tc := range []struct {
				name     string
				from, to Principal
				msg, tag []byte
				want     bool
			}{
				{"the receiver's check", a, b, msg, tag[:], true},
				{"another pair, same sender", a, c, msg, tag[:], false},
				{"another pair, same receiver", c, b, msg, tag[:], false},
				{"the reverse direction", b, a, msg, tag[:], false},
				{"a tampered message", a, b, []byte("commit v=3 n=18"), tag[:], false},
				{"a tampered tag", a, b, msg, flipped[:], false},
				{"a short tag", a, b, msg, tag[:TagSize-1], false},
				{"an oversized tag", a, b, msg, append(tag[:], 0), false},
				{"a whole authenticator", a, b, msg, make([]byte, 6*TagSize), false},
				{"no tag", a, b, msg, nil, false},
				{"an unknown sender", ReplicaPrincipal(99), b, msg, tag[:], false},
				{"an unknown receiver", a, ClientPrincipal(99), msg, tag[:], false},
				{"a principal tagging to itself", a, a, msg, tag[:], false},
			} {
				if got := s.VerifyTag(tc.from, tc.to, tc.msg, tc.tag); got != tc.want {
					t.Errorf("%s: VerifyTag = %v, want %v", tc.name, got, tc.want)
				}
			}
			if s.Tag(a, c, msg) == tag {
				t.Error("pairs (a,b) and (a,c) share a key")
			}
			if rt := s.Tag(b, client, msg); !s.VerifyTag(b, client, msg, rt[:]) || s.VerifyTag(a, client, msg, rt[:]) {
				t.Error("a reply tag must verify for its replica and client, and for no other replica")
			}
			if !panics(func() { s.Tag(a, ReplicaPrincipal(99), msg) }) {
				t.Error("tagging for a principal outside the keyring did not panic")
			}

			// What node b would hold: its own pairs, nobody else's.
			rb := Restrict(s, b)
			if !rb.VerifyTag(a, b, msg, tag[:]) {
				t.Error("restricted view refused a tag addressed to its owner")
			}
			if own := rb.Tag(b, c, msg); !s.VerifyTag(b, c, msg, own[:]) {
				t.Error("restricted view's own tag does not verify")
			}
			foreign := s.Tag(a, c, msg)
			if rb.VerifyTag(a, c, msg, foreign[:]) {
				t.Error("restricted view verified a tag on a channel its owner is not an end of")
			}
			if !panics(func() { rb.Tag(a, c, msg) }) {
				t.Error("restricted view tagged on a channel its owner is not an end of")
			}
		})
	}
}

// TestTagIsHMAC checks the hand-rolled MAC against crypto/hmac, and that
// every keyed suite derives the same pair keys from the same seed.
func TestTagIsHMAC(t *testing.T) {
	ed, hm := NewEd25519Suite(42, 4, 2), NewHMACSuite(42, 4, 2)
	from, to := ReplicaPrincipal(3), ClientPrincipal(0)
	for _, n := range []int{0, 57, 259, 304, 305, 4096} { // around and past the stack buffer
		msg := bytes.Repeat([]byte{0x5a}, n)
		key, ok := ed.key(from, to)
		if !ok {
			t.Fatal("no pair key")
		}
		mac := hmac.New(sha256.New, key[:])
		mac.Write(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, uint64(from)), uint64(to)))
		mac.Write(msg)
		want := mac.Sum(nil)[:TagSize]
		if got := ed.Tag(from, to, msg); !bytes.Equal(got[:], want) {
			t.Errorf("%d-byte message: tag %x, crypto/hmac says %x", n, got, want)
		}
		if ed.Tag(from, to, msg) != hm.Tag(from, to, msg) {
			t.Errorf("%d-byte message: the ed25519 and HMAC suites disagree on a tag", n)
		}
	}
	other := NewEd25519Suite(43, 4, 2).Tag(from, to, nil)
	if ed.VerifyTag(from, to, nil, other[:]) {
		t.Error("a tag from another deployment's seed verified")
	}
}

func TestNoopTags(t *testing.T) {
	var s NoopSuite
	if s.Tag(ReplicaPrincipal(0), ReplicaPrincipal(1), []byte("x")) != [TagSize]byte{} {
		t.Error("noop tag should be zero")
	}
	if !s.VerifyTag(Principal(123), Principal(-9), []byte("anything"), []byte("any length")) {
		t.Error("noop tag check should accept everything")
	}
}

func TestCountingSuite(t *testing.T) {
	s := Count(NewHMACSuite(1, 3, 1))
	a, b := ReplicaPrincipal(0), ReplicaPrincipal(1)
	msg := []byte("m")
	sig := s.Sign(a, msg)
	s.Verify(a, msg, sig)
	s.Verify(b, msg, sig) // refused
	tag := s.Tag(a, b, msg)
	s.VerifyTag(a, b, msg, tag[:])
	s.VerifyTag(b, a, msg, tag[:]) // refused
	if got, want := s.Totals(), (Counts{1, 2, 1, 1, 2, 1}); got != want {
		t.Errorf("totals %+v, want %+v", got, want)
	}
	if got, want := s.By(b), (Counts{Verifies: 1, BadVerifies: 1, TagVerifies: 1, BadTagVerifies: 1}); got != want {
		t.Errorf("by b %+v, want %+v", got, want)
	}
	if s.By(ReplicaPrincipal(2)) != (Counts{}) || s.Name() != "hmac-sha256" {
		t.Error("an idle principal has counts, or the name changed")
	}
}
