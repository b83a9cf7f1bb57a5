// Package crypto provides the cryptographic substrate the paper assumes
// in Section 3.1: collision-resistant digests, public-key signatures, and
// pairwise-authenticated channels. Signatures authenticate what may be
// shown to a third party later (view-change evidence, certificates);
// tags — a MAC under the key two principals share — authenticate what
// only its receiver ever reads. It also supplies cheaper drop-in
// signature schemes (HMAC, no-op) used by the ablation benchmarks to
// isolate how much of each protocol's cost is signature arithmetic.
//
// Key model: one dealer seed per deployment. Every signing key and every
// pair key is derived from it, so each node (and each test) rebuilds the
// same keyring with no key-distribution subprotocol; what a single real
// node would be handed — its own signing key, everyone's public keys,
// and the pair keys it is a party to — is the view Restrict returns.
package crypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"strings"
)

// DigestSize is the size of a message digest in bytes (SHA-256).
const DigestSize = sha256.Size

// Digest is D(µ), the collision-resistant hash of a message (Section 3.1).
type Digest [DigestSize]byte

// Sum computes the digest of data.
func Sum(data []byte) Digest { return sha256.Sum256(data) }

// IsZero reports whether d is the all-zero digest, used as the "no
// payload" sentinel (for example no-op NEW-VIEW entries).
func (d Digest) IsZero() bool { return d == Digest{} }

// String renders a short hex prefix, enough for logs.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:6]) }

// Principal identifies a key holder: replicas and clients share one
// signature namespace but occupy disjoint halves of it.
type Principal int64

// ReplicaPrincipal maps a replica ID into the principal namespace.
func ReplicaPrincipal(replica int) Principal { return Principal(replica) }

// ClientPrincipal maps a client ID into the principal namespace. Client
// principals are negative so they can never collide with replicas.
func ClientPrincipal(client int64) Principal { return Principal(-1 - client) }

// TagSize is the size of a pairwise authentication tag in bytes
// (HMAC-SHA256 truncated to 128 bits, as in PBFT's authenticators).
const TagSize = 16

// Suite is the pluggable authentication scheme. Implementations must be
// safe for concurrent use: replicas sign and verify from multiple
// goroutines.
type Suite interface {
	// Sign produces a signature over msg in the name of signer. It
	// panics if the suite holds no private key for signer — that is a
	// deployment bug, not a runtime condition.
	Sign(signer Principal, msg []byte) []byte
	// Verify reports whether sig is a valid signature over msg by signer.
	Verify(signer Principal, msg, sig []byte) bool
	// Tag authenticates msg on the channel from → to under the key the
	// two principals share. Only the two of them can check it, and
	// neither can prove to anyone else which of them produced it: a tag
	// is for messages their receiver consumes, never for evidence. It
	// panics if the suite does not hold the pair's key.
	Tag(from, to Principal, msg []byte) [TagSize]byte
	// VerifyTag reports whether tag is the pair's tag over msg in the
	// direction from → to. A tag of any other length is rejected.
	VerifyTag(from, to Principal, msg, tag []byte) bool
	// Name identifies the scheme in benchmark output.
	Name() string
}

// pairKeys derives the pairwise channel keys of one deployment: one
// key per unordered pair of principals, computed on demand from the
// dealer seed, so a keyring costs nothing to build however many clients
// it covers.
type pairKeys struct {
	seed     int64
	replicas int
	clients  int64
}

func (p pairKeys) holds(x Principal) bool {
	if x >= 0 {
		return int64(x) < int64(p.replicas)
	}
	return int64(-1-x) < p.clients
}

// key returns the key a and b share, or false if either is outside the
// keyring's population (or they are the same principal).
func (p pairKeys) key(a, b Principal) ([sha256.Size]byte, bool) {
	if a == b || !p.holds(a) || !p.holds(b) {
		return [sha256.Size]byte{}, false
	}
	if a > b {
		a, b = b, a
	}
	var material [25]byte
	binary.LittleEndian.PutUint64(material[0:8], uint64(p.seed))
	binary.LittleEndian.PutUint64(material[8:16], uint64(a))
	binary.LittleEndian.PutUint64(material[16:24], uint64(b))
	material[24] = 0x9c // domain separation from the signing-key derivations
	return sha256.Sum256(material[:]), true
}

// mac computes HMAC-SHA256(key(from,to), from ‖ to ‖ msg) truncated to
// TagSize. The direction is inside the MAC so a tag cannot be reflected
// back at its sender. HMAC is spelled out over one stack buffer rather
// than through crypto/hmac so a tag allocates nothing for any message
// the protocols authenticate (the largest, a REPLY, is 259 bytes).
func (p pairKeys) mac(from, to Principal, msg []byte) (tag [TagSize]byte, ok bool) {
	key, ok := p.key(from, to)
	if !ok {
		return tag, false
	}
	const block = sha256.BlockSize
	var pad [block]byte
	copy(pad[:], key[:])
	for i := range pad {
		pad[i] ^= 0x36
	}
	var stack [block + 16 + 304]byte
	buf := append(stack[:0], pad[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(from))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(to))
	buf = append(buf, msg...)
	inner := sha256.Sum256(buf)
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	buf = append(stack[:0], pad[:]...)
	buf = append(buf, inner[:]...)
	outer := sha256.Sum256(buf)
	copy(tag[:], outer[:])
	return tag, true
}

// Tag implements Suite for every keyed suite.
func (p pairKeys) Tag(from, to Principal, msg []byte) [TagSize]byte {
	tag, ok := p.mac(from, to, msg)
	if !ok {
		panic(fmt.Sprintf("crypto: no pair key for principals %d and %d", from, to))
	}
	return tag
}

// VerifyTag implements Suite for every keyed suite.
func (p pairKeys) VerifyTag(from, to Principal, msg, tag []byte) bool {
	want, ok := p.mac(from, to, msg)
	return ok && subtle.ConstantTimeCompare(tag, want[:]) == 1
}

// ---------------------------------------------------------------------------
// Ed25519: the default, matching the paper's standard public-key
// signature assumption ("all machines have the public keys of all other
// machines").

// Ed25519Suite signs with ed25519 keys derived deterministically from a
// cluster seed, so every node (and every test) can reconstruct the same
// keyring without a key-distribution subprotocol.
type Ed25519Suite struct {
	pairKeys
	pub  map[Principal]*verifyKey
	priv map[Principal]ed25519.PrivateKey
}

// NewEd25519Suite builds a keyring holding key pairs for replica
// principals 0..replicas-1 and client principals 0..clients-1, plus the
// pair key of any two of them, all derived from seed. Every participant
// in a simulated cluster shares the full keyring; each real deployment
// would restrict private and pair keys to their owners (see Restrict).
func NewEd25519Suite(seed int64, replicas int, clients int64) *Ed25519Suite {
	s := &Ed25519Suite{
		pairKeys: pairKeys{seed: seed, replicas: replicas, clients: clients},
		pub:      make(map[Principal]*verifyKey, replicas+int(clients)),
		priv:     make(map[Principal]ed25519.PrivateKey, replicas+int(clients)),
	}
	for r := 0; r < replicas; r++ {
		s.add(ReplicaPrincipal(r), seed)
	}
	for c := int64(0); c < clients; c++ {
		s.add(ClientPrincipal(c), seed)
	}
	return s
}

func (s *Ed25519Suite) add(p Principal, seed int64) {
	var material [ed25519.SeedSize]byte
	binary.LittleEndian.PutUint64(material[0:8], uint64(seed))
	binary.LittleEndian.PutUint64(material[8:16], uint64(p))
	material[16] = 0xd5 // domain separation from any other seed derivation
	priv := ed25519.NewKeyFromSeed(hashSeed(material[:]))
	s.priv[p] = priv
	s.pub[p] = newVerifyKey(priv.Public().(ed25519.PublicKey))
}

func hashSeed(b []byte) []byte {
	h := sha256.Sum256(b)
	return h[:ed25519.SeedSize]
}

// Sign implements Suite.
func (s *Ed25519Suite) Sign(signer Principal, msg []byte) []byte {
	priv, ok := s.priv[signer]
	if !ok {
		panic(fmt.Sprintf("crypto: no private key for principal %d", signer))
	}
	return ed25519.Sign(priv, msg)
}

// Verify implements Suite.
func (s *Ed25519Suite) Verify(signer Principal, msg, sig []byte) bool {
	key, ok := s.pub[signer]
	return ok && key.verify(msg, sig)
}

// Name implements Suite.
func (s *Ed25519Suite) Name() string { return "ed25519" }

// Restrict returns a view of s that can verify every signature but sign
// only as owner, and that holds only the pair keys owner is a party to:
// what a single real node would hold. A Byzantine node simulated with a
// restricted suite can forge neither others' signatures nor a tag on a
// channel it is not an end of, matching the adversary model of
// Section 3.1.
func Restrict(s Suite, owner Principal) Suite {
	return &restricted{inner: s, owner: owner}
}

type restricted struct {
	inner Suite
	owner Principal
}

func (r *restricted) Sign(signer Principal, msg []byte) []byte {
	if signer != r.owner {
		panic(fmt.Sprintf("crypto: principal %d attempted to sign as %d", r.owner, signer))
	}
	return r.inner.Sign(signer, msg)
}

func (r *restricted) Verify(signer Principal, msg, sig []byte) bool {
	return r.inner.Verify(signer, msg, sig)
}

func (r *restricted) Tag(from, to Principal, msg []byte) [TagSize]byte {
	if from != r.owner && to != r.owner {
		panic(fmt.Sprintf("crypto: principal %d attempted to tag on the channel %d → %d", r.owner, from, to))
	}
	return r.inner.Tag(from, to, msg)
}

func (r *restricted) VerifyTag(from, to Principal, msg, tag []byte) bool {
	return (from == r.owner || to == r.owner) && r.inner.VerifyTag(from, to, msg, tag)
}

func (r *restricted) Name() string { return r.inner.Name() }

// ---------------------------------------------------------------------------
// HMAC: a cheap stand-in for the signatures only. Sign is a MAC under a
// per-principal key, so — unlike a real signature — any holder of the
// dealer seed can produce one; acceptable inside one simulated trust
// domain (wrap it in Restrict to model a node that cannot) and used for
// the signer-cost ablation and the simulation. Its tags are the same
// real pairwise tags as the Ed25519 suite's.

// HMACSuite signs with HMAC-SHA256 under per-principal keys derived
// from the dealer seed.
type HMACSuite struct {
	pairKeys
	keys map[Principal][]byte
}

// NewHMACSuite derives per-principal MAC keys and the pair keys for the
// same principal population as NewEd25519Suite.
func NewHMACSuite(seed int64, replicas int, clients int64) *HMACSuite {
	s := &HMACSuite{
		pairKeys: pairKeys{seed: seed, replicas: replicas, clients: clients},
		keys:     make(map[Principal][]byte, replicas+int(clients)),
	}
	add := func(p Principal) {
		var material [17]byte
		binary.LittleEndian.PutUint64(material[0:8], uint64(seed))
		binary.LittleEndian.PutUint64(material[8:16], uint64(p))
		material[16] = 0x7a
		k := sha256.Sum256(material[:])
		s.keys[p] = k[:]
	}
	for r := 0; r < replicas; r++ {
		add(ReplicaPrincipal(r))
	}
	for c := int64(0); c < clients; c++ {
		add(ClientPrincipal(c))
	}
	return s
}

// Sign implements Suite.
func (s *HMACSuite) Sign(signer Principal, msg []byte) []byte {
	key, ok := s.keys[signer]
	if !ok {
		panic(fmt.Sprintf("crypto: no MAC key for principal %d", signer))
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(msg)
	return mac.Sum(nil)
}

// Verify implements Suite.
func (s *HMACSuite) Verify(signer Principal, msg, sig []byte) bool {
	key, ok := s.keys[signer]
	if !ok {
		return false
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(msg)
	return hmac.Equal(sig, mac.Sum(nil))
}

// Name implements Suite.
func (s *HMACSuite) Name() string { return "hmac-sha256" }

// ---------------------------------------------------------------------------
// Noop: zero-cost authentication for the upper-bound ablation.
// Verification accepts anything, so it must never be used where a
// Byzantine behaviour is being injected.

// NoopSuite disables signatures and tags entirely.
type NoopSuite struct{}

// Sign implements Suite.
func (NoopSuite) Sign(Principal, []byte) []byte { return nil }

// Verify implements Suite.
func (NoopSuite) Verify(Principal, []byte, []byte) bool { return true }

// Tag implements Suite: the zero tag.
func (NoopSuite) Tag(Principal, Principal, []byte) [TagSize]byte { return [TagSize]byte{} }

// VerifyTag implements Suite.
func (NoopSuite) VerifyTag(Principal, Principal, []byte, []byte) bool { return true }

// Name implements Suite.
func (NoopSuite) Name() string { return "none" }

// NewSuite builds a suite by name — "ed25519", "hmac" or "none", in any
// case — keyed for the same principal population as NewEd25519Suite.
// Callers map an empty name to their own default.
func NewSuite(name string, seed int64, replicas int, clients int64) (Suite, error) {
	switch strings.ToLower(name) {
	case "ed25519":
		return NewEd25519Suite(seed, replicas, clients), nil
	case "hmac":
		return NewHMACSuite(seed, replicas, clients), nil
	case "none":
		return NoopSuite{}, nil
	default:
		return nil, fmt.Errorf("crypto: unknown suite %q (ed25519, hmac, none)", name)
	}
}
