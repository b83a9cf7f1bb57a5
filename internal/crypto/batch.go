package crypto

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha512"
	"runtime"
	"sync"

	"repro/internal/crypto/edwards25519"
)

// True Ed25519 batch verification. A single verification checks
// [S]B = R + [k]A with its own full run of ~256 curve doublings; a batch
// of n signatures can instead be checked with one multi-scalar
// multiplication in which all 2n+1 terms share one run of doublings:
//
//	[8]( [-Σ z_i·s_i]B + Σ [z_i]R_i + Σ [z_i·k_i]A_i ) == O
//
// with independent 128-bit random coefficients z_i, so a forger cannot
// craft signatures whose errors cancel across the batch (each z_i is
// fresh per call; the chance any invalid batch passes is ≤ 2^-128).
// This is the standard batch equation (Bernstein et al., "High-speed
// high-security signatures"), the same one ed25519consensus implements.
//
// Semantics versus crypto/ed25519.Verify: rejection is always exact —
// a failed batch falls back to per-signature stdlib verification, so
// any reported bad index and any false result agree with
// ed25519.Verify. Acceptance uses the cofactored equation above, which
// admits every signature stdlib admits; the two can only disagree on
// maliciously crafted signatures with small-order components, which no
// honest signer emits (and which stdlib itself accepts or rejects
// inconsistently across implementations — cofactored acceptance is the
// direction batch-capable verifiers standardize on).

// BatchItem is one (signer, message, signature) triple of a batch.
type BatchItem struct {
	Signer Principal
	Msg    []byte
	Sig    []byte
}

// minBatchVerify is the smallest batch worth the equation setup (NAF
// tables, random coefficients); below it, per-signature verification is
// cheaper.
const minBatchVerify = 4

// minBatchChunk is the smallest per-worker sub-batch when a large batch
// fans out across CPUs: the shared-doubling win grows with sub-batch
// size, so splitting finer than this loses more arithmetic than the
// extra core recovers.
const minBatchChunk = 8

// batchCapable is the optional Suite extension BatchVerify dispatches
// on. Suites without it fall back to parallel per-item verification.
type batchCapable interface {
	batchVerify(items []BatchItem) (bool, int)
}

// BatchVerify reports whether every triple in items carries a valid
// signature. On failure it also returns the index of the first invalid
// item (established by per-item fallback, so it is exact and agrees
// with Suite.Verify); on success the index is -1.
//
// For the Ed25519 suite this performs true batch verification — one
// multi-scalar pass over the whole batch, split across CPUs for large
// batches — instead of n independent verifications. Other suites verify
// item-by-item on the VerifyAll worker pool.
func BatchVerify(s Suite, items []BatchItem) (bool, int) {
	if len(items) == 0 {
		return true, -1
	}
	if bc, ok := s.(batchCapable); ok {
		return bc.batchVerify(items)
	}
	return verifyItems(s, items)
}

// verifyItems is the generic path: parallel per-item verification, with
// a serial rescan on failure to pin the first bad index.
func verifyItems(s Suite, items []BatchItem) (bool, int) {
	if VerifyAll(len(items), func(i int) bool {
		return s.Verify(items[i].Signer, items[i].Msg, items[i].Sig)
	}) {
		return true, -1
	}
	for i := range items {
		if !s.Verify(items[i].Signer, items[i].Msg, items[i].Sig) {
			return false, i
		}
	}
	// A concurrent caller mutated items between the two passes; treat
	// the batch as bad without naming an index.
	return false, 0
}

// batchVerify implements batchCapable for the Ed25519 suite.
func (s *Ed25519Suite) batchVerify(items []BatchItem) (bool, int) {
	n := len(items)
	if n < minBatchVerify {
		return verifyItems(s, items)
	}
	// One crypto/rand read covers every chunk's coefficients.
	zs := make([]byte, 16*n)
	if _, err := rand.Read(zs); err != nil {
		return verifyItems(s, items)
	}
	workers := runtime.GOMAXPROCS(0)
	if max := n / minBatchChunk; workers > max {
		workers = max
	}
	if workers <= 1 {
		return s.batchVerifyChunk(items, zs, 0)
	}
	// Static chunking: contiguous sub-batches of near-equal size, each
	// checked with its own batch equation. Failures re-verify only their
	// own chunk, so one bad signature costs one chunk of fallback.
	type result struct {
		ok  bool
		bad int
	}
	results := make([]result, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		go func(w, lo, hi int) {
			defer wg.Done()
			ok, bad := s.batchVerifyChunk(items[lo:hi], zs[16*lo:16*hi], lo)
			results[w] = result{ok, bad}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, r := range results {
		if !r.ok {
			return false, r.bad
		}
	}
	return true, -1
}

// batchVerifyChunk checks one contiguous sub-batch with the cofactored
// batch equation. base is the chunk's offset into the caller's batch,
// applied to any reported bad index. zs holds 16 random bytes per item.
func (s *Ed25519Suite) batchVerifyChunk(items []BatchItem, zs []byte, base int) (bool, int) {
	n := len(items)
	// scalars/points hold [-Σz·s]B plus per-item [z]R and [z·k]A terms.
	scalars := make([]*edwards25519.Scalar, 0, 2*n+1)
	points := make([]*edwards25519.Point, 0, 2*n+1)
	// Four scalars per item: s and k are scratch, z and z·k enter the
	// equation (plus the one generator coefficient).
	scalarBack := make([]edwards25519.Scalar, 4*n+1)
	pointBack := make([]edwards25519.Point, n) // R points; A points come from the key cache
	zsSum := edwards25519.NewScalar()
	var zbuf [32]byte
	var hbuf [64]byte
	next := 0
	takeScalar := func() *edwards25519.Scalar { sc := &scalarBack[next]; next++; return sc }

	bScalar := takeScalar() // filled after the loop
	scalars = append(scalars, bScalar)
	points = append(points, edwards25519.NewGeneratorPoint())

	for i := range items {
		it := &items[i]
		A, ok := s.pts[it.Signer]
		if !ok || len(it.Sig) != ed25519.SignatureSize {
			return s.fallbackChunk(items, base)
		}
		R, err := pointBack[i].SetBytes(it.Sig[:32])
		if err != nil {
			return s.fallbackChunk(items, base)
		}
		si, err := takeScalar().SetCanonicalBytes(it.Sig[32:])
		if err != nil {
			// Non-canonical S: stdlib rejects it too, but let the
			// fallback say so uniformly.
			return s.fallbackChunk(items, base)
		}

		// k = SHA-512(R ‖ A ‖ msg) reduced mod l.
		h := sha512.New()
		h.Write(it.Sig[:32])
		h.Write(s.pub[it.Signer])
		h.Write(it.Msg)
		k, err := takeScalar().SetUniformBytes(h.Sum(hbuf[:0]))
		if err != nil {
			return s.fallbackChunk(items, base)
		}

		// z: an independent 128-bit coefficient (canonical: < 2^128 < l).
		copy(zbuf[:16], zs[16*i:])
		z, err := takeScalar().SetCanonicalBytes(zbuf[:])
		if err != nil {
			return s.fallbackChunk(items, base)
		}

		zsSum.MultiplyAdd(z, si, zsSum)
		scalars = append(scalars, z)
		points = append(points, R)
		scalars = append(scalars, takeScalar().Multiply(z, k))
		points = append(points, A)
	}
	bScalar.Negate(zsSum)

	p := new(edwards25519.Point).VarTimeMultiScalarMult(scalars, points)
	if p.MultByCofactor(p).Equal(edwards25519.NewIdentityPoint()) == 1 {
		return true, -1
	}
	return s.fallbackChunk(items, base)
}

// fallbackChunk re-verifies a failed (or unparseable) chunk signature by
// signature with the stdlib verifier, returning the first bad index
// offset by base. A batch that fails only because of coefficient
// cancellation bad luck (probability ≤ 2^-128) would verify clean here,
// which is the correct answer.
func (s *Ed25519Suite) fallbackChunk(items []BatchItem, base int) (bool, int) {
	for i := range items {
		if !s.Verify(items[i].Signer, items[i].Msg, items[i].Sig) {
			return false, base + i
		}
	}
	return true, -1
}

// batchVerify implements batchCapable for restricted views: verification
// is unrestricted, so it simply delegates to the full suite.
func (r *restricted) batchVerify(items []BatchItem) (bool, int) {
	return BatchVerify(r.inner, items)
}
