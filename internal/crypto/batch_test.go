package crypto

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"testing"
)

// makeBatch signs count messages, cycling across the suite's replica
// principals so batches exercise multiple public keys.
func makeBatch(s Suite, replicas, count int, rng *rand.Rand) []BatchItem {
	items := make([]BatchItem, count)
	for i := range items {
		p := ReplicaPrincipal(i % replicas)
		msg := make([]byte, 16+rng.Intn(200))
		rng.Read(msg)
		items[i] = BatchItem{Signer: p, Msg: msg, Sig: s.Sign(p, msg)}
	}
	return items
}

// checkAgainstStdlib re-derives the expected verdict with ed25519.Verify
// directly (not via the suite under test) and compares.
func checkAgainstStdlib(t *testing.T, s *Ed25519Suite, items []BatchItem, ok bool, bad int) {
	t.Helper()
	wantOK, wantBad := true, -1
	for i := range items {
		key := s.pub[items[i].Signer]
		if key == nil || len(items[i].Sig) != ed25519.SignatureSize ||
			!ed25519.Verify(key.pub[:], items[i].Msg, items[i].Sig) {
			wantOK, wantBad = false, i
			break
		}
	}
	if ok != wantOK || bad != wantBad {
		t.Fatalf("BatchVerify = (%v, %d), stdlib says (%v, %d)", ok, bad, wantOK, wantBad)
	}
}

// TestBatchVerifyAgreesWithStdlib drives randomized batches — valid ones
// and ones with a single corrupted signature at a random position — and
// requires exact agreement with crypto/ed25519.Verify, including the
// reported first-bad index.
func TestBatchVerifyAgreesWithStdlib(t *testing.T) {
	s := NewEd25519Suite(7, 8, 4)
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 5, 16, 33} {
		for trial := 0; trial < 4; trial++ {
			items := makeBatch(s, 8, n, rng)
			ok, bad := BatchVerify(s, items)
			checkAgainstStdlib(t, s, items, ok, bad)
			if !ok {
				t.Fatalf("n=%d: honest batch rejected at %d", n, bad)
			}

			// One bad signature at a random index: flip a bit in the
			// signature, the message, or attribute it to the wrong signer.
			evil := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				items[evil].Sig = bytes.Clone(items[evil].Sig)
				items[evil].Sig[rng.Intn(len(items[evil].Sig))] ^= 1 << uint(rng.Intn(8))
			case 1:
				items[evil].Msg = bytes.Clone(items[evil].Msg)
				items[evil].Msg[rng.Intn(len(items[evil].Msg))] ^= 1
			case 2:
				items[evil].Signer = ReplicaPrincipal((int(items[evil].Signer) + 1) % 8)
			}
			ok, bad = BatchVerify(s, items)
			checkAgainstStdlib(t, s, items, ok, bad)
			if ok || bad != evil {
				t.Fatalf("n=%d: corrupted index %d, BatchVerify said (%v, %d)", n, evil, ok, bad)
			}
		}
	}
}

// TestBatchVerifyMalformedItems covers items that are not signatures at
// all: wrong-length signatures, unknown signers, non-canonical S, and an
// R encoding that is not a curve point.
func TestBatchVerifyMalformedItems(t *testing.T) {
	s := NewEd25519Suite(7, 4, 0)
	rng := rand.New(rand.NewSource(1))
	for name, corrupt := range map[string]func(it *BatchItem){
		"short-sig":      func(it *BatchItem) { it.Sig = it.Sig[:40] },
		"unknown-signer": func(it *BatchItem) { it.Signer = ReplicaPrincipal(99) },
		"non-canonical-s": func(it *BatchItem) {
			it.Sig = bytes.Clone(it.Sig)
			for i := 32; i < 64; i++ {
				it.Sig[i] = 0xff // ≥ l and with high bit set: rejected everywhere
			}
		},
		"bad-r-encoding": func(it *BatchItem) {
			it.Sig = bytes.Clone(it.Sig)
			for i := 0; i < 32; i++ {
				it.Sig[i] = 0xff // y ≥ p: not a valid point encoding
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			for _, evil := range []int{0, 3, 7} {
				items := makeBatch(s, 4, 8, rng)
				corrupt(&items[evil])
				ok, bad := BatchVerify(s, items)
				if ok || bad != evil {
					t.Fatalf("corrupted index %d, BatchVerify said (%v, %d)", evil, ok, bad)
				}
			}
		})
	}
}

// TestBatchVerifyEmptyAndSmall pins the edge cases: an empty batch
// verifies with no bad index, and a batch of a few items names the one
// that fails.
func TestBatchVerifyEmptyAndSmall(t *testing.T) {
	s := NewEd25519Suite(7, 4, 0)
	if ok, bad := BatchVerify(s, nil); !ok || bad != -1 {
		t.Fatalf("empty batch: got (%v, %d)", ok, bad)
	}
	rng := rand.New(rand.NewSource(2))
	items := makeBatch(s, 4, 3, rng)
	if ok, bad := BatchVerify(s, items); !ok || bad != -1 {
		t.Fatalf("small batch: got (%v, %d)", ok, bad)
	}
	items[1].Msg = []byte("tampered")
	if ok, bad := BatchVerify(s, items); ok || bad != 1 {
		t.Fatalf("small tampered batch: got (%v, %d)", ok, bad)
	}
}

// TestBatchVerifyRestrictedSuite checks that a node-local restricted view
// verifies every signer's signatures (verification is unrestricted).
func TestBatchVerifyRestrictedSuite(t *testing.T) {
	s := NewEd25519Suite(7, 4, 0)
	r := Restrict(s, ReplicaPrincipal(0))
	rng := rand.New(rand.NewSource(3))
	items := makeBatch(s, 4, 16, rng)
	if ok, bad := BatchVerify(r, items); !ok || bad != -1 {
		t.Fatalf("restricted suite rejected honest batch at %d", bad)
	}
	items[9].Msg = []byte("tampered")
	if ok, bad := BatchVerify(r, items); ok || bad != 9 {
		t.Fatalf("restricted suite: got (%v, %d), want (false, 9)", ok, bad)
	}
}

// TestBatchVerifyOtherSuites checks the same loop under the HMAC and
// no-op suites.
func TestBatchVerifyOtherSuites(t *testing.T) {
	for _, s := range []Suite{NewHMACSuite(7, 4, 0), NoopSuite{}} {
		t.Run(s.Name(), func(t *testing.T) {
			items := make([]BatchItem, 16)
			for i := range items {
				p := ReplicaPrincipal(i % 4)
				msg := []byte(fmt.Sprintf("msg-%d", i))
				items[i] = BatchItem{Signer: p, Msg: msg, Sig: s.Sign(p, msg)}
			}
			if ok, bad := BatchVerify(s, items); !ok || bad != -1 {
				t.Fatalf("honest batch rejected at %d", bad)
			}
			if s.Name() == "none" {
				return // noop accepts everything; nothing to corrupt
			}
			items[5].Msg = []byte("tampered")
			if ok, bad := BatchVerify(s, items); ok || bad != 5 {
				t.Fatalf("got (%v, %d), want (false, 5)", ok, bad)
			}
		})
	}
}

// TestBatchVerifyManyBadSignatures checks the first-bad-index contract
// when several items are invalid at once.
func TestBatchVerifyManyBadSignatures(t *testing.T) {
	s := NewEd25519Suite(7, 4, 0)
	rng := rand.New(rand.NewSource(4))
	items := makeBatch(s, 4, 32, rng)
	for _, i := range []int{30, 11, 19} {
		items[i].Msg = []byte("tampered")
	}
	if ok, bad := BatchVerify(s, items); ok || bad != 11 {
		t.Fatalf("got (%v, %d), want (false, 11)", ok, bad)
	}
}
