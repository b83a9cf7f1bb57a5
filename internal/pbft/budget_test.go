package pbft

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/storage"
)

// budgetShapes are the two comparison lines at m = 1: PBFT on 3f+1 = 4
// replicas with quorum 3, and S-UpRight with c = 1 on 3m+2c+1 = 6
// replicas with quorum 2m+c+1 = 4.
var budgetShapes = []struct {
	name       string
	byz, crash int
}{
	{"PBFT", 1, 0},
	{"S-UpRight", 1, 1},
}

// budgetOps is how many sequential Puts a budget test runs: below the
// checkpoint period, so CHECKPOINTs and snapshots are not per-request
// cost.
const budgetOps = 12

// budgetHarness builds, without starting it, the quiet cluster of one
// budget shape over suite: no retransmission and no suspicion, however
// loaded the host — either would add work that is not the budget's.
func budgetHarness(t *testing.T, byz, crash int, suite crypto.Suite, storeOf func(ids.ReplicaID) storage.Store) *harness {
	t.Helper()
	return buildHarness(t, byz, crash, suite, 95, config.Timing{
		ViewChange:       time.Minute,
		ClientRetry:      time.Minute,
		CheckpointPeriod: 16,
		HighWaterMarkLag: 256,
	}, storeOf)
}

// runBudget starts the cluster, runs budgetOps sequential Puts and waits
// until every replica has executed every one of them.
func (h *harness) runBudget() {
	h.t.Helper()
	h.start()
	c := h.client(0)
	for i := 0; i < budgetOps; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), "v")
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, r := range h.replicas {
		for r.LastExecuted() != budgetOps {
			if time.Now().After(deadline) {
				h.t.Fatalf("replica %d executed %d of %d requests", r.ID(), r.LastExecuted(), budgetOps)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// authBudget is what one committed request costs a cluster of N
// replicas and quorum Q at batch 1: signatures, signature
// verifications, tags and tag checks, client included. PBFT
// authenticates as the engine's authTable says, so:
//   - signs: the client's request, the primary's PRE-PREPARE and one
//     PREPARE per backup: 2 + (N-1);
//   - verifications: the primary's check of the client's signature, and
//     at each backup the PRE-PREPARE's signature and the client's inside
//     it: 1 + 2(N-1). Then the PREPARE votes: each replica checks its
//     peers' until it sends its COMMIT and skips the rest. The primary
//     checks Q-1 of them. A backup checks Q-2 when the PRE-PREPARE comes
//     first, and all N-2 when every vote overtakes it, hence the range;
//   - tags: the client's authenticator (N), a COMMIT vote to each peer
//     from every replica (N(N-1)) and a REPLY from every replica (N);
//   - tag checks: the Q-1 COMMIT votes each replica takes before its
//     slot commits (later ones meet a committed slot and are dropped
//     unchecked), and the Byz+1 REPLYs the client waits for.
//
// PBFT is N=4, Q=3; S-UpRight is N=6, Q=4.
var authBudget = map[string]struct{ signs, minVerifies, maxVerifies, tags, tagChecks uint64 }{
	"PBFT":      {5, 12, 15, 20, 10},
	"S-UpRight": {7, 24, 34, 42, 20},
}

// TestAuthBudgetPerOp pins PBFT's and S-UpRight's per-request
// authentication budget with a counting suite, as core's test of the
// same name pins SeeMoRe's modes.
func TestAuthBudgetPerOp(t *testing.T) {
	const ops = budgetOps
	for _, sh := range budgetShapes {
		t.Run(sh.name, func(t *testing.T) {
			n := 3*sh.byz + 2*sh.crash + 1
			counted := crypto.Count(crypto.NewEd25519Suite(95, n, 1))
			h := budgetHarness(t, sh.byz, sh.crash, counted, nil)
			h.runBudget()
			got, want := counted.Totals(), authBudget[sh.name]
			t.Logf("per request: %.2f signatures, %.2f verifications, %.2f tags, %.2f tag checks",
				float64(got.Signs)/ops, float64(got.Verifies)/ops, float64(got.Tags)/ops, float64(got.TagVerifies)/ops)
			if got.Signs != want.signs*ops {
				t.Errorf("%d signatures for %d requests, want %d each", got.Signs, ops, want.signs)
			}
			if got.Verifies < want.minVerifies*ops || got.Verifies > want.maxVerifies*ops {
				t.Errorf("%d signature verifications for %d requests, want %d–%d each",
					got.Verifies, ops, want.minVerifies, want.maxVerifies)
			}
			if got.Tags != want.tags*ops || got.TagVerifies != want.tagChecks*ops {
				t.Errorf("%d tags and %d tag checks for %d requests, want %d and %d each",
					got.Tags, got.TagVerifies, ops, want.tags, want.tagChecks)
			}
			if got.BadVerifies+got.BadTagVerifies != 0 {
				t.Errorf("honest run rejected %d signatures and %d tags", got.BadVerifies, got.BadTagVerifies)
			}
		})
	}
}

// countingStore counts what a replica asks of its disk, into counters
// every replica's store shares.
type countingStore struct {
	*storage.Mem
	appends, syncs *atomic.Uint64
}

func (s countingStore) Append(rec storage.Record) error {
	s.appends.Add(1)
	return s.Mem.Append(rec)
}

func (s countingStore) Sync() error {
	s.syncs.Add(1)
	return s.Mem.Sync()
}

// syncBudget is what one committed request costs the cluster's disks at
// batch 1, every replica journaling: appends exactly, syncs at most.
// Appends: the primary's proposal, COMMIT vote and commit (3), and each
// backup's proposal, PREPARE vote, COMMIT vote and commit (4 × (N-1)).
// A sync comes from the outbox, once per drain that sends after
// appending, so each replica syncs at most three times: before its
// PRE-PREPARE or PREPARE, before its COMMIT vote, and before the REPLY
// its commit record rides with (3N).
var syncBudget = map[string]struct{ appends, maxSyncs uint64 }{
	"PBFT":      {15, 12},
	"S-UpRight": {23, 18},
}

// TestSyncBudgetPerOp pins PBFT's and S-UpRight's per-request journal
// budget with a counting store, as core's test of the same name does
// for SeeMoRe's modes.
func TestSyncBudgetPerOp(t *testing.T) {
	const ops = budgetOps
	for _, sh := range budgetShapes {
		t.Run(sh.name, func(t *testing.T) {
			var appends, syncs atomic.Uint64
			n := 3*sh.byz + 2*sh.crash + 1
			h := budgetHarness(t, sh.byz, sh.crash, crypto.NewEd25519Suite(95, n, 1), func(ids.ReplicaID) storage.Store {
				return countingStore{Mem: storage.NewMem(), appends: &appends, syncs: &syncs}
			})
			boot := appends.Load() // each pristine replica stamps its boot view
			h.runBudget()
			gotAppends, gotSyncs := appends.Load()-boot, syncs.Load()
			t.Logf("per request: %.2f appends, %.2f syncs", float64(gotAppends)/ops, float64(gotSyncs)/ops)
			want := syncBudget[sh.name]
			if gotAppends != want.appends*ops {
				t.Errorf("%d journal appends for %d requests, want %d per request", gotAppends, ops, want.appends)
			}
			if gotSyncs > want.maxSyncs*ops {
				t.Errorf("%d journal syncs for %d requests, want at most %d per request", gotSyncs, ops, want.maxSyncs)
			}
		})
	}
}
