package sim

import (
	"flag"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/ids"
)

var (
	simSeeds = flag.Int("sim.seeds", 14,
		"number of seeds TestSimSeed explores (seed i runs scenario family i%7)")
	simLeaseSlack = flag.Duration("sim.leaseslack", 0,
		"inject the serve-past-lease-expiry bug into lease-family seeds (validates the checker; any non-zero value should make TestSimSeed fail)")
)

// seedConfig maps one explorer seed to its scenario. Seeds rotate
// through seven families — the five protocol/mode smoke shapes, the
// lease-safety shape, and the resharding shape (family 6, which is
// cluster-driven and dispatched directly by TestSimSeed) — so a seed
// sweep exercises every engine, the fast-read machinery, and live
// migration under seeded faults. The Lion and PBFT families alternate
// rounds under the batched shape (see alternateBatched).
func seedConfig(seed int64) Config {
	switch seed % 7 {
	case 0:
		return alternateBatched(seed, baseConfig(seed, cluster.SeeMoRe, ids.Lion))
	case 1:
		return baseConfig(seed, cluster.SeeMoRe, ids.Dog)
	case 2:
		return baseConfig(seed, cluster.SeeMoRe, ids.Peacock)
	case 3:
		return baseConfig(seed, cluster.Paxos, 0)
	case 4:
		return alternateBatched(seed, baseConfig(seed, cluster.PBFT, 0))
	default:
		return leaseScenario(seed)
	}
}

// alternateBatched puts the batched shape on every other round of a
// family past the pinned smoke set (seeds 0–13, whose golden
// fingerprints are unbatched), so the wide sweep also checks full
// batches against a closing proposal window.
func alternateBatched(seed int64, cfg Config) Config {
	if seed >= 14 && (seed/7)%2 == 1 {
		return batched(cfg)
	}
	return cfg
}

// TestSimSeed is the seed explorer. The default -sim.seeds=14 is the
// pinned smoke set every test run pays for; `make sim-explore` sweeps
// a much larger range. Each seed is an independent subtest, so one
// failing execution reproduces alone:
//
//	go test ./internal/sim -run 'TestSimSeed/seed7$' -sim.seeds 8
//
// A violation's reproduction line is printed with the failure.
func TestSimSeed(t *testing.T) {
	for i := 0; i < *simSeeds; i++ {
		seed := int64(i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			if seed%7 == 6 {
				// The resharding family drives a real elastic cluster
				// (seeded crash or partition mid-handoff) instead of a
				// Config run; its invariants live in the scenario.
				runReshardScenario(t, seed)
				return
			}
			cfg := seedConfig(seed)
			if *simLeaseSlack > 0 && cfg.Leases.Enabled() {
				cfg.LeaseSlack = *simLeaseSlack
			}
			res := mustRun(t, cfg)
			if res.Incomplete > 0 {
				t.Errorf("%d clients never finished (end %v, %d events)",
					res.Incomplete, res.End, res.Events)
			}
			for _, v := range Check(res) {
				t.Errorf("checker: %s", v)
			}
			if t.Failed() {
				extra := ""
				if *simLeaseSlack > 0 {
					extra = fmt.Sprintf(" -sim.leaseslack %v", *simLeaseSlack)
				}
				t.Logf("reproduce: go test ./internal/sim -run 'TestSimSeed/seed%d$' -sim.seeds %d%s",
					seed, seed+1, extra)
			}
		})
	}
}
