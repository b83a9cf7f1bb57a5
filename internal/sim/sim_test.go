package sim

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/ids"
)

// baseConfig is the standard simulation shape the tests (and the seed
// explorer) run: a small cluster, a mixed workload, a couple of
// generated faults.
func baseConfig(seed int64, proto cluster.Protocol, mode ids.Mode) Config {
	cfg := Config{
		Seed:         seed,
		Protocol:     proto,
		Mode:         mode,
		Crash:        1,
		Byz:          1,
		Clients:      3,
		OpsPerClient: 15,
		Keys:         3,
		ReadFraction: 0.4,
		Faults:       FaultPlan{Crashes: 1, Partitions: 1},
	}
	if proto == cluster.SeeMoRe && mode != ids.Peacock {
		cfg.ReadFraction = 0.5
		cfg.LeasedFraction = 0.3
		cfg.StaleFraction = 0.3
		cfg.MaxStaleness = 50 * time.Millisecond
		cfg.Leases = config.Leases{
			Duration:     25 * time.Millisecond,
			MaxClockSkew: 5 * time.Millisecond,
		}
	}
	return cfg
}

// shapes are the five protocol shapes every sim test family covers.
var shapes = []struct {
	name  string
	proto cluster.Protocol
	mode  ids.Mode
}{
	{"lion", cluster.SeeMoRe, ids.Lion},
	{"dog", cluster.SeeMoRe, ids.Dog},
	{"peacock", cluster.SeeMoRe, ids.Peacock},
	{"paxos", cluster.Paxos, 0},
	{"pbft", cluster.PBFT, 0},
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestSimSmoke runs one small deterministic execution per protocol and
// requires a clean checker verdict with every client finishing.
func TestSimSmoke(t *testing.T) {
	for _, tc := range shapes {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res := mustRun(t, baseConfig(7, tc.proto, tc.mode))
			if res.Incomplete > 0 {
				t.Fatalf("%d clients never finished (end %v, %d events)",
					res.Incomplete, res.End, res.Events)
			}
			for _, v := range Check(res) {
				t.Errorf("checker: %s", v)
			}
		})
	}
}

// TestSimDeterminism runs every protocol twice on the same seed and
// requires byte-identical fingerprints — identical client histories and
// identical commit traces.
func TestSimDeterminism(t *testing.T) {
	for _, tc := range shapes {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(42, tc.proto, tc.mode)
			a := mustRun(t, cfg)
			b := mustRun(t, cfg)
			fa, fb := a.Fingerprint(), b.Fingerprint()
			if fa != fb {
				t.Fatalf("same seed, different executions:\n  run 1: %s (%d ops, %d events)\n  run 2: %s (%d ops, %d events)",
					fa, len(a.Ops), a.Events, fb, len(b.Ops), b.Events)
			}
			if c := baseConfig(43, tc.proto, tc.mode); mustRun(t, c).Fingerprint() == fa {
				t.Fatalf("different seeds produced identical executions")
			}
		})
	}
}
