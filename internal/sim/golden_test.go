package sim

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/ids"
)

// goldenFile pins the Fingerprint of a fixed set of executions, one
// "name fingerprint" line each. TestSimDeterminism only proves a seed
// agrees with itself inside one process; this file is what makes
// "byte-identical before and after a refactor" checkable. A line
// changes only by hand, copied from the failure message, in the commit
// that explains why the execution legitimately changed.
const goldenFile = "testdata/fingerprints.golden"

// recoverySeeds picks, per shape, a seed whose recoveryConfig run
// stabilizes checkpoints, completes a view change and installs a state
// transfer (TestSimGoldenFingerprints enforces all three).
var recoverySeeds = map[string]int64{
	"lion": 4, "dog": 24, "peacock": 4, "paxos": 4, "pbft": 6, "upright": 1,
}

// recoveryConfig is the recovery-heavy shape. The base seeds finish
// their ~45 operations in ~10ms of virtual time — before the first
// generated fault, and 25 writes against a checkpoint period of 32 —
// so they barely reach checkpointing, state transfer or view change.
// Here the period is 8, the workload is long enough to outlast the
// faults, and the faults start early and come close together.
func recoveryConfig(seed int64, proto cluster.Protocol, mode ids.Mode) Config {
	cfg := baseConfig(seed, proto, mode)
	cfg.Timing.CheckpointPeriod = 8
	cfg.OpsPerClient = 150
	cfg.Faults = FaultPlan{
		Crashes: 2, Partitions: 2,
		Start:        2 * time.Millisecond,
		MeanGap:      5 * time.Millisecond,
		MeanDowntime: 20 * time.Millisecond,
	}
	if mode == ids.Peacock {
		// Generated crashes only hit the private cloud, which never
		// deposes Peacock's untrusted primary (replica S+0 = 2); one of
		// the two partitions is therefore a scripted isolation of it.
		cfg.Faults.Partitions = 1
		cfg.Script = []ScriptedFault{
			{At: 8 * time.Millisecond, Action: PartitionPeers(2)},
			{At: 40 * time.Millisecond, Action: HealPeers(2)},
		}
	}
	return cfg
}

// batchedSeeds is recoverySeeds for the batched, pipelined recovery
// runs: the same three requirements, met under the batched shape.
var batchedSeeds = map[string]int64{
	"lion": 4, "dog": 24, "peacock": 3, "paxos": 4, "pbft": 4, "upright": 1,
}

// batched puts the lion_batched benchmark workload's knobs on a run:
// eight requests per slot and four slots in flight. 48 closed-loop
// clients are more than the 4 × 8 requests an open window holds, so
// batches fill and the window closes in every shape.
func batched(cfg Config) Config {
	cfg.Batching = config.Batching{BatchSize: 8}
	cfg.Pipelining = config.Pipelining{Depth: 4}
	cfg.Clients = 48
	return cfg
}

type goldenCase struct {
	name string
	cfg  Config
	// recovery marks the cases that must demonstrably exercise the
	// recovery machinery, so their golden lines are not vacuous.
	recovery bool
}

func goldenCases() []goldenCase {
	var out []goldenCase
	// The Config-run seeds of TestSimSeed's pinned 14 (the reshard family,
	// seeds 6 and 13, drives a goroutine cluster and has no fingerprint).
	for seed := int64(0); seed < 14; seed++ {
		if seed%7 != 6 {
			out = append(out, goldenCase{name: fmt.Sprintf("seed%d", seed), cfg: seedConfig(seed)})
		}
	}
	for _, sh := range shapes {
		out = append(out, goldenCase{name: "seed42/" + sh.name, cfg: baseConfig(42, sh.proto, sh.mode)})
	}
	for _, tc := range byzantineCases() {
		out = append(out, goldenCase{name: "byzantine/" + tc.name, cfg: tc.config()})
	}
	for _, sh := range shapes {
		out = append(out, goldenCase{
			name:     "recovery/" + sh.name,
			cfg:      recoveryConfig(recoverySeeds[sh.name], sh.proto, sh.mode),
			recovery: true,
		})
	}
	for _, sh := range shapes {
		out = append(out, goldenCase{name: "batched/" + sh.name, cfg: batched(baseConfig(42, sh.proto, sh.mode))})
	}
	for _, sh := range shapes {
		out = append(out, goldenCase{
			name:     "batched-recovery/" + sh.name,
			cfg:      batched(recoveryConfig(batchedSeeds[sh.name], sh.proto, sh.mode)),
			recovery: true,
		})
	}
	return out
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, fp, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		golden[name] = fp
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// installedTransfer reports whether some replica skipped a slot another
// replica executed yet executed a later one — a commit-trace gap only a
// state transfer produces (no-op slots leave no trace anywhere, so they
// never count).
func installedTransfer(res *Result) bool {
	executed := make(map[uint64]bool)
	for _, trace := range res.Traces {
		for _, c := range trace {
			executed[c.Seq] = true
		}
	}
	for _, trace := range res.Traces {
		mine := make(map[uint64]bool, len(trace))
		var last uint64
		for _, c := range trace {
			mine[c.Seq] = true
			last = c.Seq
		}
		for seq := range executed {
			if seq < last && !mine[seq] {
				return true
			}
		}
	}
	return false
}

// TestSimGoldenFingerprints fails on any difference between a pinned
// execution and its committed fingerprint.
func TestSimGoldenFingerprints(t *testing.T) {
	golden := readGolden(t)
	cases := goldenCases()
	if len(golden) != len(cases) {
		t.Errorf("%s has %d lines, want one per case (%d)", goldenFile, len(golden), len(cases))
	}
	for _, gc := range cases {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			res := mustRun(t, gc.cfg)
			if res.Incomplete > 0 {
				t.Errorf("%d clients never finished (end %v)", res.Incomplete, res.End)
			}
			for _, v := range Check(res) {
				t.Errorf("checker: %s", v)
			}
			if gc.recovery {
				var stable uint64
				var view ids.View
				for id := range res.Stable {
					stable = max(stable, res.Stable[id])
					view = max(view, res.Views[id])
				}
				if stable == 0 {
					t.Errorf("no stable checkpoint above 0: the run never checkpointed")
				}
				if view == 0 {
					t.Errorf("no completed view change: every replica ended in view 0")
				}
				if !installedTransfer(res) {
					t.Errorf("no installed state transfer: no commit trace has a gap")
				}
			}
			want, ok := golden[gc.name]
			if got := res.Fingerprint(); !ok {
				t.Errorf("no golden line; add to %s:\n%s %s", goldenFile, gc.name, got)
			} else if got != want {
				t.Errorf("execution changed; if intended, edit the line in %s to:\n%s %s", goldenFile, gc.name, got)
			}
		})
	}
}
