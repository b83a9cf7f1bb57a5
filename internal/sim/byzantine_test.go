package sim

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/ids"
)

// byzantineCase is one actively-Byzantine scenario: a behavior at its
// worst placement with f=1.
type byzantineCase struct {
	name  string
	proto cluster.Protocol
	mode  ids.Mode
	byz   map[ids.ReplicaID]cluster.Behavior
	tweak func(*Config)
}

// config builds the case's run (shared with the golden fingerprints).
func (tc byzantineCase) config() Config {
	cfg := baseConfig(11, tc.proto, tc.mode)
	cfg.Byzantine = tc.byz
	if tc.tweak != nil {
		tc.tweak(&cfg)
	}
	return cfg
}

func byzantineCases() []byzantineCase {
	return []byzantineCase{
		{
			// The untrusted Peacock primary (replica S+0 = 2) equivocates:
			// two validly-signed proposals for the same slot. Honest
			// quorum intersection must prevent both from committing and
			// the view change must route around it.
			name:  "equivocate-primary/peacock",
			proto: cluster.SeeMoRe, mode: ids.Peacock,
			byz: map[ids.ReplicaID]cluster.Behavior{2: cluster.BehaviorEquivocatePrimary},
		},
		{
			// The PBFT view-0 primary equivocates.
			name:  "equivocate-primary/pbft",
			proto: cluster.PBFT,
			byz:   map[ids.ReplicaID]cluster.Behavior{0: cluster.BehaviorEquivocatePrimary},
		},
		{
			// A public replica replays its dead-view votes after every
			// view change; the crash faults in the base config force view
			// changes for it to exploit.
			name:  "replay-stale/lion",
			proto: cluster.SeeMoRe, mode: ids.Lion,
			byz: map[ids.ReplicaID]cluster.Behavior{3: cluster.BehaviorReplayStale},
			tweak: func(c *Config) {
				c.Faults.Crashes = 2
			},
		},
		{
			name:  "replay-stale/pbft",
			proto: cluster.PBFT,
			byz:   map[ids.ReplicaID]cluster.Behavior{1: cluster.BehaviorReplayStale},
			tweak: func(c *Config) {
				c.Faults.Crashes = 2
			},
		},
		{
			// A public replica serves corrupted STATE-REPLY payloads; a
			// lagging replica recovering from a partition must reject
			// them on the checkpoint-certificate digest and take the
			// state from an honest peer instead.
			name:  "corrupt-state/lion",
			proto: cluster.SeeMoRe, mode: ids.Lion,
			byz: map[ids.ReplicaID]cluster.Behavior{2: cluster.BehaviorCorruptState},
			tweak: func(c *Config) {
				c.Timing.CheckpointPeriod = 8
				c.OpsPerClient = 25
				c.Faults.Partitions = 2
			},
		},
		{
			name:  "corrupt-state/pbft",
			proto: cluster.PBFT,
			byz:   map[ids.ReplicaID]cluster.Behavior{2: cluster.BehaviorCorruptState},
			tweak: func(c *Config) {
				c.Timing.CheckpointPeriod = 8
				c.OpsPerClient = 25
				c.Faults.Partitions = 2
			},
		},
	}
}

// TestSimByzantineGreen runs each Byzantine case and requires the honest
// cluster to stay both live (every client finishes) and safe (no
// divergence, clean checker).
func TestSimByzantineGreen(t *testing.T) {
	for _, tc := range byzantineCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res := mustRun(t, tc.config())
			if res.Incomplete > 0 {
				t.Fatalf("liveness lost under %v: %d clients unfinished (end %v)",
					tc.byz, res.Incomplete, res.End)
			}
			for _, v := range Check(res) {
				t.Errorf("safety lost under %v: %s", tc.byz, v)
			}
		})
	}
}
