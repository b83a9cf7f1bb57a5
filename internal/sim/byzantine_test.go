package sim

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/crypto"
	"repro/internal/ids"
)

// byzantineCase is one actively-Byzantine scenario: a behavior at its
// worst placement with f=1.
type byzantineCase struct {
	name  string
	proto cluster.Protocol
	mode  ids.Mode
	byz   map[ids.ReplicaID]cluster.Behavior
	// recovery runs the case on the recovery-heavy shape (the shape's
	// pinned recoveryConfig seed): the attacks that feed on view changes
	// and state transfers never fire on the base shape, which finishes
	// before its first fault.
	recovery string
	// bites proves the run was not vacuous: the adversary acted, and its
	// frames got as far — accepted as authentic, or refused at
	// authentication — as the case says they must.
	bites func(*Result) error
}

// config builds the case's run (shared with the golden fingerprints).
func (tc byzantineCase) config() Config {
	cfg := baseConfig(11, tc.proto, tc.mode)
	if tc.recovery != "" {
		cfg = recoveryConfig(recoverySeeds[tc.recovery], tc.proto, tc.mode)
	}
	cfg.Byzantine = tc.byz
	return cfg
}

// attacked requires the adversary to have sent something an honest node
// would not have.
func attacked(res *Result) error {
	if res.Attacks == 0 {
		return errors.New("the adversary never altered, forged or replayed a frame")
	}
	return nil
}

// signaturesAccepted requires that no honest check ever refused a
// signature claiming to be id's: its lies were authentic, so whatever
// stopped them was the protocol, not the signature check.
func signaturesAccepted(res *Result, id ids.ReplicaID) error {
	if n := res.Auth.By(crypto.ReplicaPrincipal(int(id))).BadVerifies; n != 0 {
		return fmt.Errorf("%d signatures claiming replica %d were refused: its lies died at authentication", n, id)
	}
	return nil
}

// tagsRefused requires that honest replicas refused tags claiming to be
// from victim: the forgeries reached the tag check and failed it.
func tagsRefused(res *Result, victim ids.ReplicaID) error {
	if res.Auth.By(crypto.ReplicaPrincipal(int(victim))).BadTagVerifies == 0 {
		return fmt.Errorf("no tag claiming replica %d was ever refused: the forgeries never reached a tag check", victim)
	}
	return nil
}

// sealsRefused requires that the sealed proposals forged in the trusted
// primary's name died at the tag check and nowhere else: tags claiming
// the primary were refused, and no replica verified a single signature
// claiming it — not the forger's, which would show as refused, and not
// the genuine ones on the honest proposals either. (The base shape ends
// below its first CHECKPOINT, the one message of the primary's whose
// signature is verified first-hand.)
func sealsRefused(res *Result, primary ids.ReplicaID) error {
	if n := res.Auth.By(crypto.ReplicaPrincipal(int(primary))); n.Verifies != 0 {
		return fmt.Errorf("%d signatures claiming primary %d were verified on receipt (%d refused): a proposal got as far as a signature check",
			n.Verifies, primary, n.BadVerifies)
	}
	return tagsRefused(res, primary)
}

func viewChanged(res *Result) error {
	for _, v := range res.Views {
		if v > 0 {
			return nil
		}
	}
	return errors.New("every honest replica ended in view 0")
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
			bites: func(res *Result) error {
				return errors.Join(attacked(res), signaturesAccepted(res, 2), viewChanged(res))
			},
		},
		{
			// The PBFT view-0 primary equivocates.
			name:  "equivocate-primary/pbft",
			proto: cluster.PBFT,
			byz:   map[ids.ReplicaID]cluster.Behavior{0: cluster.BehaviorEquivocatePrimary},
			bites: func(res *Result) error {
				return errors.Join(attacked(res), signaturesAccepted(res, 0), viewChanged(res))
			},
		},
		{
			// A public replica replays its dead-view votes after every
			// view change the run's faults force. The replays are the
			// originals bit for bit, so only the view check stops them.
			name:  "replay-stale/lion",
			proto: cluster.SeeMoRe, mode: ids.Lion, recovery: "lion",
			byz:   map[ids.ReplicaID]cluster.Behavior{3: cluster.BehaviorReplayStale},
			bites: attacked,
		},
		{
			name:  "replay-stale/pbft",
			proto: cluster.PBFT, recovery: "pbft",
			byz:   map[ids.ReplicaID]cluster.Behavior{1: cluster.BehaviorReplayStale},
			bites: attacked,
		},
		{
			// A public replica would serve corrupted STATE-REPLY payloads —
			// but in Lion a lagging replica asks only the trusted primary
			// for state, so the traitor is never in a position to: the run
			// must install a state transfer without it having sent one.
			name:  "corrupt-state/lion",
			proto: cluster.SeeMoRe, mode: ids.Lion, recovery: "lion",
			byz: map[ids.ReplicaID]cluster.Behavior{2: cluster.BehaviorCorruptState},
			bites: func(res *Result) error {
				if !installedTransfer(res) {
					return errors.New("no state transfer was installed")
				}
				if res.Attacks != 0 {
					return fmt.Errorf("a public replica served %d STATE-REPLYs in Lion", res.Attacks)
				}
				return nil
			},
		},
		{
			// In PBFT every replica is asked. The corrupted reply is
			// validly signed; a lagging replica must reject it on the
			// checkpoint-certificate digest and take the state from an
			// honest peer instead.
			name:  "corrupt-state/pbft",
			proto: cluster.PBFT, recovery: "pbft",
			byz: map[ids.ReplicaID]cluster.Behavior{2: cluster.BehaviorCorruptState},
			bites: func(res *Result) error {
				if !installedTransfer(res) {
					return errors.New("no state transfer was installed")
				}
				return errors.Join(attacked(res), signaturesAccepted(res, 2))
			},
		},
		{
			// A public replica impersonates every other replica — the
			// private backup included — beside each ACCEPT it sends the
			// Lion primary: a forged accept quorum. It holds no pair key
			// with the primary but its own, so every copy must die at the
			// primary's tag check. And it plays the primary to the
			// backups, with a sealed PREPARE and COMMIT of a no-op for the
			// slot: each must die at the backup's tag check, the only check
			// there is on that path.
			name:  "impersonate/lion",
			proto: cluster.SeeMoRe, mode: ids.Lion,
			byz: map[ids.ReplicaID]cluster.Behavior{3: cluster.BehaviorImpersonate},
			bites: func(res *Result) error {
				return errors.Join(attacked(res), tagsRefused(res, 1), tagsRefused(res, 2), sealsRefused(res, 0))
			},
		},
		{
			// A Dog proxy forges its fellow proxies' ACCEPTs, COMMITs and
			// INFORMs, and the trusted primary's sealed PREPARE to every
			// proxy and passive node.
			name:  "impersonate/dog",
			proto: cluster.SeeMoRe, mode: ids.Dog,
			byz: map[ids.ReplicaID]cluster.Behavior{3: cluster.BehaviorImpersonate},
			bites: func(res *Result) error {
				return errors.Join(attacked(res), tagsRefused(res, 2), tagsRefused(res, 4), tagsRefused(res, 5), sealsRefused(res, 0))
			},
		},
		{
			// A Peacock proxy forges its fellow proxies' COMMIT votes (and
			// INFORMs) with tags for pairs it is not in, and their PREPARE
			// votes with its own signature.
			name:  "impersonate/peacock",
			proto: cluster.SeeMoRe, mode: ids.Peacock,
			byz: map[ids.ReplicaID]cluster.Behavior{3: cluster.BehaviorImpersonate},
			bites: func(res *Result) error {
				return errors.Join(attacked(res), tagsRefused(res, 2), tagsRefused(res, 4), tagsRefused(res, 5))
			},
		},
	}
}

// TestSimByzantineGreen runs each Byzantine case and requires the honest
// cluster to stay both live (every client finishes) and safe (no
// divergence, clean checker) under an attack that demonstrably ran.
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
			if err := tc.bites(res); err != nil {
				t.Errorf("vacuous under %v: %v", tc.byz, err)
			}
		})
	}
}
