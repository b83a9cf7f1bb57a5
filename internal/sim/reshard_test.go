package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/placement"
	"repro/internal/statemachine"
)

// runReshardScenario is the migration scenario family of the seed
// explorer: a live range split with a seed-chosen fault — kill -9 of
// the source primary, of the target primary, or a partition of a source
// backup — injected at a seed-chosen handoff phase. Whatever the seed
// picks, the invariants are fixed: the migration finishes, every
// acknowledged key survives exactly once under the final placement, and
// each group's replicas converge.
func runReshardScenario(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	c, err := cluster.New(cluster.Spec{
		Protocol: cluster.SeeMoRe, Mode: ids.Lion, Crash: 1, Byz: 1,
		Timing: config.Timing{
			ViewChange:       100 * time.Millisecond,
			ClientRetry:      150 * time.Millisecond,
			CheckpointPeriod: 16,
			HighWaterMarkLag: 256,
		},
		Seed:   seed,
		Shards: 1, SpareGroups: 1, Elastic: true,
		Durability: config.Durability{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	r, err := c.NewRouter(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	nKeys := 12 + rng.Intn(12)
	for i := 0; i < nKeys; i++ {
		res, err := r.Invoke(statemachine.EncodePut(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))))
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if st, _ := statemachine.DecodeResult(res); st != statemachine.KVOK {
			t.Fatalf("put %d: status %d", i, st)
		}
	}

	// The seed picks the fault and where in the handoff it strikes.
	faultPhase := []string{"applied", "sealed", "installed"}[rng.Intn(3)]
	faultKind := rng.Intn(3)
	var partitioned *ids.ReplicaID
	injected := false
	ctl := placement.NewController(r.PlacementOps())
	ctl.OnPhase = func(phase string, epoch uint64) {
		if phase != faultPhase || injected {
			return
		}
		injected = true
		switch faultKind {
		case 0: // kill -9 the source primary, restart from WAL
			c.CrashNodeIn(0, 0)
			if err := c.RestartNodeIn(0, 0); err != nil {
				t.Errorf("restart source primary: %v", err)
			}
		case 1: // kill -9 the target primary, restart from WAL
			c.CrashNodeIn(1, 0)
			if err := c.RestartNodeIn(1, 0); err != nil {
				t.Errorf("restart target primary: %v", err)
			}
		default: // partition one source backup for the rest of the handoff
			id := ids.ReplicaID(1 + rng.Intn(c.SizeIn(0)-1))
			c.PartitionNodeIn(0, id)
			partitioned = &id
		}
	}
	final, err := ctl.Run(placement.Cmd{Kind: placement.CmdSplit, Group: 0, To: 1})
	if err != nil {
		t.Fatalf("split (fault %d at %q): %v", faultKind, faultPhase, err)
	}
	if !injected {
		t.Fatalf("phase %q never observed", faultPhase)
	}
	if final.Pending != nil {
		t.Fatalf("migration still pending: %+v", final.Pending)
	}
	// Every acknowledged key survives, served under the final placement.
	r2, err := c.NewRouter(1)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if partitioned != nil {
		c.HealNodeIn(0, *partitioned)
		// Slots missed inside the partition window are recovered through
		// checkpoint state transfer, so commit at least one checkpoint
		// period (16) of fresh writes on the healed group.
		sent := 0
		for i := 0; sent < 20; i++ {
			k := fmt.Sprintf("heal%d", i)
			if final.Owner(k) != 0 {
				continue
			}
			if _, err := r2.Invoke(statemachine.EncodePut(k, []byte("h"))); err != nil {
				t.Fatalf("post-heal put %s: %v", k, err)
			}
			sent++
		}
	}
	for i := 0; i < nKeys; i++ {
		k := fmt.Sprintf("k%d", i)
		res, err := r2.Invoke(statemachine.EncodeGet(k))
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		st, v := statemachine.DecodeResult(res)
		if st != statemachine.KVOK || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %s: status %d value %q", k, st, v)
		}
	}

	// Let the healed/restarted replicas catch up, then require per-group
	// convergence and single-ownership of every key.
	waitGroupsSettled(c, 10*time.Second)
	c.Stop()
	for g := range c.Groups {
		var ref []byte
		for i, sm := range c.GroupSMs[g] {
			snap := sm.Snapshot()
			if i == 0 {
				ref = snap
				continue
			}
			if !bytes.Equal(snap, ref) {
				t.Fatalf("group %d: replica %d diverges (fault %d at %q, seed %d)", g, i, faultKind, faultPhase, seed)
			}
		}
	}
	for i := 0; i < nKeys; i++ {
		k := fmt.Sprintf("k%d", i)
		owner := final.Owner(k)
		for g := range c.Groups {
			_, present := c.GroupSMs[g][0].(*statemachine.KVStore).Get(k)
			if present != (g == int(owner)) {
				t.Fatalf("key %s present=%v in group %d, owner %v", k, present, g, owner)
			}
		}
	}
}

// waitGroupsSettled polls until every replica of every group stands at
// its group's highest executed sequence number twice in a row (or the
// timeout passes; the snapshot comparison is the real verdict).
func waitGroupsSettled(c *cluster.Cluster, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	stable := false
	var last uint64
	for time.Now().Before(deadline) {
		var sum uint64
		settled := true
		for _, group := range c.Groups {
			var hi uint64
			at := 0
			for _, n := range group {
				switch w := n.LastExecuted(); {
				case w > hi:
					hi, at = w, 1
				case w == hi:
					at++
				}
			}
			sum += hi
			if hi == 0 || at < len(group) {
				settled = false
			}
		}
		if settled {
			if stable && sum == last {
				return
			}
			stable, last = true, sum
		} else {
			stable = false
		}
		time.Sleep(5 * time.Millisecond)
	}
}
