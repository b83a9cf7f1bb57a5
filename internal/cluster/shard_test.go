package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/statemachine"
)

// putNVia issues n sequential PUTs through a shard-aware router and
// fails the test on any unacknowledged request.
func putNVia(t *testing.T, r *client.Router, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		res, err := r.Invoke(statemachine.EncodePut(fmt.Sprintf("k%d", i), []byte("v")))
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if st, _ := statemachine.DecodeResult(res); st != statemachine.KVOK {
			t.Fatalf("put %d: status %d", i, st)
		}
	}
}

// verifyGroupConvergence checks that every non-skipped replica of one
// group holds the same state. Call after Stop.
func verifyGroupConvergence(t *testing.T, c *Cluster, g ids.GroupID, skip map[ids.ReplicaID]bool) {
	t.Helper()
	var ref []byte
	var refID ids.ReplicaID = -1
	for i, sm := range c.GroupSMs[g] {
		id := c.Groups[g][i].ID()
		if skip[id] {
			continue
		}
		snap := sm.Snapshot()
		if ref == nil {
			ref, refID = snap, id
			continue
		}
		if !bytes.Equal(snap, ref) {
			t.Fatalf("group %v: replica %d diverges from %d", g, id, refID)
		}
	}
}

// TestShardedRouterEndToEnd drives a 2-shard Lion deployment through
// the shard-aware router: every acknowledged key must be readable back
// (MultiGet fans the reads out across groups), each group's replicas
// must converge among themselves, and — the partitioning invariant —
// every key must live in exactly the group the placement assigns it
// to and nowhere else.
func TestShardedRouterEndToEnd(t *testing.T) {
	c, err := New(Spec{
		Protocol: SeeMoRe, Mode: ids.Lion, Crash: 1, Byz: 1,
		Timing: testTiming(), Seed: 31, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if len(c.Groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(c.Groups))
	}
	r, err := c.NewRouter(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const nKeys = 40
	putNVia(t, r, 0, nKeys)

	// Fan-out read: every acknowledged key comes back with its value.
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	vals, err := r.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if string(v) != "v" {
			t.Fatalf("key %s read back %q, want \"v\"", keys[i], v)
		}
	}

	// Both shards must actually own part of the keyspace under this
	// workload (the hash split is ~even; 40 keys landing all on one
	// side would mean the router ignores the placement).
	perGroup := map[ids.GroupID]int{}
	for _, k := range keys {
		perGroup[c.Placement.Owner(k)]++
	}
	if len(perGroup) != 2 {
		t.Fatalf("placement sent every key to the same group: %v", perGroup)
	}

	for g := range c.Groups {
		waitSettled(t, c.Groups[g], nil, len(c.Groups[g]), 5*time.Second)
	}
	c.Stop()
	for g := range c.Groups {
		verifyGroupConvergence(t, c, ids.GroupID(g), nil)
	}

	// Partitioning invariant: a key lives in its owner group's store
	// and is absent from the other group.
	for _, k := range keys {
		owner := c.Placement.Owner(k)
		for g := range c.Groups {
			kv := c.GroupSMs[g][0].(*statemachine.KVStore)
			_, present := kv.Get(k)
			if g == int(owner) && !present {
				t.Fatalf("key %s missing from its owner group %d", k, g)
			}
			if g != int(owner) && present {
				t.Fatalf("key %s leaked into group %d (owner %v)", k, g, owner)
			}
		}
	}
}

// TestShardedKillRestartOneShard is the sharded failure-domain
// acceptance scenario: one replica of one shard is kill -9'd and
// restarted from its WAL while every other shard keeps committing.
// The blast radius of the failure must stay inside its group, the
// restarted replica must recover and converge, and no acknowledged
// key may be lost anywhere.
func TestShardedKillRestartOneShard(t *testing.T) {
	c, err := New(Spec{
		Protocol: SeeMoRe, Mode: ids.Lion, Crash: 1, Byz: 1,
		Timing:     testTiming(),
		Durability: config.Durability{Dir: t.TempDir()},
		Seed:       33, Shards: 2,
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

	const (
		victimGroup = ids.GroupID(1)
		victim      = ids.ReplicaID(1) // private-cloud non-primary at view 0
	)

	putNVia(t, r, 0, 30)
	c.CrashNodeIn(victimGroup, victim) // kill -9 inside shard 1 only
	// Every shard — including the one with the dead backup (c = 1 is
	// tolerated) — keeps committing while the victim is down.
	putNVia(t, r, 30, 30)
	if err := c.RestartNodeIn(victimGroup, victim); err != nil {
		t.Fatal(err)
	}
	victimHi := trackExec(c.Groups[victimGroup][victim])
	healthyHi := trackExec(c.Groups[victimGroup][2])
	putNVia(t, r, 60, 30)

	// The restarted replica recovers from disk + state transfer and
	// catches up with its own group. The budget is generous: under the
	// race detector on a starved single-core host, a 2-shard deployment
	// runs twice the goroutines of the unsharded restart tests.
	waitAtLeast(t, victimHi, healthyHi.Load(), 30*time.Second)

	for g := range c.Groups {
		waitSettled(t, c.Groups[g], nil, len(c.Groups[g]), 5*time.Second)
	}
	c.Stop()
	for g := range c.Groups {
		verifyGroupConvergence(t, c, ids.GroupID(g), nil)
	}

	// No acknowledged key lost: each key is in its owner group,
	// including on the restarted replica.
	for i := 0; i < 90; i++ {
		k := fmt.Sprintf("k%d", i)
		g := c.Placement.Owner(k)
		kv := c.GroupSMs[g][victim].(*statemachine.KVStore)
		if _, ok := kv.Get(k); !ok {
			t.Fatalf("acknowledged key %s missing from group %v replica %d", k, g, victim)
		}
	}
}

// TestSingleShardSpecIsLegacy pins the compatibility contract:
// Shards: 1 (or unset) builds exactly one group whose Nodes/SMs are
// the legacy views, with a one-group placement, and a router over it sends
// everything to group 0.
func TestSingleShardSpecIsLegacy(t *testing.T) {
	c, err := New(Spec{
		Protocol: SeeMoRe, Mode: ids.Lion, Crash: 1, Byz: 1,
		Timing: testTiming(), Seed: 35, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if len(c.Groups) != 1 || c.Placement.Shards() != 1 {
		t.Fatalf("Shards=1 built %d groups (placement over %d), want the single legacy group", len(c.Groups), c.Placement.Shards())
	}
	if &c.Nodes[0] != &c.Groups[0][0] {
		t.Fatal("Nodes does not alias Groups[0]")
	}
	r, err := c.NewRouter(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if g, err := r.OwnerOf(statemachine.EncodePut("anything", []byte("v"))); err != nil || g != 0 {
		t.Fatalf("single-shard router routed to group %v (err %v)", g, err)
	}
	putNVia(t, r, 0, 10)
	verifyConvergence(t, c, nil)
}
