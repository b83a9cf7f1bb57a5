package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/placement"
	"repro/internal/statemachine"
)

// elasticSpec is the base spec of the resharding tests: SeeMoRe in Lion
// mode, two owner shards plus one provisioned spare, placement seeded.
func elasticSpec(seed int64) Spec {
	return Spec{
		Protocol: SeeMoRe, Mode: ids.Lion, Crash: 1, Byz: 1,
		Timing: testTiming(), Seed: seed,
		Shards: 2, SpareGroups: 1, Elastic: true,
	}
}

// keyOwnedMovedBy finds a key that group `from` owns under old and
// group `to` owns under new — a key whose writes cross the migration.
func keyOwnedMovedBy(t *testing.T, old, new *placement.Map, from, to ids.GroupID) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("moved-%d", i)
		if old.Owner(k) == from && new.Owner(k) == to {
			return k
		}
	}
	t.Fatalf("no key moved %v->%v between epochs %d and %d", from, to, old.Epoch, new.Epoch)
	return ""
}

// TestElasticSplitUnderLoad is the headline acceptance scenario: a hot
// shard splits onto a spare group while clients keep writing. Every
// acknowledged write must survive with its value, land in exactly the
// group the final placement assigns it (never both owners), and a
// router still holding the bootstrap map must be rejected-and-rerouted,
// never silently misrouted.
func TestElasticSplitUnderLoad(t *testing.T) {
	c, err := New(elasticSpec(77))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if len(c.Groups) != 3 {
		t.Fatalf("got %d groups, want 2 owners + 1 spare", len(c.Groups))
	}
	if c.Placement == nil || c.Placement.Epoch != 1 {
		t.Fatalf("bootstrap placement %+v", c.Placement)
	}

	r, err := c.NewRouter(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Continuous writes racing the migration. Each key gets a distinct
	// value so a lost or cross-wired write cannot masquerade as another.
	stop := make(chan struct{})
	type trafficReport struct {
		acked int
		err   error
	}
	done := make(chan trafficReport, 1)
	go func() {
		i := 0
		for {
			select {
			case <-stop:
				done <- trafficReport{acked: i}
				return
			default:
			}
			res, err := r.Invoke(statemachine.EncodePut(fmt.Sprintf("w%d", i), []byte(fmt.Sprintf("val-%d", i))))
			if err != nil {
				done <- trafficReport{acked: i, err: fmt.Errorf("put w%d: %w", i, err)}
				return
			}
			if st, _ := statemachine.DecodeResult(res); st != statemachine.KVOK {
				done <- trafficReport{acked: i, err: fmt.Errorf("put w%d: status %d", i, st)}
				return
			}
			i++
		}
	}()

	rc, err := c.NewRouter(1)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ctl := placement.NewController(rc.PlacementOps())
	final, err := ctl.Run(placement.Cmd{Kind: placement.CmdSplit, Group: 0, To: 2})
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	// Retiring clears Pending at the migration's own epoch (1 bootstrap
	// → 2 split; done is not a second bump).
	if final.Pending != nil || final.Epoch != 2 {
		t.Fatalf("final map %+v, want retired migration at epoch 2", final)
	}

	// A little more traffic strictly after the migration, then stop.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	rep := <-done
	if rep.err != nil {
		t.Fatal(rep.err)
	}
	if rep.acked == 0 {
		t.Fatal("no traffic was acknowledged around the migration")
	}

	// Zero lost writes: every acknowledged key reads back its own value.
	keys := make([]string, rep.acked)
	for i := range keys {
		keys[i] = fmt.Sprintf("w%d", i)
	}
	vals, err := r.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key %s read back %q, want val-%d", keys[i], v, i)
		}
	}

	// A router still on the bootstrap map must be rerouted, not
	// misrouted: its write goes to the old owner, which rejects with the
	// current map attached, and the retry lands at the new owner.
	// It is built like Cluster.NewRouter's, over a cache the test keeps.
	staleCache := placement.NewCache(c.Placement.Clone())
	staleClients := make([]*client.Client, len(c.Groups))
	for g := range staleClients {
		staleClients[g] = c.NewClientIn(ids.GroupID(g), 2)
	}
	stale, err := client.NewRouter(staleClients, staleCache, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	var reroutes atomic.Int64
	stale.OnWrongEpoch = func(ids.GroupID, *placement.Map) { reroutes.Add(1) }
	moved := keyOwnedMovedBy(t, c.Placement, final, 0, 2)
	res, err := stale.Invoke(statemachine.EncodePut(moved, []byte("after")))
	if err != nil {
		t.Fatalf("stale-router put: %v", err)
	}
	if st, _ := statemachine.DecodeResult(res); st != statemachine.KVOK {
		t.Fatalf("stale-router put: status %d", st)
	}
	if reroutes.Load() == 0 {
		t.Fatal("stale router was never epoch-rejected (write silently misrouted?)")
	}
	if got := staleCache.Epoch(); got != final.Epoch {
		t.Fatalf("stale router cache at epoch %d after reroute, want %d", got, final.Epoch)
	}

	for g := range c.Groups {
		waitSettled(t, c.Groups[g], nil, len(c.Groups[g]), 5*time.Second)
	}
	c.Stop()
	for g := range c.Groups {
		verifyGroupConvergence(t, c, ids.GroupID(g), nil)
	}

	// No duplicated writes: each key lives in exactly its final owner.
	keys = append(keys, moved)
	for _, k := range keys {
		owner := final.Owner(k)
		for g := range c.Groups {
			kv := c.GroupSMs[g][0].(*statemachine.KVStore)
			_, present := kv.Get(k)
			if g == int(owner) && !present {
				t.Fatalf("key %s missing from its owner group %d", k, g)
			}
			if g != int(owner) && present {
				t.Fatalf("key %s duplicated into group %d (owner %v)", k, g, owner)
			}
		}
	}
}

// TestElasticKillSourcePrimaryMidHandoff kill -9s the old owner's
// primary right after the range seals and restarts it from its WAL. The
// migration must finish — sealed fence state recovers from the log, the
// export resumes against the recovered group — and no key may be lost
// or stranded.
func TestElasticKillSourcePrimaryMidHandoff(t *testing.T) {
	spec := elasticSpec(101)
	spec.Shards, spec.SpareGroups = 1, 1
	spec.Durability = config.Durability{Dir: t.TempDir(), FsyncEvery: 1}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	r, err := c.NewRouter(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const nKeys = 30
	for i := 0; i < nKeys; i++ {
		res, err := r.Invoke(statemachine.EncodePut(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))))
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if st, _ := statemachine.DecodeResult(res); st != statemachine.KVOK {
			t.Fatalf("put %d: status %d", i, st)
		}
	}

	ctl := placement.NewController(r.PlacementOps())
	killed := false
	ctl.OnPhase = func(phase string, epoch uint64) {
		if phase != "sealed" || killed {
			return
		}
		killed = true
		// kill -9 the source primary mid-handoff: Crash cuts it off
		// mid-stream, the rebuild recovers from WAL + snapshots.
		c.CrashNodeIn(0, 0)
		if err := c.RestartNodeIn(0, 0); err != nil {
			t.Errorf("restart source primary: %v", err)
		}
	}
	final, err := ctl.Run(placement.Cmd{Kind: placement.CmdSplit, Group: 0, To: 1})
	if err != nil {
		t.Fatalf("split across the kill: %v", err)
	}
	if !killed {
		t.Fatal("OnPhase never saw the seal")
	}
	if final.Pending != nil {
		t.Fatalf("migration still pending after Run: %+v", final.Pending)
	}

	// Not one key stranded: all 30 readable through a fresh router, and
	// both groups now own part of the keyspace.
	r2, err := c.NewRouter(1)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	perGroup := map[ids.GroupID]int{}
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
		perGroup[final.Owner(k)]++
	}
	if len(perGroup) != 2 {
		t.Fatalf("split left every key on one side: %v", perGroup)
	}
}

// TestElasticControllerDeathResumes models the other crash: the
// controller dies mid-copy (after sealing and shipping a partial page).
// A brand-new controller pointed at the deployment must find the
// pending migration in the meta group and finish it.
func TestElasticControllerDeathResumes(t *testing.T) {
	spec := elasticSpec(55)
	spec.Shards, spec.SpareGroups = 1, 1
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	r, err := c.NewRouter(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const nKeys = 20
	for i := 0; i < nKeys; i++ {
		if _, err := r.Invoke(statemachine.EncodePut(fmt.Sprintf("k%d", i), []byte("v"))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	// Drive the first half of the migration by hand — the dead
	// controller's trace: command applied, range sealed, one partial
	// page staged, then silence.
	ops := r.PlacementOps()
	next, _, err := ops.MetaApply(placement.Cmd{Kind: placement.CmdSplit, Group: 0, To: 1})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	sr, err := ops.Seal(0, next)
	if err != nil {
		t.Fatalf("seal: %v", err)
	}
	if !sr.Done {
		pairs, more, err := ops.Export(0, next.Epoch, "", 2)
		if err != nil {
			t.Fatalf("export: %v", err)
		}
		if more {
			if err := ops.Install(1, next, pairs, false, sr.Digest); err != nil {
				t.Fatalf("partial install: %v", err)
			}
		}
	}

	// A different client, a fresh controller, no shared state.
	r2, err := c.NewRouter(1)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	final, err := placement.NewController(r2.PlacementOps()).Resume()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if final.Pending != nil || final.Epoch != next.Epoch {
		t.Fatalf("resumed map %+v, want retired epoch %d", final, next.Epoch)
	}
	// Resume again: nothing pending, current map returned, no error.
	again, err := placement.NewController(r2.PlacementOps()).Resume()
	if err != nil || again.Epoch != final.Epoch {
		t.Fatalf("idempotent resume: %+v / %v", again, err)
	}

	for i := 0; i < nKeys; i++ {
		k := fmt.Sprintf("k%d", i)
		res, err := r2.Invoke(statemachine.EncodeGet(k))
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		if st, _ := statemachine.DecodeResult(res); st != statemachine.KVOK {
			t.Fatalf("get %s after resumed migration: status %d", k, st)
		}
	}
}

// TestElasticMembershipResize runs the online membership change end to
// end: the set-replicas command commits through the meta group (the
// logical decision), then the harness performs the physical
// stop-and-copy resize. The grown group must recover its state from
// disk, catch the new replica up, and keep serving.
func TestElasticMembershipResize(t *testing.T) {
	spec := elasticSpec(33)
	spec.Shards, spec.SpareGroups = 1, 0
	spec.ResizeHeadroom = 1
	spec.Durability = config.Durability{Dir: t.TempDir(), FsyncEvery: 1}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	oldN := c.SizeIn(0)

	cl := c.NewClient(0)
	putN(t, cl, 0, 20)

	r, err := c.NewRouter(1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := placement.NewController(r.PlacementOps()).Run(
		placement.Cmd{Kind: placement.CmdSetReplicas, Group: 0, Replicas: oldN + 1})
	r.Close()
	if err != nil {
		t.Fatalf("set-replicas: %v", err)
	}
	if got := m.ReplicasOf(0); got != oldN+1 {
		t.Fatalf("map records %d replicas, want %d", got, oldN+1)
	}

	if err := c.ResizeGroupPublic(0, 1); err != nil {
		t.Fatalf("resize: %v", err)
	}
	if c.SizeIn(0) != oldN+1 || c.MembershipIn(0).N() != oldN+1 {
		t.Fatalf("group size %d after resize, want %d", c.SizeIn(0), oldN+1)
	}

	// A post-resize client (new membership, new reply policy) reads the
	// pre-resize state and keeps writing.
	cl2 := c.NewClientIn(0, 2)
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("k%d", i)
		res, err := cl2.Invoke(statemachine.EncodeGet(k))
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		st, v := statemachine.DecodeResult(res)
		if st != statemachine.KVOK || string(v) != "v" {
			t.Fatalf("get %s after resize: status %d value %q", k, st, v)
		}
	}
	putN2 := func(start, n int) {
		for i := start; i < start+n; i++ {
			res, err := cl2.Invoke(statemachine.EncodePut(fmt.Sprintf("k%d", i), []byte("v")))
			if err != nil {
				t.Fatalf("post-resize put %d: %v", i, err)
			}
			if st, _ := statemachine.DecodeResult(res); st != statemachine.KVOK {
				t.Fatalf("post-resize put %d: status %d", i, st)
			}
		}
	}
	putN2(20, 10)

	// All n+1 replicas — the recovered six and the state-transferred
	// newcomer — converge on one state.
	waitSettled(t, c.Groups[0], nil, c.SizeIn(0), 10*time.Second)
	c.Stop()
	verifyGroupConvergence(t, c, 0, nil)
	kv := c.GroupSMs[0][oldN].(*statemachine.KVStore)
	if _, present := kv.Get("k0"); !present {
		t.Fatal("new replica never caught up with pre-resize state")
	}
}

// TestElasticTxnAcrossMigration pins the transaction fence: a
// cross-key transaction prepared through a stale placement view is
// epoch-rejected and retried under the new map, never half-applied
// across the old and new owner.
func TestElasticTxnAcrossMigration(t *testing.T) {
	c, err := New(elasticSpec(91))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	r, err := c.NewRouter(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	rc, err := c.NewRouter(1)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	final, err := placement.NewController(rc.PlacementOps()).Run(
		placement.Cmd{Kind: placement.CmdSplit, Group: 0, To: 2})
	if err != nil {
		t.Fatalf("split: %v", err)
	}

	// The writing router never saw the migration: its cache still says
	// epoch 1. One write lands on a moved key, one on a stable key.
	moved := keyOwnedMovedBy(t, c.Placement, final, 0, 2)
	stable := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("stable-%d", i)
		if c.Placement.Owner(k) == 1 && final.Owner(k) == 1 {
			stable = k
			break
		}
	}
	var reroutes atomic.Int64
	r.OnWrongEpoch = func(ids.GroupID, *placement.Map) { reroutes.Add(1) }
	if err := r.Txn([][]byte{
		statemachine.EncodePut(moved, []byte("m")),
		statemachine.EncodePut(stable, []byte("s")),
	}); err != nil {
		t.Fatalf("txn across migration: %v", err)
	}
	if reroutes.Load() == 0 {
		t.Fatal("transaction was never epoch-rejected despite the stale cache")
	}
	for _, k := range []string{moved, stable} {
		res, err := r.Invoke(statemachine.EncodeGet(k))
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		if st, _ := statemachine.DecodeResult(res); st != statemachine.KVOK {
			t.Fatalf("txn write %s missing: status %d", k, st)
		}
	}
}
