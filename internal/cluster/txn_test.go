package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/statemachine"
	"repro/internal/txn"
)

// shardKeys returns one key owned by each of the cluster's groups.
func shardKeys(t *testing.T, c *Cluster) []string {
	t.Helper()
	keys := make([]string, len(c.Groups))
	found := 0
	for i := 0; found < len(keys) && i < 10_000; i++ {
		k := fmt.Sprintf("t%d", i)
		g := c.Placement.Owner(k)
		if keys[g] == "" {
			keys[g], found = k, found+1
		}
	}
	if found != len(keys) {
		t.Fatal("could not find a key for every shard")
	}
	return keys
}

// lockedBy asserts that a plain write on key is refused with KVLocked
// and returns the holding transaction.
func lockedBy(t *testing.T, r *client.Router, key string) statemachine.TxID {
	t.Helper()
	res, err := r.Invoke(statemachine.EncodePut(key, []byte("probe")))
	if err != nil {
		t.Fatalf("probe put %q: %v", key, err)
	}
	st, payload := statemachine.DecodeResult(res)
	if st != statemachine.KVLocked {
		t.Fatalf("probe put %q: status %d, want KVLocked", key, st)
	}
	id, ok := statemachine.DecodeLockHolder(payload)
	if !ok {
		t.Fatalf("malformed KVLocked payload %x", payload)
	}
	return id
}

// TestTxnAtomicCommitAcrossShards drives the happy path end to end: a
// cross-shard MultiPut commits atomically, the writes land in exactly
// their owner groups, and every replica of every group converges.
func TestTxnAtomicCommitAcrossShards(t *testing.T) {
	c, err := New(Spec{
		Protocol: SeeMoRe, Mode: ids.Lion, Crash: 1, Byz: 1,
		Timing: testTiming(), Seed: 41, Shards: 2,
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

	keys := []string{"t0", "t1", "t2", "t3", "t4", "t5"}
	vals := make([][]byte, len(keys))
	for i := range vals {
		vals[i] = []byte(fmt.Sprintf("v%d", i))
	}
	if err := r.MultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	// Both shards must own part of the write set for this to be a
	// cross-shard transaction at all.
	perGroup := map[ids.GroupID]int{}
	for _, k := range keys {
		perGroup[c.Placement.Owner(k)]++
	}
	if len(perGroup) != 2 {
		t.Fatalf("write set landed on one group only: %v", perGroup)
	}

	got, err := r.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if string(v) != string(vals[i]) {
			t.Fatalf("key %s = %q, want %q", keys[i], v, vals[i])
		}
	}
	// Mixed write kinds compose in one transaction too.
	if err := r.Txn([][]byte{
		statemachine.EncodeDelete(keys[0]),
		statemachine.EncodePut(keys[1], []byte("updated")),
	}); err != nil {
		t.Fatal(err)
	}

	for g := range c.Groups {
		waitSettled(t, c.Groups[g], nil, len(c.Groups[g]), 5*time.Second)
	}
	c.Stop()
	for g := range c.Groups {
		verifyGroupConvergence(t, c, ids.GroupID(g), nil)
	}
	if _, present := c.GroupSMs[c.Placement.Owner(keys[0])][0].(*statemachine.KVStore).Get(keys[0]); present {
		t.Fatal("transactional delete did not apply")
	}
}

// testCoordinatorDeath is the acceptance scenario: a coordinator
// prepares a cross-shard transaction on every participant and dies
// before the finish legs. Mid-2PC, one replica of a participant group
// is kill -9'd and restarted from its WAL (durability on), so the
// in-doubt locks and buffered writes must survive a crash-restart. A
// later client then trips over the locks and resolves the transaction —
// presumed abort if the coordinator never recorded its decision, roll
// forward if it recorded commit first — and every shard must end up
// applying all of the transaction's writes or none of them.
func testCoordinatorDeath(t *testing.T, decideCommitBeforeDeath bool) {
	c, err := New(Spec{
		Protocol: SeeMoRe, Mode: ids.Lion, Crash: 1, Byz: 1,
		Timing:     testTiming(),
		Durability: config.Durability{Dir: t.TempDir(), FsyncEvery: 1},
		Seed:       43, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	keys := shardKeys(t, c)

	// The doomed coordinator: raw txn phases over per-group clients, so
	// the test controls exactly where it dies.
	inv := make([]txn.Invoker, len(c.Groups))
	closers := make([]*client.Client, len(c.Groups))
	for g := range inv {
		cl := c.NewClientIn(ids.GroupID(g), 5)
		inv[g], closers[g] = cl, cl
	}
	co, err := txn.New(5, inv, c.Placement, closers[0].AllocateTimestamp)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := co.Begin([][]byte{
		statemachine.EncodePut(keys[0], []byte("doomed")),
		statemachine.EncodePut(keys[1], []byte("doomed")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare(); err != nil {
		t.Fatal(err)
	}
	if decideCommitBeforeDeath {
		committed, err := tx.Decide(true)
		if err != nil || !committed {
			t.Fatalf("decide: committed=%v err=%v", committed, err)
		}
	}
	// The coordinator dies here: locks held on both shards, finish legs
	// never sent.
	for _, cl := range closers {
		cl.Close()
	}

	// Crash-restart one replica of group 1 mid-2PC: the prepared,
	// undecided transaction is in its WAL and must come back in doubt.
	const victimGroup, victim = ids.GroupID(1), ids.ReplicaID(1)
	c.CrashNodeIn(victimGroup, victim)
	if err := c.RestartNodeIn(victimGroup, victim); err != nil {
		t.Fatal(err)
	}
	victimHi := trackExec(c.Groups[victimGroup][victim])

	r, err := c.NewRouter(6)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// The locks are still held after the coordinator's death.
	blocker := lockedBy(t, r, keys[0])
	if blocker != tx.ID {
		t.Fatalf("lock held by %v, want %v", blocker, tx.ID)
	}

	committed, err := r.ResolveTx(c.Placement.Owner(keys[0]), blocker)
	if err != nil {
		t.Fatal(err)
	}
	if committed != decideCommitBeforeDeath {
		t.Fatalf("recovery settled committed=%v, want %v", committed, decideCommitBeforeDeath)
	}

	// Locks released: plain writes go through again on both shards.
	for _, k := range []string{keys[0], keys[1]} {
		res, err := r.Invoke(statemachine.EncodePut(k+"-after", []byte("live")))
		if err != nil {
			t.Fatalf("post-recovery put: %v", err)
		}
		if st, _ := statemachine.DecodeResult(res); st != statemachine.KVOK {
			t.Fatalf("post-recovery put on %s: status %d", k, st)
		}
	}

	// The restarted replica catches back up before the final audit.
	waitAtLeast(t, victimHi, c.Groups[victimGroup][2].LastExecuted(), 30*time.Second)
	for g := range c.Groups {
		waitSettled(t, c.Groups[g], nil, len(c.Groups[g]), 5*time.Second)
	}
	c.Stop()
	for g := range c.Groups {
		verifyGroupConvergence(t, c, ids.GroupID(g), nil)
	}

	// Atomicity: all of the transaction's writes or none, on every
	// replica of every shard — including the one restarted mid-2PC.
	for g := range c.Groups {
		for i, sm := range c.GroupSMs[g] {
			kv := sm.(*statemachine.KVStore)
			key := keys[g]
			if c.Placement.Owner(key) != ids.GroupID(g) {
				continue
			}
			v, present := kv.Get(key)
			if decideCommitBeforeDeath && (!present || string(v) != "doomed") {
				t.Fatalf("group %d replica %d: committed write %s = %q (present=%v), want \"doomed\"", g, i, key, v, present)
			}
			if !decideCommitBeforeDeath && present {
				t.Fatalf("group %d replica %d: aborted transaction leaked %s = %q", g, i, key, v)
			}
		}
	}
}

func TestTxnCoordinatorDeathPresumedAbort(t *testing.T) { testCoordinatorDeath(t, false) }

func TestTxnCoordinatorDeathRollForward(t *testing.T) { testCoordinatorDeath(t, true) }

// TestTxnShardPartitionedDuringPrepare: one whole shard is cut off
// mid-prepare, so the transaction cannot reach a unanimous yes. It must
// abort leaving nothing behind — no writes and no stuck locks on the
// reachable shard — and the same transaction succeeds after the heal.
func TestTxnShardPartitionedDuringPrepare(t *testing.T) {
	c, err := New(Spec{
		Protocol: SeeMoRe, Mode: ids.Lion, Crash: 1, Byz: 1,
		Timing: testTiming(), Seed: 47, Shards: 2,
		Client: config.Client{MaxRetries: 2, RetryTimeout: 80 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	keys := shardKeys(t, c)
	r, err := c.NewRouter(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const darkGroup = ids.GroupID(1)
	for i := 0; i < c.N; i++ {
		c.PartitionNodeIn(darkGroup, ids.ReplicaID(i))
	}

	err = r.MultiPut([]string{keys[0], keys[1]}, [][]byte{[]byte("x"), []byte("x")})
	if !errors.Is(err, txn.ErrAborted) {
		t.Fatalf("err = %v, want txn.ErrAborted", err)
	}

	for i := 0; i < c.N; i++ {
		c.HealNodeIn(darkGroup, ids.ReplicaID(i))
	}

	// Nothing leaked on the reachable shard: the key is absent and
	// writable (no stuck lock), and the whole transaction goes through
	// after the heal.
	if err := r.MultiPut([]string{keys[0], keys[1]}, [][]byte{[]byte("y"), []byte("y")}); err != nil {
		t.Fatalf("retry after heal: %v", err)
	}
	got, err := r.MultiGet([]string{keys[0], keys[1]})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if string(v) != "y" {
			t.Fatalf("key %d = %q after heal, want \"y\"", i, v)
		}
	}
}

// TestClientReseedAfterRestart is the regression test for the
// timestamp-restart satellite: a "restarted" client process reusing the
// same id gets replies again only because its timestamp counter was
// reseeded above the previous run's; a zero-seeded reuse times out with
// the stale-timestamp hint.
func TestClientReseedAfterRestart(t *testing.T) {
	c, err := New(Spec{
		Protocol: SeeMoRe, Mode: ids.Lion, Crash: 1, Byz: 1,
		Timing: testTiming(), Seed: 49,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	const id = ids.ClientID(7)

	// First life of the client process: timestamps 1001, 1002, ...
	first := c.NewClientInWithConfig(0, id, config.Client{InitialTimestamp: 1000})
	for i := 0; i < 5; i++ {
		if _, err := first.Invoke(statemachine.EncodePut(fmt.Sprintf("r%d", i), []byte("1"))); err != nil {
			t.Fatalf("first life put %d: %v", i, err)
		}
	}
	lastTS := first.Timestamp()
	first.Close()

	// A zero-seeded second life replays old timestamps: the replicated
	// client table silently discards them and the request times out,
	// with the error pointing at the cause.
	stale := c.NewClientInWithConfig(0, id, config.Client{
		MaxRetries: 1, RetryTimeout: 80 * time.Millisecond,
	})
	_, err = stale.Invoke(statemachine.EncodePut("r-stale", []byte("2")))
	stale.Close()
	if !errors.Is(err, client.ErrTimeout) {
		t.Fatalf("stale reuse err = %v, want ErrTimeout", err)
	}
	if !strings.Contains(err.Error(), "stale timestamp") {
		t.Fatalf("timeout lacks the stale-timestamp hint: %v", err)
	}

	// Reseeded above the first life's counter, the same id works again.
	second := c.NewClientInWithConfig(0, id, config.Client{InitialTimestamp: lastTS + 1000})
	defer second.Close()
	res, err := second.Invoke(statemachine.EncodePut("r-new", []byte("2")))
	if err != nil {
		t.Fatalf("reseeded reuse: %v", err)
	}
	if st, _ := statemachine.DecodeResult(res); st != statemachine.KVOK {
		t.Fatalf("reseeded put status %d", st)
	}
}
