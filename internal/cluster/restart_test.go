package cluster

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/pbft"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
)

// trackExec attaches an execution probe to a node and returns the
// high-water mark of executed sequence numbers (execution is strictly
// in order, so a plain store is monotonic).
func trackExec(n Node) *atomic.Uint64 {
	hi := new(atomic.Uint64)
	switch r := n.(type) {
	case *core.Replica:
		r.SetProbe(core.Probe{OnExecute: func(seq uint64, _ *message.Request, _ []byte) { hi.Store(seq) }})
	case *pbft.Replica:
		r.SetProbe(pbft.Probe{OnExecute: func(seq uint64, _ *message.Request, _ []byte) { hi.Store(seq) }})
	default:
		panic("trackExec: unknown node type")
	}
	return hi
}

// putN issues n sequential PUTs (keys k<start>..k<start+n-1>) and fails
// the test on any unacknowledged request: every key asserted later was
// committed from the client's point of view.
func putN(t *testing.T, cl *client.Client, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		res, err := cl.Invoke(statemachine.EncodePut(fmt.Sprintf("k%d", i), []byte("v")))
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if st, _ := statemachine.DecodeResult(res); st != statemachine.KVOK {
			t.Fatalf("put %d: status %d", i, st)
		}
	}
}

func waitAtLeast(t *testing.T, hi *atomic.Uint64, target uint64, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if hi.Load() >= target {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("restarted replica stuck at seq %d, want ≥ %d", hi.Load(), target)
}

// testCrashRestartRecovery is the acceptance scenario of the durable
// storage subsystem: commit traffic, kill -9 one replica mid-run, keep
// committing without it (so checkpoints advance past its log), restart
// it over the same data directory, and require it to recover from
// WAL+snapshot, complete a state transfer from its peers, and converge
// with the cluster — no committed operation lost.
func testCrashRestartRecovery(t *testing.T, spec Spec) {
	spec.Timing = testTiming()
	spec.Durability = config.Durability{Dir: t.TempDir(), FsyncEvery: 1}
	spec.Seed = 7
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl := c.NewClient(0)
	defer cl.Close()

	// Replica 1 is a private-cloud non-primary in every SeeMoRe mode at
	// view 0 (the paper's crash-and-restart failure class) and a backup
	// in the baselines.
	const victim = 1

	putN(t, cl, 0, 40)
	c.CrashNode(victim) // kill -9: cut off mid-stream, no graceful flush
	putN(t, cl, 40, 30) // the cluster keeps committing; checkpoints pass the victim by
	if err := c.RestartNode(victim); err != nil {
		t.Fatal(err)
	}
	victimHi := trackExec(c.Nodes[victim])
	healthyHi := trackExec(c.Nodes[2])
	putN(t, cl, 70, 30)

	// The restarted replica must catch up to wherever a healthy peer
	// stands and then keep pace with live traffic.
	waitAtLeast(t, victimHi, healthyHi.Load(), 10*time.Second)

	verifyConvergence(t, c, nil)

	// No committed operation lost: every acknowledged key is present in
	// the restarted replica's recovered+transferred state.
	kv := c.SMs[victim].(*statemachine.KVStore)
	for i := 0; i < 100; i++ {
		if _, ok := kv.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("restarted replica lost committed key k%d", i)
		}
	}
}

func TestCrashRestartRecoveryLion(t *testing.T) {
	testCrashRestartRecovery(t, Spec{Protocol: SeeMoRe, Mode: ids.Lion, Crash: 1, Byz: 1})
}

func TestCrashRestartRecoveryDog(t *testing.T) {
	testCrashRestartRecovery(t, Spec{Protocol: SeeMoRe, Mode: ids.Dog, Crash: 1, Byz: 1})
}

func TestCrashRestartRecoveryPeacock(t *testing.T) {
	testCrashRestartRecovery(t, Spec{Protocol: SeeMoRe, Mode: ids.Peacock, Crash: 1, Byz: 1})
}

func TestCrashRestartRecoveryPaxos(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline restart scenario")
	}
	testCrashRestartRecovery(t, Spec{Protocol: Paxos, Crash: 1, Byz: 1})
}

func TestCrashRestartRecoveryUpRight(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline restart scenario")
	}
	testCrashRestartRecovery(t, Spec{Protocol: UpRight, Crash: 1, Byz: 1})
}

// TestRecoverLocallyFromWALAndSnapshot proves the recovery path needs
// no peers at all: a replica rebuilt from its data directory over an
// isolated network comes back with exactly the execution state it had
// when the cluster stopped.
func TestRecoverLocallyFromWALAndSnapshot(t *testing.T) {
	spec := Spec{
		Protocol: SeeMoRe, Mode: ids.Lion, Crash: 1, Byz: 1,
		Timing:     testTiming(),
		Durability: config.Durability{Dir: t.TempDir(), FsyncEvery: 4},
		Seed:       3,
	}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(0)
	hi := trackExec(c.Nodes[1])
	putN(t, cl, 0, 50)
	waitAtLeast(t, hi, 50, 5*time.Second)
	final := hi.Load()
	cl.Close()
	c.Stop() // closes every replica's store

	st, err := storage.Open(c.StorageDir(1), storage.DiskOptions{FsyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.NewCluster(c.Membership, ids.Lion, testTiming())
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.NewReplica(core.Options{
		ID: 1, Cluster: cfg, Suite: c.SuiteImpl,
		Network:      transport.NewSimNetwork(transport.LAN(2, 9)), // nobody out there
		StateMachine: statemachine.NewKVStore(),
		Storage:      st,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if got := r.LastExecuted(); got != final {
		t.Fatalf("recovered LastExecuted = %d, want %d (pure local replay)", got, final)
	}
	if r.StableCheckpoint() == 0 {
		t.Fatal("recovered replica has no stable checkpoint (snapshot store unused)")
	}
}

// TestRestartWithoutDurabilityIsAmnesiac pins the legacy contract: with
// durability off a restarted process comes back empty, and the cluster
// still serves traffic around it (the pre-storage behavior, unchanged).
func TestRestartWithoutDurabilityIsAmnesiac(t *testing.T) {
	spec := Spec{
		Protocol: SeeMoRe, Mode: ids.Lion, Crash: 1, Byz: 1,
		Timing: testTiming(), Seed: 5,
	}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl := c.NewClient(0)
	defer cl.Close()

	putN(t, cl, 0, 20)
	c.CrashNode(1)
	if err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	if got := c.SeeMoReNode(1).LastExecuted(); got != 0 {
		t.Fatalf("volatile restart recovered %d executed slots, want 0", got)
	}
	putN(t, cl, 20, 20)
	verifyConvergence(t, c, map[ids.ReplicaID]bool{1: true})
}
