package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/statemachine"
	"repro/internal/transport"
)

// harness assembles an in-process SeeMoRe cluster over a simulated
// network for the integration tests.
type harness struct {
	t        *testing.T
	mb       ids.Membership
	cluster  config.Cluster
	suite    crypto.Suite
	net      *transport.SimNetwork
	replicas []*Replica
	kvs      []*statemachine.KVStore
	stopped  bool
}

func fastTiming() config.Timing {
	return config.Timing{
		ViewChange:       100 * time.Millisecond,
		ClientRetry:      150 * time.Millisecond,
		CheckpointPeriod: 16,
		HighWaterMarkLag: 256,
	}
}

func newHarness(t *testing.T, mb ids.Membership, mode ids.Mode, seed int64) *harness {
	t.Helper()
	cl, err := config.NewCluster(mb, mode, fastTiming())
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{
		t:       t,
		mb:      mb,
		cluster: cl,
		suite:   crypto.NewEd25519Suite(seed, mb.N(), 64),
		net:     transport.NewSimNetwork(transport.LAN(mb.S(), seed)),
	}
	for _, id := range mb.All() {
		kv := statemachine.NewKVStore()
		r, err := NewReplica(Options{
			ID:           id,
			Cluster:      cl,
			Suite:        h.suite,
			Network:      h.net,
			StateMachine: kv,
			TickInterval: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		h.replicas = append(h.replicas, r)
		h.kvs = append(h.kvs, kv)
	}
	for _, r := range h.replicas {
		r.Start()
	}
	t.Cleanup(h.stop)
	return h
}

func (h *harness) stop() {
	if h.stopped {
		return
	}
	h.stopped = true
	for _, r := range h.replicas {
		r.Stop()
	}
	h.net.Close()
}

func (h *harness) client(id ids.ClientID) *client.Client {
	policy := client.NewSeeMoRePolicy(h.mb, h.cluster.InitialMode)
	return client.New(id, h.suite, h.net, policy, h.cluster.Timing)
}

// mustPut runs a PUT through the cluster and fails the test on error.
func (h *harness) mustPut(c *client.Client, key, value string) {
	h.t.Helper()
	res, err := c.Invoke(statemachine.EncodePut(key, []byte(value)))
	if err != nil {
		h.t.Fatalf("put %s=%s: %v", key, value, err)
	}
	if st, _ := statemachine.DecodeResult(res); st != statemachine.KVOK {
		h.t.Fatalf("put %s=%s: status %d", key, value, st)
	}
}

func (h *harness) mustGet(c *client.Client, key, want string) {
	h.t.Helper()
	res, err := c.Invoke(statemachine.EncodeGet(key))
	if err != nil {
		h.t.Fatalf("get %s: %v", key, err)
	}
	st, v := statemachine.DecodeResult(res)
	if st != statemachine.KVOK || string(v) != want {
		h.t.Fatalf("get %s: status %d value %q, want %q", key, st, v, want)
	}
}

// waitFor polls cond until it holds or the timeout fails the test.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.After(timeout)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// verifyConvergence waits for every non-skipped replica to reach the
// same execution cursor, stops the cluster and asserts they hold an
// identical state machine. The wait is on the event, not a sleep: the
// last commits land on passive replicas an INFORM round (or a state
// transfer) after the client got its reply, and a loaded host stretches
// that arbitrarily. A replica that never catches up is a liveness defect
// of the catch-up path, which the timeout reports as such.
func (h *harness) verifyConvergence(skip map[ids.ReplicaID]bool) {
	h.t.Helper()
	waitFor(h.t, "every live replica to reach the same LastExecuted", 10*time.Second, func() bool {
		return sameCursor(h.replicas, skip)
	})
	h.stop()
	var refID ids.ReplicaID = -1
	var ref []byte
	for i, kv := range h.kvs {
		id := h.replicas[i].ID()
		if skip[id] {
			continue
		}
		snap := kv.Snapshot()
		if ref == nil {
			ref = snap
			refID = id
			continue
		}
		if !bytes.Equal(snap, ref) {
			h.t.Fatalf("replica %d state diverges from replica %d", id, refID)
		}
	}
}

// sameCursor reports whether every non-skipped replica currently reports
// the same LastExecuted (an atomic, safe to read while engines run).
func sameCursor(replicas []*Replica, skip map[ids.ReplicaID]bool) bool {
	var ref uint64
	first := true
	for _, r := range replicas {
		if skip[r.ID()] {
			continue
		}
		if n := r.LastExecuted(); first {
			ref, first = n, false
		} else if n != ref {
			return false
		}
	}
	return true
}

func baseMembership() ids.Membership { return ids.MustMembership(2, 4, 1, 1) }

// cftMembership is the CFT baseline's shape at f = 2: Lion with no
// public cloud, on 2f+1 private nodes.
func cftMembership() ids.Membership { return ids.MustMembership(5, 0, 2, 0) }

func TestLionHappyPath(t *testing.T) {
	h := newHarness(t, baseMembership(), ids.Lion, 1)
	c := h.client(0)
	for i := 0; i < 20; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	h.mustGet(c, "k7", "v7")
	h.verifyConvergence(nil)
}

func TestDogHappyPath(t *testing.T) {
	h := newHarness(t, baseMembership(), ids.Dog, 2)
	c := h.client(0)
	for i := 0; i < 20; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	h.mustGet(c, "k3", "v3")
	h.verifyConvergence(nil)
}

func TestPeacockHappyPath(t *testing.T) {
	h := newHarness(t, baseMembership(), ids.Peacock, 3)
	c := h.client(0)
	for i := 0; i < 20; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	h.mustGet(c, "k9", "v9")
	h.verifyConvergence(nil)
}

func TestLionMultipleClients(t *testing.T) {
	h := newHarness(t, baseMembership(), ids.Lion, 4)
	const clients = 4
	var wg sync.WaitGroup
	for cid := 0; cid < clients; cid++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done()
			c := h.client(ids.ClientID(cid))
			for i := 0; i < 10; i++ {
				key := fmt.Sprintf("c%d-k%d", cid, i)
				res, err := c.Invoke(statemachine.EncodePut(key, []byte("v")))
				if err != nil {
					t.Errorf("client %d put %d: %v", cid, i, err)
					return
				}
				if st, _ := statemachine.DecodeResult(res); st != statemachine.KVOK {
					t.Errorf("client %d put %d: status %d", cid, i, st)
					return
				}
			}
		}(cid)
	}
	wg.Wait()
	h.verifyConvergence(nil)
	// 40 distinct keys must exist on every replica.
	if h.kvs[0].Len() != clients*10 {
		t.Fatalf("replica 0 has %d keys, want %d", h.kvs[0].Len(), clients*10)
	}
}

func TestLionBackupCrashTolerated(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mb      ids.Membership
		crashed []ids.ReplicaID
	}{
		// The one tolerated private backup (replica 1) and one public node
		// (replica 5) — c=1 crash + m=1 "Byzantine" acting as silent.
		{"base", baseMembership(), []ids.ReplicaID{1, 5}},
		// f of the CFT line's 2f+1 nodes: its f+1 quorum still forms.
		{"CFT", cftMembership(), []ids.ReplicaID{3, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, tc.mb, ids.Lion, 5)
			skip := make(map[ids.ReplicaID]bool)
			for _, id := range tc.crashed {
				h.replicas[id].Crash()
				skip[id] = true
			}
			c := h.client(0)
			for i := 0; i < 10; i++ {
				h.mustPut(c, fmt.Sprintf("k%d", i), "v")
			}
			h.verifyConvergence(skip)
		})
	}
}

func TestLionPrimaryCrashViewChange(t *testing.T) {
	for _, tc := range []struct {
		name string
		mb   ids.Membership
	}{
		{"base", baseMembership()},
		// The CFT leader's crash: at m = 0 each follower joins on one
		// demand, as in Paxos.
		{"CFT", cftMembership()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, tc.mb, ids.Lion, 6)
			c := h.client(0)
			h.mustPut(c, "before", "crash")

			h.replicas[0].Crash() // primary of view 0
			// The next request times out at the dead primary, the client
			// broadcasts, backups suspect, and the view change elects
			// replica 1.
			h.mustPut(c, "after", "viewchange")
			h.mustGet(c, "before", "crash")
			h.mustGet(c, "after", "viewchange")

			h.verifyConvergence(map[ids.ReplicaID]bool{0: true})
			for _, r := range h.replicas[1:] {
				if r.View() == 0 {
					t.Errorf("replica %d still in view 0 after primary crash", r.ID())
				}
				if r.Mode() != ids.Lion {
					t.Errorf("replica %d left Lion mode", r.ID())
				}
			}
		})
	}
}

func TestDogPrimaryCrashViewChange(t *testing.T) {
	h := newHarness(t, baseMembership(), ids.Dog, 7)
	c := h.client(0)
	h.mustPut(c, "before", "crash")
	h.replicas[0].Crash()
	h.mustPut(c, "after", "viewchange")
	h.mustGet(c, "after", "viewchange")
	h.verifyConvergence(map[ids.ReplicaID]bool{0: true})
}

func TestPeacockPrimaryCrashTransfererViewChange(t *testing.T) {
	h := newHarness(t, baseMembership(), ids.Peacock, 8)
	c := h.client(0)
	h.mustPut(c, "before", "crash")
	// The Peacock primary of view 0 is replica S+0 = 2 (untrusted). A
	// Byzantine-silent primary looks exactly like a crashed one.
	h.replicas[2].Crash()
	h.mustPut(c, "after", "viewchange")
	h.mustGet(c, "after", "viewchange")
	h.verifyConvergence(map[ids.ReplicaID]bool{2: true})
	for _, r := range h.replicas {
		if r.ID() == 2 {
			continue
		}
		if r.View() == 0 {
			t.Errorf("replica %d still in view 0", r.ID())
		}
	}
}

func TestCheckpointGarbageCollection(t *testing.T) {
	h := newHarness(t, baseMembership(), ids.Lion, 9)
	c := h.client(0)
	// Period is 16; push well past two periods.
	for i := 0; i < 40; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), "v")
	}
	h.verifyConvergence(nil)
	for _, r := range h.replicas {
		if r.StableCheckpoint() < 16 {
			t.Errorf("replica %d stable checkpoint %d, want ≥ 16", r.ID(), r.StableCheckpoint())
		}
		if r.LiveLogSlots() > 64 {
			t.Errorf("replica %d holds %d live slots; GC not working", r.ID(), r.LiveLogSlots())
		}
	}
}

func TestPeacockCheckpointGarbageCollection(t *testing.T) {
	h := newHarness(t, baseMembership(), ids.Peacock, 10)
	c := h.client(0)
	for i := 0; i < 40; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), "v")
	}
	h.verifyConvergence(nil)
	for _, r := range h.replicas {
		if r.StableCheckpoint() < 16 {
			t.Errorf("replica %d stable checkpoint %d, want ≥ 16", r.ID(), r.StableCheckpoint())
		}
	}
}

func TestStateTransferCatchesUpIsolatedReplica(t *testing.T) {
	h := newHarness(t, baseMembership(), ids.Lion, 11)
	// Isolate a public backup, run several checkpoint periods, heal.
	lag := transport.ReplicaAddr(4)
	h.net.Isolate(lag)
	c := h.client(0)
	for i := 0; i < 48; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), "v")
	}
	// Observe the lagging replica's progress through a probe (safe while
	// the engine runs).
	var caughtUp sync.WaitGroup
	caughtUp.Add(1)
	var once sync.Once
	h.replicas[4].SetProbe(Probe{OnCheckpointStable: func(seq uint64) {
		if seq >= 32 {
			once.Do(caughtUp.Done)
		}
	}})
	h.net.Heal(lag)
	// More traffic so the healed replica sees current checkpoints and
	// requests a state transfer.
	for i := 48; i < 64; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), "v")
	}
	done := make(chan struct{})
	go func() { caughtUp.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("isolated replica never caught up")
	}
	h.verifyConvergence(nil)
}

func TestModeSwitchLionToDog(t *testing.T) {
	h := newHarness(t, baseMembership(), ids.Lion, 12)
	c := h.client(0)
	h.mustPut(c, "in-lion", "1")

	// The driver of a switch into Dog at view v+1 is the Dog primary of
	// view 1 = replica (1 mod S) = 1.
	h.replicas[1].RequestModeSwitch(ids.Dog)

	// The client keeps working across the switch; its policy follows the
	// mode echoed in replies.
	for i := 0; i < 10; i++ {
		h.mustPut(c, fmt.Sprintf("in-dog-%d", i), "2")
	}
	h.verifyConvergence(nil)
	for _, r := range h.replicas {
		if r.Mode() != ids.Dog {
			t.Errorf("replica %d in mode %s, want Dog", r.ID(), r.Mode())
		}
	}
}

func TestModeSwitchDogToPeacock(t *testing.T) {
	h := newHarness(t, baseMembership(), ids.Dog, 13)
	c := h.client(0)
	h.mustPut(c, "in-dog", "1")

	// Switching to Peacock at view 1 is driven by the transferer of view
	// 1 = replica (1 mod S) = 1.
	h.replicas[1].RequestModeSwitch(ids.Peacock)
	for i := 0; i < 10; i++ {
		h.mustPut(c, fmt.Sprintf("in-peacock-%d", i), "2")
	}
	h.verifyConvergence(nil)
	for _, r := range h.replicas {
		if r.Mode() != ids.Peacock {
			t.Errorf("replica %d in mode %s, want Peacock", r.ID(), r.Mode())
		}
	}
}

func TestModeSwitchPeacockBackToLion(t *testing.T) {
	h := newHarness(t, baseMembership(), ids.Peacock, 14)
	c := h.client(0)
	h.mustPut(c, "in-peacock", "1")
	h.replicas[1].RequestModeSwitch(ids.Lion)
	for i := 0; i < 10; i++ {
		h.mustPut(c, fmt.Sprintf("back-in-lion-%d", i), "2")
	}
	h.verifyConvergence(nil)
	for _, r := range h.replicas {
		if r.Mode() != ids.Lion {
			t.Errorf("replica %d in mode %s, want Lion", r.ID(), r.Mode())
		}
	}
}

// TestCFTClusterStaysInLion: with no public cloud (S=3 P=0, the CFT
// baseline) Dog and Peacock have no proxies, and Membership.Primary,
// IsProxy and Proxies would divide by P = 0 in them. Only the
// SupportsMode guards keep such a cluster out of those modes, so a
// switch requested at every replica must change nothing: the cluster
// keeps committing in Lion, view 0.
func TestCFTClusterStaysInLion(t *testing.T) {
	mb := ids.MustMembership(3, 0, 1, 0)
	for _, md := range []ids.Mode{ids.Dog, ids.Peacock} {
		if err := mb.SupportsMode(md); err == nil {
			t.Fatalf("S=3 P=0 supports %s", md)
		}
	}
	h := newHarness(t, mb, ids.Lion, 16)
	c := h.client(0)
	h.mustPut(c, "before", "1")
	for _, md := range []ids.Mode{ids.Dog, ids.Peacock} {
		for _, r := range h.replicas {
			r.RequestModeSwitch(md)
		}
	}
	for i := 0; i < 10; i++ {
		h.mustPut(c, fmt.Sprintf("after-%d", i), "2")
	}
	h.verifyConvergence(nil)
	for _, r := range h.replicas {
		if r.Mode() != ids.Lion || r.View() != 0 {
			t.Errorf("replica %d in %s view %d, want Lion view 0", r.ID(), r.Mode(), r.View())
		}
	}
}

func TestExactlyOnceAcrossRetransmission(t *testing.T) {
	mb := baseMembership()
	h := newHarness(t, mb, ids.Lion, 15)
	c := h.client(0)
	// Seed a counter-style balance and bump it through retries: use Add,
	// which is not idempotent, so double execution would show.
	seed := make([]byte, 8)
	seed[7] = 100
	h.mustPut(c, "acct", string(seed))
	// Crash the primary right before an Add so the request path includes
	// a client broadcast and a view change — the classic double-execution
	// trap.
	h.replicas[0].Crash()
	res, err := c.Invoke(statemachine.EncodeAdd("acct", 1))
	if err != nil {
		t.Fatal(err)
	}
	st, v := statemachine.DecodeResult(res)
	if st != statemachine.KVOK {
		t.Fatalf("add status %d", st)
	}
	if got := v[7]; got != 101 {
		t.Fatalf("balance %d, want 101", got)
	}
	h.verifyConvergence(map[ids.ReplicaID]bool{0: true})
	// Check the final balance on a live replica's store.
	bal, ok := h.kvs[1].Get("acct")
	if !ok || bal[7] != 101 {
		t.Fatalf("stored balance %v, want 101 (exactly-once violated?)", bal)
	}
}

func TestLargerClusterFigure2b(t *testing.T) {
	// Fig 2(b): c=2, m=2 → S=4, P=7, N=11.
	mb := ids.MustMembership(4, 7, 2, 2)
	h := newHarness(t, mb, ids.Lion, 16)
	c := h.client(0)
	for i := 0; i < 10; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), "v")
	}
	h.verifyConvergence(nil)
}
