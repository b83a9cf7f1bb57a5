package pbft

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
	"repro/internal/storage"
	"repro/internal/transport"
)

type harness struct {
	t        *testing.T
	n        int
	byz      int
	crash    int
	suite    crypto.Suite
	net      *transport.SimNetwork
	replicas []*Replica
	kvs      []*statemachine.KVStore
	timing   config.Timing
	stopped  bool
}

// newHarness builds and starts a PBFT cluster (crash=0) or an S-UpRight
// cluster (crash>0) — same engine, different sizing, like the paper.
func newHarness(t *testing.T, byz, crash int, seed int64) *harness {
	t.Helper()
	n := 3*byz + 2*crash + 1
	h := buildHarness(t, byz, crash, crypto.NewHMACSuite(seed, n, 64), seed, config.Timing{
		ViewChange:       100 * time.Millisecond,
		ClientRetry:      150 * time.Millisecond,
		CheckpointPeriod: 16,
		HighWaterMarkLag: 256,
	}, nil)
	h.start()
	return h
}

// buildHarness builds, without starting it, the cluster of byz and crash
// bounds over suite on a LAN seeded with seed, each replica journaling
// to storeOf(id) (storeOf nil: no durability).
func buildHarness(t *testing.T, byz, crash int, suite crypto.Suite, seed int64, timing config.Timing, storeOf func(ids.ReplicaID) storage.Store) *harness {
	t.Helper()
	n := 3*byz + 2*crash + 1
	h := &harness{
		t: t, n: n, byz: byz, crash: crash,
		suite:  suite,
		net:    transport.NewSimNetwork(transport.LAN(n, seed)),
		timing: timing,
	}
	t.Cleanup(h.stop)
	for i := 0; i < n; i++ {
		var st storage.Store
		if storeOf != nil {
			st = storeOf(ids.ReplicaID(i))
		}
		kv := statemachine.NewKVStore()
		r, err := NewReplica(Options{
			ID: ids.ReplicaID(i), N: n, Byz: byz, Crash: crash,
			Suite: h.suite, Network: h.net, StateMachine: kv,
			Timing: timing, TickInterval: 2 * time.Millisecond, Storage: st,
		})
		if err != nil {
			t.Fatal(err)
		}
		h.replicas = append(h.replicas, r)
		h.kvs = append(h.kvs, kv)
	}
	return h
}

func (h *harness) start() {
	for _, r := range h.replicas {
		r.Start()
	}
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
	policy := client.NewGenericPolicy(h.n, h.byz+1)
	return client.New(id, h.suite, h.net, policy, h.timing)
}

func (h *harness) mustPut(c *client.Client, key, value string) {
	h.t.Helper()
	res, err := c.Invoke(statemachine.EncodePut(key, []byte(value)))
	if err != nil {
		h.t.Fatalf("put %s: %v", key, err)
	}
	if st, _ := statemachine.DecodeResult(res); st != statemachine.KVOK {
		h.t.Fatalf("put %s: status %d", key, st)
	}
}

// verifyConvergence waits (on the event, not a sleep) for every
// non-skipped replica to reach the same execution cursor, then stops the
// cluster and compares states. A replica that never catches up is a
// liveness defect of the catch-up path; the timeout reports it as such.
func (h *harness) verifyConvergence(skip map[ids.ReplicaID]bool) {
	h.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !h.sameCursor(skip) {
		if time.Now().After(deadline) {
			h.t.Fatal("timed out waiting for every live replica to reach the same LastExecuted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.stop()
	var ref []byte
	for i, kv := range h.kvs {
		if skip[h.replicas[i].ID()] {
			continue
		}
		snap := kv.Snapshot()
		if ref == nil {
			ref = snap
			continue
		}
		if !bytes.Equal(snap, ref) {
			h.t.Fatalf("replica %d diverges", h.replicas[i].ID())
		}
	}
}

// sameCursor reports whether every non-skipped replica currently reports
// the same LastExecuted (an atomic, safe to read while engines run).
func (h *harness) sameCursor(skip map[ids.ReplicaID]bool) bool {
	var ref uint64
	first := true
	for _, r := range h.replicas {
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

func TestNewReplicaValidation(t *testing.T) {
	net := transport.NewSimNetwork(transport.SimConfig{Seed: 1, PrivateSize: 4})
	defer net.Close()
	suite := crypto.NewHMACSuite(1, 4, 0)
	base := Options{
		N: 4, Byz: 1, Suite: suite, Network: net,
		StateMachine: statemachine.NewCounter(), Timing: config.DefaultTiming(),
	}
	bad := base
	bad.N = 3 // below 3f+1
	if _, err := NewReplica(bad); err == nil {
		t.Error("undersized cluster accepted")
	}
	bad = base
	bad.Byz = -1
	if _, err := NewReplica(bad); err == nil {
		t.Error("negative byz accepted")
	}
	bad = base
	bad.ID = 9
	if _, err := NewReplica(bad); err == nil {
		t.Error("out-of-range id accepted")
	}
	r, err := NewReplica(base)
	if err != nil {
		t.Fatal(err)
	}
	if r.Quorum() != 3 {
		t.Errorf("PBFT f=1 quorum = %d, want 3", r.Quorum())
	}
	if r.WeakQuorum() != 2 {
		t.Errorf("weak quorum = %d, want 2", r.WeakQuorum())
	}
	// S-UpRight sizing: m=1, c=1 → N=6, quorum 4.
	su := base
	su.N, su.Byz, su.Crash = 6, 1, 1
	r2, err := NewReplica(su)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Quorum() != 4 {
		t.Errorf("S-UpRight quorum = %d, want 2m+c+1 = 4", r2.Quorum())
	}
}

// TestNewReplicaUpRightBounds holds an S-UpRight replica to its hybrid
// bounds: m=1, c=1 needs 3m+2c+1 = 6 replicas, and neither bound may be
// negative.
func TestNewReplicaUpRightBounds(t *testing.T) {
	net := transport.NewSimNetwork(transport.SimConfig{Seed: 1, PrivateSize: 6})
	defer net.Close()
	base := Options{
		N: 6, Byz: 1, Crash: 1, Suite: crypto.NewHMACSuite(1, 6, 0), Network: net,
		StateMachine: statemachine.NewCounter(), Timing: config.DefaultTiming(),
	}
	r, err := NewReplica(base)
	if err != nil {
		t.Fatal(err)
	}
	if r.Quorum() != 4 {
		t.Errorf("quorum = %d, want 4", r.Quorum())
	}
	bad := base
	bad.N = 5
	if _, err := NewReplica(bad); err == nil {
		t.Error("N = 5 accepted for m=1 c=1")
	}
	bad = base
	bad.Crash = -1
	if _, err := NewReplica(bad); err == nil {
		t.Error("negative crash bound accepted")
	}
}

func TestPBFTHappyPath(t *testing.T) {
	h := newHarness(t, 1, 0, 1) // N = 4
	c := h.client(0)
	for i := 0; i < 25; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	h.verifyConvergence(nil)
	if h.kvs[0].Len() != 25 {
		t.Fatalf("keys = %d", h.kvs[0].Len())
	}
}

func TestUpRightHappyPath(t *testing.T) {
	h := newHarness(t, 1, 1, 2) // S-UpRight m=1 c=1: N = 6
	c := h.client(0)
	for i := 0; i < 20; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), "v")
	}
	h.verifyConvergence(nil)
}

func TestPBFTToleratesSilentReplica(t *testing.T) {
	h := newHarness(t, 1, 0, 3)
	h.replicas[2].Crash() // one silent (Byzantine-or-crashed) backup
	c := h.client(0)
	for i := 0; i < 10; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), "v")
	}
	h.verifyConvergence(map[ids.ReplicaID]bool{2: true})
}

func TestUpRightToleratesMixedFailures(t *testing.T) {
	h := newHarness(t, 1, 1, 4) // N=6, tolerates 1 byz + 1 crash
	h.replicas[4].Crash()
	h.replicas[5].Crash()
	c := h.client(0)
	for i := 0; i < 10; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), "v")
	}
	h.verifyConvergence(map[ids.ReplicaID]bool{4: true, 5: true})
}

func TestPBFTPrimaryCrashViewChange(t *testing.T) {
	h := newHarness(t, 1, 0, 5)
	c := h.client(0)
	h.mustPut(c, "before", "crash")
	h.replicas[0].Crash()
	h.mustPut(c, "after", "viewchange")
	h.verifyConvergence(map[ids.ReplicaID]bool{0: true})
	for _, r := range h.replicas[1:] {
		if r.View() == 0 {
			t.Errorf("replica %d still in view 0", r.ID())
		}
	}
}

func TestPBFTCheckpointGC(t *testing.T) {
	h := newHarness(t, 1, 0, 6)
	c := h.client(0)
	for i := 0; i < 40; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), "v")
	}
	h.verifyConvergence(nil)
	for _, r := range h.replicas {
		if r.StableCheckpoint() < 16 {
			t.Errorf("replica %d stable = %d", r.ID(), r.StableCheckpoint())
		}
	}
}

func TestPBFTConcurrentClients(t *testing.T) {
	h := newHarness(t, 1, 0, 7)
	var wg sync.WaitGroup
	for cid := 0; cid < 3; cid++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done()
			c := h.client(ids.ClientID(cid))
			for i := 0; i < 10; i++ {
				res, err := c.Invoke(statemachine.EncodePut(fmt.Sprintf("c%d-%d", cid, i), []byte("v")))
				if err != nil {
					t.Errorf("client %d: %v", cid, err)
					return
				}
				if st, _ := statemachine.DecodeResult(res); st != statemachine.KVOK {
					t.Errorf("client %d: status %d", cid, st)
					return
				}
			}
		}(cid)
	}
	wg.Wait()
	h.verifyConvergence(nil)
	if h.kvs[0].Len() != 30 {
		t.Fatalf("keys = %d, want 30", h.kvs[0].Len())
	}
}

func TestPBFTStateTransfer(t *testing.T) {
	h := newHarness(t, 1, 0, 8)
	lag := transport.ReplicaAddr(3)
	h.net.Isolate(lag)
	c := h.client(0)
	for i := 0; i < 48; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), "v")
	}
	h.net.Heal(lag)
	for i := 48; i < 64; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), "v")
	}
	time.Sleep(500 * time.Millisecond)
	h.verifyConvergence(nil)
}
