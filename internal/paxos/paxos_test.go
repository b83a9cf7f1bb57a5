package paxos

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

type harness struct {
	t        *testing.T
	n        int
	suite    crypto.Suite
	net      *transport.SimNetwork
	replicas []*Replica
	kvs      []*statemachine.KVStore
	timing   config.Timing
	stopped  bool
}

func newHarness(t *testing.T, n int, seed int64) *harness {
	t.Helper()
	timing := config.Timing{
		ViewChange:       100 * time.Millisecond,
		ClientRetry:      150 * time.Millisecond,
		CheckpointPeriod: 16,
		HighWaterMarkLag: 256,
	}
	h := &harness{
		t:      t,
		n:      n,
		suite:  crypto.NewHMACSuite(seed, n, 64),
		net:    transport.NewSimNetwork(transport.LAN(n, seed)),
		timing: timing,
	}
	for i := 0; i < n; i++ {
		kv := statemachine.NewKVStore()
		r, err := NewReplica(Options{
			ID:           ids.ReplicaID(i),
			N:            n,
			Suite:        h.suite,
			Network:      h.net,
			StateMachine: kv,
			Timing:       timing,
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
	policy := client.NewGenericPolicy(h.n, func(v ids.View) ids.ReplicaID {
		return ids.ReplicaID(int(v % ids.View(h.n)))
	}, 1, 1)
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
	net := transport.NewSimNetwork(transport.SimConfig{Seed: 1, PrivateSize: 5})
	defer net.Close()
	suite := crypto.NewHMACSuite(1, 5, 0)
	base := Options{
		N: 5, Suite: suite, Network: net,
		StateMachine: statemachine.NewCounter(), Timing: config.DefaultTiming(),
	}
	bad := base
	bad.N = 4 // even
	if _, err := NewReplica(bad); err == nil {
		t.Error("even cluster size accepted")
	}
	bad = base
	bad.N = 1
	if _, err := NewReplica(bad); err == nil {
		t.Error("single-node cluster accepted")
	}
	bad = base
	bad.ID = 7
	if _, err := NewReplica(bad); err == nil {
		t.Error("out-of-range id accepted")
	}
	bad = base
	bad.Timing.CheckpointPeriod = 0
	if _, err := NewReplica(bad); err == nil {
		t.Error("invalid timing accepted")
	}
	good := base
	good.ID = 2
	r, err := NewReplica(good)
	if err != nil {
		t.Fatal(err)
	}
	if r.Quorum() != 3 {
		t.Errorf("quorum = %d, want 3", r.Quorum())
	}
	if r.Leader(7) != 2 {
		t.Errorf("leader(7) = %d, want 2", r.Leader(7))
	}
}

func TestPaxosHappyPath(t *testing.T) {
	h := newHarness(t, 5, 1)
	c := h.client(0)
	for i := 0; i < 25; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	h.verifyConvergence(nil)
	if h.kvs[0].Len() != 25 {
		t.Fatalf("replica 0 has %d keys", h.kvs[0].Len())
	}
}

func TestPaxosToleratesFCrashes(t *testing.T) {
	h := newHarness(t, 5, 2)
	h.replicas[3].Crash()
	h.replicas[4].Crash()
	c := h.client(0)
	for i := 0; i < 10; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), "v")
	}
	h.verifyConvergence(map[ids.ReplicaID]bool{3: true, 4: true})
}

func TestPaxosLeaderCrashViewChange(t *testing.T) {
	h := newHarness(t, 5, 3)
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

func TestPaxosCheckpointGC(t *testing.T) {
	h := newHarness(t, 3, 4)
	c := h.client(0)
	for i := 0; i < 40; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), "v")
	}
	h.verifyConvergence(nil)
	for _, r := range h.replicas {
		if r.StableCheckpoint() < 16 {
			t.Errorf("replica %d stable = %d, want ≥ 16", r.ID(), r.StableCheckpoint())
		}
	}
}

func TestPaxosConcurrentClients(t *testing.T) {
	h := newHarness(t, 5, 5)
	var wg sync.WaitGroup
	for cid := 0; cid < 4; cid++ {
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
	if h.kvs[0].Len() != 40 {
		t.Fatalf("keys = %d, want 40", h.kvs[0].Len())
	}
}

func TestPaxosStateTransfer(t *testing.T) {
	h := newHarness(t, 3, 6)
	lag := transport.ReplicaAddr(2)
	h.net.Isolate(lag)
	c := h.client(0)
	for i := 0; i < 48; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), "v")
	}
	h.net.Heal(lag)
	for i := 48; i < 64; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), "v")
	}
	deadline := time.After(10 * time.Second)
	for {
		time.Sleep(10 * time.Millisecond)
		// Poll through a fresh snapshot comparison after stopping is the
		// safe route; here we simply wait a bounded time then verify.
		select {
		case <-deadline:
			t.Fatal("timed out")
		default:
		}
		break
	}
	time.Sleep(500 * time.Millisecond)
	h.verifyConvergence(nil)
}
