package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/pbft"
	"repro/internal/statemachine"
	"repro/internal/transport"
)

func testTiming() config.Timing {
	return config.Timing{
		ViewChange:       100 * time.Millisecond,
		ClientRetry:      150 * time.Millisecond,
		CheckpointPeriod: 16,
		HighWaterMarkLag: 256,
	}
}

func runWorkload(t *testing.T, c *Cluster, n int) {
	t.Helper()
	cl := c.NewClient(0)
	for i := 0; i < n; i++ {
		res, err := cl.Invoke(statemachine.EncodePut(fmt.Sprintf("k%d", i), []byte("v")))
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if st, _ := statemachine.DecodeResult(res); st != statemachine.KVOK {
			t.Fatalf("put %d: status %d", i, st)
		}
	}
}

// sharedWatermark reports how many of the non-skipped nodes currently
// stand at the highest executor watermark, and that watermark.
func sharedWatermark(nodes []Node, skip map[ids.ReplicaID]bool) (hi uint64, at int) {
	for _, n := range nodes {
		if skip[n.ID()] {
			continue
		}
		switch w := n.LastExecuted(); {
		case w > hi:
			hi, at = w, 1
		case w == hi:
			at++
		}
	}
	return hi, at
}

// waitSettled polls executor watermarks until at least `need` of the
// non-skipped nodes agree on the highest executed sequence number, and
// that agreement holds across two observations (nothing still in
// flight between them). It replaces the fixed convergence sleeps: fast
// runs settle in a few milliseconds instead of always paying the worst
// case, and slow runs (race detector, loaded hosts) get the full
// timeout instead of flaking. It reports whether the nodes settled
// before the timeout.
func waitSettled(t *testing.T, nodes []Node, skip map[ids.ReplicaID]bool, need int, timeout time.Duration) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var lastHi uint64
	stable := false
	for time.Now().Before(deadline) {
		hi, at := sharedWatermark(nodes, skip)
		if hi > 0 && at >= need {
			if stable && hi == lastHi {
				return true
			}
			stable, lastHi = true, hi
		} else {
			stable = false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

func verifyConvergence(t *testing.T, c *Cluster, skip map[ids.ReplicaID]bool) {
	t.Helper()
	live := 0
	for _, n := range c.Nodes {
		if !skip[n.ID()] {
			live++
		}
	}
	if !waitSettled(t, c.Nodes, skip, live, 5*time.Second) {
		// A replica still behind is a liveness failure, not divergence:
		// the snapshot comparison below would misreport it as one.
		var marks []string
		for _, n := range c.Nodes {
			if !skip[n.ID()] {
				marks = append(marks, fmt.Sprintf("%d:%d", n.ID(), n.LastExecuted()))
			}
		}
		t.Fatalf("live replicas did not settle on one executed sequence within 5s (replica:LastExecuted %s)", strings.Join(marks, " "))
	}
	c.Stop()
	var ref []byte
	var refID ids.ReplicaID = -1
	for i, sm := range c.SMs {
		id := c.Nodes[i].ID()
		if skip[id] {
			continue
		}
		snap := sm.Snapshot()
		if ref == nil {
			ref, refID = snap, id
			continue
		}
		if !bytes.Equal(snap, ref) {
			t.Fatalf("replica %d diverges from %d", id, refID)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := New(Spec{Protocol: SeeMoRe}); err == nil {
		t.Error("zero failure bounds accepted")
	}
	if _, err := New(Spec{Protocol: Protocol(9), Crash: 1, Byz: 1}); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := New(Spec{Protocol: SeeMoRe, Crash: 1, Byz: 1, Suite: "rot13"}); err == nil {
		t.Error("unknown suite accepted")
	}
	// SeeMoRe needs a private cloud: c = 0 is rejected by membership
	// validation.
	if _, err := New(Spec{Protocol: SeeMoRe, Byz: 1}); err == nil {
		t.Error("SeeMoRe without a private cloud accepted")
	}
}

func TestProtocolNames(t *testing.T) {
	names := map[Protocol]string{SeeMoRe: "SeeMoRe", Paxos: "CFT", PBFT: "BFT", UpRight: "S-UpRight"}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestClusterSizesMatchPaper(t *testing.T) {
	// Section 6.1, f=2 scenario: SeeMoRe/S-UpRight = 6, CFT = 5, BFT = 7.
	cases := []struct {
		p    Protocol
		want int
	}{
		{SeeMoRe, 6}, {UpRight, 6}, {Paxos, 5}, {PBFT, 7},
	}
	for _, tc := range cases {
		s := Spec{Protocol: tc.p, Crash: 1, Byz: 1}
		n, err := s.sizes()
		if err != nil {
			t.Fatal(err)
		}
		if n != tc.want {
			t.Errorf("%s: N = %d, want %d", tc.p, n, tc.want)
		}
	}
	// Fig 2(c): c=1, m=3 → SeeMoRe 12, S-UpRight 12, CFT 9, BFT 13.
	for _, tc := range []struct {
		p    Protocol
		want int
	}{{SeeMoRe, 12}, {UpRight, 12}, {Paxos, 9}, {PBFT, 13}} {
		s := Spec{Protocol: tc.p, Crash: 1, Byz: 3}
		n, _ := s.sizes()
		if n != tc.want {
			t.Errorf("fig2c %s: N = %d, want %d", tc.p, n, tc.want)
		}
	}
}

// TestUpRightSizing builds S-UpRight wherever the paper's failure bounds
// put it: N = 3m+2c+1 PBFT replicas, each with agreement quorum 2m+c+1.
func TestUpRightSizing(t *testing.T) {
	cases := []struct{ m, c, n, q int }{
		{1, 1, 6, 4},  // the paper's f=2 scenario
		{2, 2, 11, 7}, // Fig 2(b)
		{3, 1, 12, 8}, // Fig 2(c)
		{1, 3, 10, 6}, // Fig 2(d)
		{0, 1, 3, 2},  // degenerate crash-only
	}
	for _, tc := range cases {
		c, err := New(Spec{Protocol: UpRight, Crash: tc.c, Byz: tc.m, Timing: testTiming()})
		if err != nil {
			t.Fatalf("m=%d c=%d: %v", tc.m, tc.c, err)
		}
		if c.N != tc.n || len(c.Nodes) != tc.n {
			t.Errorf("m=%d c=%d: N = %d with %d nodes, want %d", tc.m, tc.c, c.N, len(c.Nodes), tc.n)
		}
		for id, node := range c.Nodes {
			r, ok := node.(*pbft.Replica)
			if !ok {
				t.Fatalf("m=%d c=%d: replica %d is %T, want *pbft.Replica", tc.m, tc.c, id, node)
			}
			if r.Quorum() != tc.q {
				t.Errorf("m=%d c=%d: replica %d quorum = %d, want %d", tc.m, tc.c, id, r.Quorum(), tc.q)
			}
		}
		c.Stop()
	}
}

func TestAllProtocolsEndToEnd(t *testing.T) {
	for _, p := range []Protocol{SeeMoRe, Paxos, PBFT, UpRight} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			c, err := New(Spec{Protocol: p, Crash: 1, Byz: 1, Timing: testTiming(), Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			runWorkload(t, c, 15)
			verifyConvergence(t, c, nil)
		})
	}
}

func TestSeeMoReModes(t *testing.T) {
	for _, mode := range []ids.Mode{ids.Lion, ids.Dog, ids.Peacock} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			c, err := New(Spec{Protocol: SeeMoRe, Mode: mode, Crash: 1, Byz: 1, Timing: testTiming(), Seed: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			runWorkload(t, c, 15)
			verifyConvergence(t, c, nil)
		})
	}
}

func TestByzantineSilentToleratedEverywhere(t *testing.T) {
	// One silent Byzantine node in the public cloud (replica N-1 is
	// public in every protocol's layout for SeeMoRe; for baselines any
	// node works since they make no placement assumptions).
	for _, p := range []Protocol{SeeMoRe, PBFT, UpRight} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			spec := Spec{Protocol: p, Crash: 1, Byz: 1, Timing: testTiming(), Seed: 9}
			n, _ := spec.sizes()
			byzID := ids.ReplicaID(n - 1)
			spec.Byzantine = map[ids.ReplicaID]Behavior{byzID: BehaviorSilent}
			c, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			runWorkload(t, c, 10)
			verifyConvergence(t, c, map[ids.ReplicaID]bool{byzID: true})
		})
	}
}

func TestByzantineCorruptVotesOutvoted(t *testing.T) {
	// A traitor that signs wrong digests must not break safety: honest
	// quorum intersection outvotes it in every mode.
	for _, mode := range []ids.Mode{ids.Lion, ids.Dog, ids.Peacock} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			spec := Spec{Protocol: SeeMoRe, Mode: mode, Crash: 1, Byz: 1, Timing: testTiming(), Seed: 10}
			n, _ := spec.sizes()
			byzID := ids.ReplicaID(n - 1) // public-cloud node
			spec.Byzantine = map[ids.ReplicaID]Behavior{byzID: BehaviorCorrupt}
			c, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			runWorkload(t, c, 10)
			// The corrupt node's own state may diverge (it refuses its own
			// lies but drops out of quorums); everyone else must agree.
			verifyConvergence(t, c, map[ids.ReplicaID]bool{byzID: true})
			// Outvoted, not idle: the traitor did lie, and its lies pass
			// authentication (TestByzantineLiesAuthenticate).
			if c.ByzantineAttacks() == 0 {
				t.Error("the traitor never corrupted a vote")
			}
		})
	}
}

func TestByzantineEquivocationSafe(t *testing.T) {
	spec := Spec{Protocol: SeeMoRe, Mode: ids.Peacock, Crash: 1, Byz: 1, Timing: testTiming(), Seed: 11}
	n, _ := spec.sizes()
	byzID := ids.ReplicaID(n - 1)
	spec.Byzantine = map[ids.ReplicaID]Behavior{byzID: BehaviorEquivocate}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	runWorkload(t, c, 10)
	verifyConvergence(t, c, map[ids.ReplicaID]bool{byzID: true})
	if c.ByzantineAttacks() == 0 {
		t.Error("the traitor never corrupted a vote")
	}
}

func TestCrashAndRecover(t *testing.T) {
	c, err := New(Spec{Protocol: SeeMoRe, Mode: ids.Lion, Crash: 1, Byz: 1, Timing: testTiming(), Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl := c.NewClient(0)
	if _, err := cl.Invoke(statemachine.EncodePut("a", []byte("1"))); err != nil {
		t.Fatal(err)
	}
	c.CrashNode(1) // private backup
	for i := 0; i < 18; i++ {
		if _, err := cl.Invoke(statemachine.EncodePut(fmt.Sprintf("b%d", i), []byte("2"))); err != nil {
			t.Fatal(err)
		}
	}
	c.RecoverNode(1)
	// Recovery is checkpoint-granular (the paper's State Transfer);
	// cross another boundary so the recovered backup can catch up.
	for i := 0; i < 20; i++ {
		if _, err := cl.Invoke(statemachine.EncodePut(fmt.Sprintf("c%d", i), []byte("3"))); err != nil {
			t.Fatal(err)
		}
	}
	verifyConvergence(t, c, nil)
}

func TestPartitionAndHeal(t *testing.T) {
	c, err := New(Spec{Protocol: Paxos, Crash: 1, Byz: 0, Timing: testTiming(), Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl := c.NewClient(0)
	c.PartitionNode(2)
	for i := 0; i < 20; i++ {
		if _, err := cl.Invoke(statemachine.EncodePut(fmt.Sprintf("during%d", i), []byte("1"))); err != nil {
			t.Fatal(err)
		}
	}
	c.HealNode(2)
	// Slots missed inside the window are recovered through checkpoint
	// state transfer, so cross at least one more checkpoint boundary
	// (period 16) after healing.
	for i := 0; i < 20; i++ {
		if _, err := cl.Invoke(statemachine.EncodePut(fmt.Sprintf("after%d", i), []byte("2"))); err != nil {
			t.Fatal(err)
		}
	}
	verifyConvergence(t, c, nil)
}

func TestBehaviorString(t *testing.T) {
	for b, want := range map[Behavior]string{
		BehaviorNone: "honest", BehaviorSilent: "silent",
		BehaviorCorrupt: "corrupt", BehaviorEquivocate: "equivocate",
		BehaviorImpersonate: "impersonate", Behavior(42): "unknown",
	} {
		if b.String() != want {
			t.Errorf("%d = %q, want %q", int(b), b.String(), want)
		}
	}
}

func TestSeeMoReNodeAccessor(t *testing.T) {
	c, err := New(Spec{Protocol: SeeMoRe, Mode: ids.Lion, Crash: 1, Byz: 1, Timing: testTiming(), Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if c.SeeMoReNode(0).ID() != 0 {
		t.Fatal("typed accessor broken")
	}
}

func TestByzantineEquivocatingPeacockPrimary(t *testing.T) {
	// The Peacock primary of view 0 (the first proxy, replica S+0 = 2)
	// equivocates. Correct proxies reject the corrupted pre-prepares,
	// the transferer drives a view change, and the cluster keeps going —
	// the paper's worst case for the Peacock mode.
	spec := Spec{Protocol: SeeMoRe, Mode: ids.Peacock, Crash: 1, Byz: 1, Timing: testTiming(), Seed: 21}
	spec.Byzantine = map[ids.ReplicaID]Behavior{2: BehaviorEquivocate}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	runWorkload(t, c, 8)
	verifyConvergence(t, c, map[ids.ReplicaID]bool{2: true})
	if c.ByzantineAttacks() == 0 {
		t.Error("the traitor never corrupted a proposal or vote")
	}
}

func TestLossyDuplicatingJitteryNetwork(t *testing.T) {
	// Section 3.1's asynchrony in full: the network drops, duplicates and
	// reorders. Safety must hold unconditionally; liveness comes from
	// client retransmission and view changes.
	for _, mode := range []ids.Mode{ids.Lion, ids.Peacock} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			net := transport.LAN(2, 22)
			net.DropRate = 0.02
			net.DupRate = 0.02
			net.Jitter = 0.5
			c, err := New(Spec{
				Protocol: SeeMoRe, Mode: mode, Crash: 1, Byz: 1,
				Timing: testTiming(), Net: &net, Seed: 22,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			cl := c.NewClient(0)
			for i := 0; i < 25; i++ {
				res, err := cl.Invoke(statemachine.EncodePut(fmt.Sprintf("k%d", i), []byte("v")))
				if err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
				if st, _ := statemachine.DecodeResult(res); st != statemachine.KVOK {
					t.Fatalf("put %d: status %d", i, st)
				}
			}
			// On a lossy network replicas may legitimately sit at
			// different lag points between checkpoints, so full
			// convergence is not guaranteed at any instant. The testable
			// invariant is that every completed request is durable: at
			// least m+1 replicas (one of them correct) hold the full
			// final state — wait on watermarks until that many agree.
			waitSettled(t, c.Nodes, nil, c.Membership.M()+1, 5*time.Second)
			c.Stop()
			counts := map[string]int{}
			for _, sm := range c.SMs {
				counts[string(sm.Snapshot())]++
			}
			best := 0
			for _, n := range counts {
				if n > best {
					best = n
				}
			}
			if need := c.Membership.M() + 1; best < need {
				t.Fatalf("only %d replicas agree on a state; need at least %d", best, need)
			}
		})
	}
}

func TestDogWithCrashedPrimaryAndSilentProxy(t *testing.T) {
	// Both failure budgets spent at once: the trusted primary crashes
	// (c = 1) while a public proxy is Byzantine-silent (m = 1).
	spec := Spec{Protocol: SeeMoRe, Mode: ids.Dog, Crash: 1, Byz: 1, Timing: testTiming(), Seed: 23}
	spec.Byzantine = map[ids.ReplicaID]Behavior{5: BehaviorSilent}
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl := c.NewClient(0)
	if _, err := cl.Invoke(statemachine.EncodePut("pre", []byte("1"))); err != nil {
		t.Fatal(err)
	}
	c.CrashNode(0)
	for i := 0; i < 6; i++ {
		if _, err := cl.Invoke(statemachine.EncodePut(fmt.Sprintf("post%d", i), []byte("2"))); err != nil {
			t.Fatalf("put %d after double failure: %v", i, err)
		}
	}
	verifyConvergence(t, c, map[ids.ReplicaID]bool{0: true, 5: true})
}

func TestExtraPublicNodesEndToEnd(t *testing.T) {
	// Over-provisioned public cloud (Section 4's load-balancing rental):
	// P = 3m+1+2; proxies stay at 3m+1, the extra nodes follow passively.
	c, err := New(Spec{
		Protocol: SeeMoRe, Mode: ids.Dog, Crash: 1, Byz: 1,
		ExtraPublic: 2, Timing: testTiming(), Seed: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if c.N != 8 {
		t.Fatalf("N = %d, want 8", c.N)
	}
	runWorkload(t, c, 12)
	verifyConvergence(t, c, nil)
}

func TestLargerFailureMixesEndToEnd(t *testing.T) {
	// The remaining Figure-2 mixes (2b: c=2,m=2 and 2d: c=3,m=1) through
	// the full stack.
	for _, tc := range []struct{ c, m int }{{2, 2}, {3, 1}} {
		tc := tc
		t.Run(fmt.Sprintf("c%dm%d", tc.c, tc.m), func(t *testing.T) {
			c, err := New(Spec{
				Protocol: SeeMoRe, Mode: ids.Dog, Crash: tc.c, Byz: tc.m,
				Timing: testTiming(), Seed: 25,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			runWorkload(t, c, 10)
			verifyConvergence(t, c, nil)
		})
	}
}
