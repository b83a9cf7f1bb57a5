package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/statemachine"
	"repro/internal/transport"
)

// pipelineTiming is fastTiming with a roomier suspicion timer: per-slot
// timers are stricter than the old restart-on-commit timer (that is the
// point), so a τ sized for idle clusters would fire spuriously under
// the race detector's ~10× slowdown with a full proposal window of
// ed25519 verification queued up.
func pipelineTiming() config.Timing {
	tm := fastTiming()
	tm.ViewChange = 400 * time.Millisecond
	tm.ClientRetry = 200 * time.Millisecond
	return tm
}

// pipeHarness wraps harness with per-replica executed-request counters
// so tests can wait for global execution through probes (the inspection
// accessors are engine-confined and unsafe while the engines run).
type pipeHarness struct {
	*harness
	execs []*atomic.Int64
}

// newPipelineHarness is newHarness with a bounded proposal pipeline
// (and optionally batching) enabled.
func newPipelineHarness(t *testing.T, mb ids.Membership, mode ids.Mode, seed int64,
	p config.Pipelining, b config.Batching) *pipeHarness {
	t.Helper()
	cl, err := config.NewCluster(mb, mode, pipelineTiming())
	if err != nil {
		t.Fatal(err)
	}
	cl.Batching = b
	cl.Pipelining = p
	h := &harness{
		t:       t,
		mb:      mb,
		cluster: cl,
		suite:   crypto.NewEd25519Suite(seed, mb.N(), 64),
		net:     transport.NewSimNetwork(transport.LAN(mb.S(), seed)),
	}
	ph := &pipeHarness{harness: h}
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
		count := &atomic.Int64{}
		r.SetProbe(Probe{OnExecute: func(uint64, *message.Request, []byte) { count.Add(1) }})
		h.replicas = append(h.replicas, r)
		h.kvs = append(h.kvs, kv)
		ph.execs = append(ph.execs, count)
	}
	for _, r := range h.replicas {
		r.Start()
	}
	t.Cleanup(h.stop)
	return ph
}

// waitExecuted blocks until every non-skipped replica has applied at
// least total requests, so convergence checks never race a lagging
// passive node that is still draining informs.
func (ph *pipeHarness) waitExecuted(total int, skip map[ids.ReplicaID]bool) {
	ph.t.Helper()
	waitFor(ph.t, "all replicas executing the workload", 10*time.Second, func() bool {
		for i, r := range ph.replicas {
			if skip[r.ID()] {
				continue
			}
			if ph.execs[i].Load() < int64(total) {
				return false
			}
		}
		return true
	})
}

// TestPipelineHappyPathAllModes: a pipelined primary keeps several
// slots in flight under concurrent clients, and every mode still
// executes everything exactly once on every replica.
func TestPipelineHappyPathAllModes(t *testing.T) {
	for _, mode := range []ids.Mode{ids.Lion, ids.Dog, ids.Peacock} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			h := newPipelineHarness(t, baseMembership(), mode, 21,
				config.Pipelining{Depth: 4}, config.Batching{})
			const clients, per = 4, 10
			runBatchClients(t, h.harness, 0, clients, per)
			h.waitExecuted(clients*per, nil)
			h.verifyConvergence(nil)
			if got := h.kvs[0].Len(); got != clients*per {
				t.Fatalf("replica 0 has %d keys, want %d", got, clients*per)
			}
		})
	}
}

// TestPipelineStopAndWaitDepthOne: Depth=1 is the degenerate pipeline —
// one slot at a time — and must still drain a concurrent backlog
// correctly (the pump refills the window from the buffered queue as
// each slot commits).
func TestPipelineStopAndWaitDepthOne(t *testing.T) {
	h := newPipelineHarness(t, baseMembership(), ids.Lion, 22,
		config.Pipelining{Depth: 1}, config.Batching{})
	const clients, per = 4, 8
	runBatchClients(t, h.harness, 0, clients, per)
	h.waitExecuted(clients*per, nil)
	h.verifyConvergence(nil)
	if got := h.kvs[0].Len(); got != clients*per {
		t.Fatalf("replica 0 has %d keys, want %d", got, clients*per)
	}
}

// TestPipelineViewChangePartialWindow: crash the primary while a
// pipelined window is in flight (some slots committed, some not). The
// NEW-VIEW must re-propose the whole window and no request may be lost
// or executed twice.
func TestPipelineViewChangePartialWindow(t *testing.T) {
	h := newPipelineHarness(t, baseMembership(), ids.Lion, 23,
		config.Pipelining{Depth: 8}, config.Batching{})
	c := h.client(0)
	h.mustPut(c, "before", "crash")

	// Offered load from concurrent clients keeps the window occupied,
	// then the primary dies mid-stream: whatever slots were in flight
	// are exactly the partially committed window the view change must
	// recover.
	done := make(chan struct{})
	go func() {
		defer close(done)
		runBatchClients(t, h.harness, 1, 4, 6)
	}()
	time.Sleep(5 * time.Millisecond)
	h.replicas[0].Crash()
	<-done

	h.mustGet(c, "before", "crash")
	h.waitExecuted(1+4*6, map[ids.ReplicaID]bool{0: true})
	h.verifyConvergence(map[ids.ReplicaID]bool{0: true})
	// "before" + 4 clients × 6 distinct keys, each exactly once.
	if got, want := h.kvs[1].Len(), 1+4*6; got != want {
		t.Fatalf("replica 1 has %d keys, want %d", got, want)
	}
	for _, r := range h.replicas[1:] {
		if r.View() == 0 {
			t.Errorf("replica %d still in view 0 after primary crash", r.ID())
		}
	}
}

// TestPipelineCheckpointGCInFlight: checkpoints stabilize and garbage-
// collect the log while the pipeline keeps new slots in flight; the
// window advances past several checkpoint periods without wedging.
func TestPipelineCheckpointGCInFlight(t *testing.T) {
	h := newPipelineHarness(t, baseMembership(), ids.Lion, 24,
		config.Pipelining{Depth: 8}, config.Batching{})
	// pipelineTiming: CheckpointPeriod=16. 4 clients × 20 = 80 requests
	// ≥ four periods, issued concurrently so slots are in flight across
	// every boundary.
	runBatchClients(t, h.harness, 0, 4, 20)
	h.waitExecuted(4*20, nil)
	h.verifyConvergence(nil)
	for _, r := range h.replicas {
		if r.StableCheckpoint() == 0 {
			t.Errorf("replica %d never stabilized a checkpoint", r.ID())
		}
		if live := r.LiveLogSlots(); live > int(pipelineTiming().CheckpointPeriod)+int(8) {
			t.Errorf("replica %d retains %d live log slots (GC not keeping up)", r.ID(), live)
		}
	}
}

// TestPipelineBatchedSlots: pipelining composes with batching — depth
// K windows of BatchSize-request slots — and sequence numbers stay well
// below the request count (amortization still works).
func TestPipelineBatchedSlots(t *testing.T) {
	h := newPipelineHarness(t, baseMembership(), ids.Lion, 25,
		config.Pipelining{Depth: 4}, config.Batching{BatchSize: 8, BatchTimeout: 3 * time.Millisecond})
	const clients, per = 8, 8
	runBatchClients(t, h.harness, 0, clients, per)
	h.waitExecuted(clients*per, nil)
	h.verifyConvergence(nil)
	if got := h.kvs[0].Len(); got != clients*per {
		t.Fatalf("replica 0 has %d keys, want %d", got, clients*per)
	}
}

// TestPerSlotTimerNotMaskedByProgress: the regression the per-slot
// timers fix. A stalled slot used to be forgiven whenever any other
// slot committed (the single timer restarted on every commit); now the
// stalled slot's own timer keeps running and suspicion fires on
// schedule even while neighbors commit.
func TestPerSlotTimerNotMaskedByProgress(t *testing.T) {
	cl, err := config.NewCluster(baseMembership(), ids.Lion, fastTiming())
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewSimNetwork(transport.LAN(2, 99))
	defer net.Close()
	clk := clock.NewVirtual()
	r, err := NewReplica(Options{
		ID:           1, // a backup: suspects the primary
		Cluster:      cl,
		Suite:        crypto.NewEd25519Suite(99, 6, 4),
		Network:      net,
		StateMachine: statemachine.NewKVStore(),
		Clock:        clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Engine deliberately not started: drive the handler directly.
	tau := cl.Timing.ViewChange

	// Slot 5 stalls; slots 6 and 7 commit quickly afterwards.
	r.pending.Mark(5)
	clk.Advance(2*tau - tau/4)
	r.pending.Mark(6)
	clk.Advance(tau / 8)
	r.pending.Mark(7)
	clk.Advance(tau / 8)
	r.pending.Clear(6)
	r.pending.Clear(7)

	r.HandleTick(clk.Now())
	if !r.rec.InViewChange() {
		t.Fatal("stalled slot 5 did not trigger suspicion despite neighbors committing")
	}
	if votes := r.rec.Votes(1); len(votes) != 1 || votes[0].From != r.ID() {
		t.Fatalf("votes for view 1 = %v, want this replica's own VIEW-CHANGE", votes)
	}
}

// TestPipelineZeroValueProposesOnAdmission: under the zero-value knob
// (the default window, one request per slot) back-to-back requests are
// proposed as they are admitted, one slot each; nothing waits in the
// intake.
func TestPipelineZeroValueProposesOnAdmission(t *testing.T) {
	cl, err := config.NewCluster(baseMembership(), ids.Lion, fastTiming())
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewSimNetwork(transport.LAN(2, 98))
	defer net.Close()
	suite := crypto.NewEd25519Suite(98, 6, 4)
	r, err := NewReplica(Options{
		ID: 0, Cluster: cl, Suite: suite, Network: net,
		StateMachine: statemachine.NewKVStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Engine not started; call the intake directly as the primary.
	for i := uint64(1); i <= 3; i++ {
		r.in.Admit(makeRequest(t, suite, 0, i))
	}
	if r.in.Buffered() != 0 {
		t.Fatalf("%d requests still buffered in the intake", r.in.Buffered())
	}
	if got := r.pending.InFlight(); got != 3 {
		t.Fatalf("%d slots in flight, want 3 (one per admitted request)", got)
	}
	if r.nextSeq != 4 {
		t.Fatalf("nextSeq = %d, want 4", r.nextSeq)
	}
}

// makeRequest builds a signed client request for direct-intake tests.
func makeRequest(t *testing.T, suite crypto.Suite, client ids.ClientID, ts uint64) *message.Request {
	t.Helper()
	req := &message.Request{
		Op:        statemachine.EncodePut(fmt.Sprintf("k%d", ts), []byte("v")),
		Timestamp: ts,
		Client:    client,
	}
	req.Sig = suite.Sign(crypto.ClientPrincipal(int64(client)), req.SignedBytes())
	return req
}

// clientRequest wraps req as its client sends it: a REQUEST under the
// client's authenticator for every replica of mb.
func clientRequest(suite crypto.Suite, mb ids.Membership, req *message.Request) *message.Message {
	return &message.Message{Kind: message.KindRequest, From: -1, Payload: []*message.Request{req},
		Sig: message.AuthenticateRequest(suite, req, mb.All())}
}
