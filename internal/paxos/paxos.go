// Package paxos implements the crash fault-tolerant baseline the paper
// compares against (its "CFT" line, BFT-SMaRt's optimized Paxos): a
// Multi-Paxos-style State Machine Replication protocol over 2f+1
// replicas that tolerates f crash failures with f+1 quorums and two
// communication phases in the steady state.
//
// All replicas are trusted (crash-only), so messages carry MACs only for
// parity with the other protocols' transport costs (the suite is
// pluggable; the benchmarks use the same suite for every protocol) and
// the view change needs no Byzantine evidence: the new leader adopts the
// highest-viewed accepted value per slot, exactly Paxos's "proposer picks
// the accepted value of the highest ballot".
package paxos

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/mlog"
	"repro/internal/replica"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Options assembles one Paxos replica.
type Options struct {
	// ID is this replica's identity in [0, N).
	ID ids.ReplicaID
	// N is the cluster size (2f+1 tolerates f crashes).
	N int
	// Suite authenticates messages (HMAC in the benchmarks).
	Suite crypto.Suite
	// Network attaches the replica's endpoint.
	Network transport.Network
	// StateMachine is the replicated service.
	StateMachine statemachine.StateMachine
	// Timing supplies the timers and checkpoint period.
	Timing config.Timing
	// Batching configures request batching at the leader (zero value:
	// one request per slot).
	Batching config.Batching
	// Pipelining bounds the leader's in-flight proposal window (zero
	// value: config.DefaultPipelineDepth slots).
	Pipelining config.Pipelining
	// TickInterval overrides the engine tick (default 5ms).
	TickInterval time.Duration
	// Storage attaches the durable storage subsystem; when non-nil the
	// replica journals its state, recovers from the store during
	// construction, and takes ownership (Stop closes it).
	Storage storage.Store
	// Clock is the time source for every protocol timer; nil uses the
	// real clock (the deterministic simulation injects a virtual one).
	Clock clock.Clock
}

// Replica is one Paxos node.
type Replica struct {
	eng    *replica.Engine
	n      int
	timing config.Timing

	view ids.View

	log  *mlog.Log
	exec *replica.Executor

	// jr journals protocol state to durable storage (no-op when
	// durability is off).
	jr *replica.Journal

	nextSeq uint64

	// pending tracks proposed-but-uncommitted slots, one liveness timer
	// per slot; at the leader its occupancy is the pipeline window.
	pending *replica.Pending

	// in is the leader's request intake (see replica.Intake); it calls
	// proposeBatch.
	in *replica.Intake

	// rec is the shared recovery substrate: checkpoints, state transfer
	// and the view-change vote table (see replica.Recovery). A view
	// change is in progress exactly while rec.InViewChange().
	rec *replica.Recovery

	probe atomic.Pointer[Probe]
}

// Probe mirrors core.Probe for the benchmark harness.
type Probe struct {
	OnExecute    func(seq uint64, req *message.Request, result []byte)
	OnViewChange func(view ids.View)
}

// NewReplica builds a Paxos replica.
func NewReplica(opts Options) (*Replica, error) {
	if opts.N < 3 || opts.N%2 == 0 {
		return nil, fmt.Errorf("paxos: cluster size must be odd and ≥ 3, got %d", opts.N)
	}
	if int(opts.ID) < 0 || int(opts.ID) >= opts.N {
		return nil, fmt.Errorf("paxos: replica %d outside [0, %d)", opts.ID, opts.N)
	}
	if err := opts.Timing.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Batching.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Pipelining.Validate(); err != nil {
		return nil, err
	}
	clk := clock.OrReal(opts.Clock)
	r := &Replica{
		n:       opts.N,
		timing:  opts.Timing,
		log:     mlog.New(opts.Timing.HighWaterMarkLag),
		exec:    replica.NewExecutor(opts.StateMachine, opts.Timing.CheckpointPeriod),
		nextSeq: 1,
		pending: replica.NewPending(clk),
	}
	r.jr = replica.NewJournal(opts.Storage)
	r.in = replica.NewIntake(replica.IntakeConfig{
		Batching: opts.Batching, Pipelining: opts.Pipelining,
		Clock: clk, Pending: r.pending, Exec: r.exec,
		Open: r.mayPropose, Propose: r.proposeBatch,
	})
	r.eng = replica.NewEngine(replica.Config{
		ID:           opts.ID,
		Suite:        opts.Suite,
		Endpoint:     opts.Network.Endpoint(transport.ReplicaAddr(opts.ID)),
		TickInterval: r.in.TickInterval(opts.TickInterval),
		Clock:        clk,
		Journal:      r.jr,
	})
	r.rec = replica.NewRecovery(replica.RecoveryConfig{
		Engine: r.eng, Log: r.log, Exec: r.exec, Pending: r.pending,
		Trust: trust{r}, N: r.n, ViewChange: r.timing.ViewChange, JoinQuorum: 1,
	})
	if opts.Storage != nil {
		rs, err := r.rec.Boot()
		if err != nil {
			return nil, fmt.Errorf("paxos: recovery: %w", err)
		}
		if rs.HasView {
			r.view = rs.View
		}
		if rs.MaxSeq >= r.nextSeq {
			r.nextSeq = rs.MaxSeq + 1
		}
	}
	return r, nil
}

// Quorum returns f+1, the majority quorum.
func (r *Replica) Quorum() int { return r.n/2 + 1 }

// Leader returns the leader of view v: v mod N.
func (r *Replica) Leader(v ids.View) ids.ReplicaID {
	return ids.ReplicaID(int(v % ids.View(r.n)))
}

func (r *Replica) isLeader() bool { return r.Leader(r.view) == r.eng.ID() }

func (r *Replica) all() []ids.ReplicaID {
	out := make([]ids.ReplicaID, r.n)
	for i := range out {
		out[i] = ids.ReplicaID(i)
	}
	return out
}

// SetProbe installs event callbacks; safe at any time.
func (r *Replica) SetProbe(p Probe) { r.probe.Store(&p) }

func (r *Replica) loadProbe() *Probe {
	if p := r.probe.Load(); p != nil {
		return p
	}
	return &Probe{}
}

// Start launches the replica.
func (r *Replica) Start() { r.eng.Start(r) }

// StepEnvelope synchronously feeds one inbound frame through the
// engine's validation path on the caller's goroutine — the
// deterministic simulation's delivery entry point. Never mix with
// Start (see replica.Engine.StepEnvelope for the threading contract).
func (r *Replica) StepEnvelope(env transport.Envelope) { r.eng.StepEnvelope(r, env) }

// StepTick synchronously fires one tick at the given time; the
// simulation drives every protocol timer through it.
func (r *Replica) StepTick(now time.Time) { r.eng.StepTick(r, now) }

// Stop terminates the replica, then flushes and closes the attached
// durable store (if any).
func (r *Replica) Stop() {
	r.eng.Stop()
	r.jr.Close()
}

// Crash fail-stops the replica.
func (r *Replica) Crash() { r.eng.Crash() }

// Recover resumes a crashed replica.
func (r *Replica) Recover() { r.eng.Recover() }

// ID returns the replica identity.
func (r *Replica) ID() ids.ReplicaID { return r.eng.ID() }

// View returns the current view (safe only after Stop or from probes).
func (r *Replica) View() ids.View { return r.view }

// LastExecuted returns the execution cursor (same safety caveat).
func (r *Replica) LastExecuted() uint64 { return r.exec.LastExecuted() }

// StableCheckpoint returns the last stable checkpoint sequence number.
func (r *Replica) StableCheckpoint() uint64 { return r.log.Low() }

// HandleMessage implements replica.Handler.
func (r *Replica) HandleMessage(m *message.Message) {
	switch m.Kind {
	case message.KindRequest:
		r.onRequest(m.Request)
	case message.KindPrepare:
		r.onPrepare(m)
	case message.KindAccept:
		r.onAccept(m)
	case message.KindCommit:
		r.onCommit(m)
	case message.KindCheckpoint:
		r.rec.OnCheckpoint(m)
		// A checkpoint that stabilizes on a peer's message opens the log
		// window with no execution to follow it: let what the intake held
		// back through now rather than on the next tick.
		r.in.Pump()
	case message.KindViewChange:
		r.onViewChange(m)
	case message.KindNewView:
		r.onNewView(m)
	case message.KindStateRequest:
		r.rec.OnStateRequest(m)
	case message.KindStateReply:
		if r.rec.OnStateReply(m) {
			r.executeReady()
		}
	}
}

// HandleTick implements replica.Handler.
func (r *Replica) HandleTick(now time.Time) {
	// Flush deadlines run on the tick.
	r.in.Pump()
	// A lagging replica retries its state-transfer request on the tick
	// (throttled inside).
	if !r.rec.InViewChange() {
		r.rec.CatchUp()
	}
	// Per-slot timers: a stalled slot is suspected after τ even while
	// newer slots keep committing around it.
	if !r.rec.InViewChange() {
		if _, ok := r.pending.Expired(now, r.timing.ViewChange); ok {
			r.startViewChange(r.view + 1)
		}
	}
	// A stalled leader change escalates: with a join quorum of 1 this
	// replica's own vote keeps it going, so it never backs off.
	if next, _ := r.rec.Overdue(now); next != 0 {
		r.startViewChange(next)
	}
}

func (r *Replica) executeReady() {
	view := r.view
	leader := r.Leader(view) == r.eng.ID()
	executed := r.exec.ExecuteReady(r.log, func(seq uint64, req *message.Request, result []byte) {
		r.in.Executed(req)
		if leader && req.Client >= 0 {
			r.sendReply(view, req, result)
		}
		if p := r.loadProbe(); p.OnExecute != nil {
			p.OnExecute(seq, req, result)
		}
	})
	if executed > 0 {
		r.pending.Clear(replica.RelaySentinel)
		r.rec.Executed(r.isLeader())
	}
	// Commits free pipeline window room: refill it from the backlog.
	r.in.Pump()
}

func (r *Replica) sendReply(view ids.View, req *message.Request, result []byte) {
	rep := &message.Message{
		Kind:      message.KindReply,
		View:      view,
		Mode:      ids.Lion, // mode is meaningless in Paxos; a fixed valid value
		Timestamp: req.Timestamp,
		Client:    req.Client,
		Result:    result,
		Epoch:     r.exec.PlacementEpoch(),
	}
	r.eng.SendClientTagged(req.Client, rep)
}

func (r *Replica) onRequest(req *message.Request) {
	if req == nil || req.Client < 0 || !r.eng.VerifyRequest(req) {
		return
	}
	if cached, ok := r.exec.CachedReply(req); ok {
		r.sendReply(r.view, req, cached)
		return
	}
	if !r.exec.Fresh(req) {
		return
	}
	if r.rec.InViewChange() {
		r.in.Park(req)
		return
	}
	if r.isLeader() {
		r.in.Admit(req)
		return
	}
	// The relay wrapper carries nothing of this replica's: the leader
	// checks the client's signature inside.
	fwd := &message.Message{Kind: message.KindRequest, From: r.eng.ID(), Request: req}
	r.eng.Send(r.Leader(r.view), fwd)
	r.pending.Mark(replica.RelaySentinel)
}

// mayPropose answers replica.Intake: this replica is the leader of its
// view in normal operation and the next sequence number fits the log
// window.
func (r *Replica) mayPropose() bool {
	return !r.rec.InViewChange() && r.isLeader() && r.log.InWindow(r.nextSeq)
}

// proposeBatch orders one slot; replica.Intake calls it, only while
// mayPropose holds, and is told whether the slot went out.
func (r *Replica) proposeBatch(reqs []*message.Request) bool {
	seq := r.nextSeq
	r.nextSeq++
	prop := &message.Signed{
		Kind:   message.KindPrepare,
		View:   r.view,
		Seq:    seq,
		Digest: message.BatchDigest(reqs),
	}
	prop.SetRequests(reqs)
	r.eng.SignRecord(prop)
	entry := r.log.Entry(seq)
	if entry == nil {
		return false
	}
	if err := entry.SetProposal(prop); err != nil {
		return false
	}
	r.pending.Mark(seq)
	// Journal before multicasting: a recovered leader must remember
	// every slot it assigned.
	r.jr.Proposal(prop)
	entry.AddVote(message.KindAccept, r.view, r.eng.ID(), prop.Digest)
	r.eng.MulticastSealed(r.all(), prop)
	return true
}

// validPayload checks the attached payload (lone request or batch)
// against the proposal digest. Crash-only trust: no client signature
// re-verification on the replica path (the leader verified on intake) —
// the rule a Lion or Dog backup applies to its trusted primary.
func validPayload(m *message.Message) bool {
	reqs := m.Requests()
	return len(reqs) > 0 && message.BatchDigest(reqs) == m.Digest
}

// onPrepare: a backup logs the leader's proposal and acknowledges.
func (r *Replica) onPrepare(m *message.Message) {
	if r.rec.InViewChange() || m.View != r.view {
		return
	}
	if m.From != r.Leader(r.view) || m.From == r.eng.ID() {
		return
	}
	s := m.Record()
	if !r.authentic(s) || !validPayload(m) {
		return
	}
	entry := r.log.Entry(m.Seq)
	if entry == nil {
		return
	}
	if err := entry.SetProposal(s); err != nil {
		return
	}
	r.pending.Mark(m.Seq)
	// Journal the accepted proposal before acknowledging it: Paxos
	// safety rests on acceptors remembering what they accepted.
	r.jr.Proposal(s)
	r.accept(m.From, m.Seq, m.Digest)
}

// accept acknowledges a logged proposal to the leader. Only the leader
// reads an ACCEPT and nothing reuses it as evidence, so it is tagged for
// the leader, not signed.
func (r *Replica) accept(leader ids.ReplicaID, seq uint64, d crypto.Digest) {
	r.eng.MulticastTagged([]ids.ReplicaID{leader}, &message.Signed{
		Kind: message.KindAccept, View: r.view, Seq: seq, Digest: d,
	})
}

// onAccept: the leader counts acknowledgements and commits at majority.
func (r *Replica) onAccept(m *message.Message) {
	if r.rec.InViewChange() || m.View != r.view || !r.isLeader() {
		return
	}
	if int(m.From) < 0 || int(m.From) >= r.n || m.From == r.eng.ID() {
		return
	}
	entry := r.log.Peek(m.Seq)
	if entry == nil || entry.Proposal() == nil {
		return
	}
	prop := entry.Proposal()
	if prop.View != r.view || prop.Digest != m.Digest {
		return
	}
	// An ACCEPT on a committed slot changes nothing: drop it unchecked.
	if entry.Committed() || !r.authentic(m.Record()) {
		return
	}
	entry.AddVote(message.KindAccept, r.view, m.From, m.Digest)
	if entry.VoteCount(message.KindAccept, r.view, m.Digest) >= r.Quorum() {
		entry.MarkCommitted()
		r.pending.Clear(entry.Seq())
		commit := &message.Signed{
			Kind: message.KindCommit, View: r.view, Seq: entry.Seq(),
			Digest: prop.Digest, Request: prop.Request, Batch: prop.Batch,
		}
		r.eng.SignRecord(commit)
		entry.SetCommitCert(commit)
		r.jr.Commit(entry.Seq(), r.view, prop.Digest, commit)
		r.eng.MulticastSealed(r.all(), commit)
		r.executeReady()
	}
}

// onCommit: backups learn the decision.
func (r *Replica) onCommit(m *message.Message) {
	if r.rec.InViewChange() || m.View != r.view {
		return
	}
	if m.From != r.Leader(r.view) || m.From == r.eng.ID() {
		return
	}
	s := m.Record()
	if !r.authentic(s) || !validPayload(m) {
		return
	}
	entry := r.log.Entry(m.Seq)
	if entry == nil {
		return
	}
	if entry.Proposal() == nil {
		if err := entry.SetProposal(s); err != nil {
			return
		}
		r.jr.Proposal(s)
	}
	entry.SetCommitCert(s)
	entry.MarkCommitted()
	r.jr.Commit(m.Seq, m.View, m.Digest, s)
	r.pending.Clear(m.Seq)
	r.executeReady()
}
