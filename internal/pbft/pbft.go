// Package pbft implements the Byzantine fault-tolerant baseline (the
// paper's "BFT" line): Castro & Liskov's PBFT with three phases
// (pre-prepare, prepare, commit), quadratic message exchange, and
// PBFT-style view changes and checkpoints.
//
// The quorum arithmetic is parameterized by separate Byzantine and crash
// bounds so the same engine also serves as the paper's simplified
// UpRight comparator (S-UpRight): plain PBFT runs with (Byz=f, Crash=0)
// over N=3f+1 replicas and 2f+1 quorums; S-UpRight runs with
// (Byz=m, Crash=c) over N=3m+2c+1 replicas and 2m+c+1 quorums — exactly
// the instantiation Section 6 describes ("a PBFT-like protocol with less
// number of nodes").
package pbft

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

const relaySentinel = replica.RelaySentinel

// Options assembles one PBFT replica.
type Options struct {
	// ID is this replica's identity in [0, N).
	ID ids.ReplicaID
	// N is the cluster size.
	N int
	// Byz is the Byzantine failure bound (PBFT's f; UpRight's m).
	Byz int
	// Crash is the additional crash bound (0 for plain PBFT; UpRight's c).
	Crash int
	// Suite signs and verifies messages.
	Suite crypto.Suite
	// Network attaches the replica's endpoint.
	Network transport.Network
	// StateMachine is the replicated service.
	StateMachine statemachine.StateMachine
	// Timing supplies timers and the checkpoint period.
	Timing config.Timing
	// Batching configures request batching at the primary (zero value:
	// one request per slot).
	Batching config.Batching
	// Pipelining bounds the primary's in-flight proposal window (zero
	// value: legacy unbounded admission, see config.Pipelining).
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

// Replica is one PBFT (or S-UpRight) node.
type Replica struct {
	eng    *replica.Engine
	n      int
	byz    int
	crash  int
	timing config.Timing
	clk    clock.Clock

	view ids.View

	log  *mlog.Log
	exec *replica.Executor

	// jr journals protocol state to durable storage (no-op when
	// durability is off).
	jr *replica.Journal

	nextSeq uint64

	// pending tracks proposed-but-uncommitted slots, one liveness timer
	// per slot; at the primary its occupancy is the pipeline window.
	pending *replica.Pending
	pipe    config.Pipelining

	// rec is the shared recovery substrate: checkpoints, state transfer
	// and the view-change vote table (see replica.Recovery). A view
	// change is in progress exactly while rec.InViewChange().
	rec *replica.Recovery

	// queue parks requests a pipelined primary could not propose while
	// the log window was full (legacy operation drops them instead and
	// relies on client retransmission).
	queue []*message.Request

	// inFlight dedups proposed-but-unexecuted requests at the primary
	// (client retransmission broadcasts are relayed by every backup).
	inFlight map[inFlightKey]uint64

	// batcher accumulates requests at the primary until the batch fills
	// or BatchTimeout expires (see replica.Batcher).
	batcher *replica.Batcher

	probe atomic.Pointer[Probe]
}

type inFlightKey struct {
	client ids.ClientID
	ts     uint64
}

// Probe mirrors core.Probe.
type Probe struct {
	OnExecute    func(seq uint64, req *message.Request, result []byte)
	OnViewChange func(view ids.View)
}

// NewReplica builds a PBFT/S-UpRight replica.
func NewReplica(opts Options) (*Replica, error) {
	if opts.Byz < 0 || opts.Crash < 0 {
		return nil, fmt.Errorf("pbft: negative failure bound (byz=%d, crash=%d)", opts.Byz, opts.Crash)
	}
	min := 3*opts.Byz + 2*opts.Crash + 1
	if opts.N < min {
		return nil, fmt.Errorf("pbft: cluster of %d below minimum %d for byz=%d crash=%d",
			opts.N, min, opts.Byz, opts.Crash)
	}
	if int(opts.ID) < 0 || int(opts.ID) >= opts.N {
		return nil, fmt.Errorf("pbft: replica %d outside [0, %d)", opts.ID, opts.N)
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
		n:        opts.N,
		byz:      opts.Byz,
		crash:    opts.Crash,
		timing:   opts.Timing,
		clk:      clk,
		batcher:  replica.NewBatcher(opts.Batching, clk),
		pipe:     opts.Pipelining,
		log:      mlog.New(opts.Timing.HighWaterMarkLag),
		exec:     replica.NewExecutor(opts.StateMachine, opts.Timing.CheckpointPeriod),
		nextSeq:  1,
		pending:  replica.NewPending(),
		inFlight: make(map[inFlightKey]uint64),
	}
	r.jr = replica.NewJournal(opts.Storage)
	r.eng = replica.NewEngine(replica.Config{
		ID:           opts.ID,
		Suite:        opts.Suite,
		Endpoint:     opts.Network.Endpoint(transport.ReplicaAddr(opts.ID)),
		TickInterval: r.batcher.TickInterval(opts.TickInterval),
		Clock:        clk,
	})
	r.rec = replica.NewRecovery(replica.RecoveryConfig{
		Engine: r.eng, Log: r.log, Exec: r.exec, Journal: r.jr, Pending: r.pending,
		Trust: trust{r}, N: r.n, ViewChange: r.timing.ViewChange, JoinQuorum: r.WeakQuorum(),
	})
	if opts.Storage != nil {
		rs, err := r.rec.Boot()
		if err != nil {
			return nil, fmt.Errorf("pbft: recovery: %w", err)
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

// Quorum returns 2·Byz + Crash + 1, the agreement quorum.
func (r *Replica) Quorum() int { return 2*r.byz + r.crash + 1 }

// WeakQuorum returns Byz+1: enough matching words that one comes from a
// correct replica.
func (r *Replica) WeakQuorum() int { return r.byz + 1 }

// Primary returns the primary of view v: v mod N.
func (r *Replica) Primary(v ids.View) ids.ReplicaID {
	return ids.ReplicaID(int(v % ids.View(r.n)))
}

func (r *Replica) isPrimary() bool { return r.Primary(r.view) == r.eng.ID() }

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

// View returns the current view (safe after Stop or from probes).
func (r *Replica) View() ids.View { return r.view }

// LastExecuted returns the execution cursor (same caveat).
func (r *Replica) LastExecuted() uint64 { return r.exec.LastExecuted() }

// StableCheckpoint returns the last stable checkpoint sequence number.
func (r *Replica) StableCheckpoint() uint64 { return r.log.Low() }

// HandleMessage implements replica.Handler.
func (r *Replica) HandleMessage(m *message.Message) {
	switch m.Kind {
	case message.KindRequest:
		r.onRequest(m.Request)
	case message.KindPrePrepare:
		r.onPrePrepare(m)
	case message.KindPrepare:
		r.onPrepare(m)
	case message.KindCommit:
		r.onCommit(m)
	case message.KindCheckpoint:
		r.rec.OnCheckpoint(m)
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
	if !r.rec.InViewChange() {
		if r.pipe.Enabled() {
			r.pump(now)
		} else if r.batcher.Due(now) {
			r.proposeBatch(r.batcher.Take())
		}
	}
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
	// A view change that stalls either escalates or backs off (see
	// replica.Recovery.Overdue).
	if next, backOff := r.rec.Overdue(now); next != 0 {
		r.startViewChange(next)
	} else if backOff {
		// Work buffered while the abandoned suspicion ran must not stay
		// stranded.
		r.drainQueue()
	}
}

func (r *Replica) markPending(seq uint64) { r.pending.Mark(seq, r.clk.Now()) }

func (r *Replica) clearPending(seq uint64) { r.pending.Clear(seq) }

func (r *Replica) resetPending() { r.pending.Reset() }

func (r *Replica) executeReady() {
	view := r.view
	executed := r.exec.ExecuteReady(r.log, func(seq uint64, req *message.Request, result []byte) {
		delete(r.inFlight, inFlightKey{client: req.Client, ts: req.Timestamp})
		// Every PBFT replica replies; the client waits for Byz+1
		// matching answers.
		if req.Client >= 0 {
			r.sendReply(view, req, result)
		}
		if p := r.loadProbe(); p.OnExecute != nil {
			p.OnExecute(seq, req, result)
		}
	})
	if executed > 0 {
		r.clearPending(relaySentinel)
		r.rec.Executed(true) // every PBFT replica checkpoints
	}
	// Commits free pipeline window room: refill it from the backlog.
	r.drainBlocked()
	r.pump(r.clk.Now())
}

func (r *Replica) sendReply(view ids.View, req *message.Request, result []byte) {
	rep := &message.Message{
		Kind:      message.KindReply,
		View:      view,
		Mode:      ids.Lion, // unused by PBFT clients; a fixed valid value
		Timestamp: req.Timestamp,
		Client:    req.Client,
		Result:    result,
		Epoch:     r.exec.PlacementEpoch(),
	}
	r.eng.Sign(rep)
	r.eng.SendClient(req.Client, rep)
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
		return // the client will retransmit after the view change
	}
	if r.isPrimary() {
		r.admitRequest(req)
		return
	}
	fwd := &message.Message{Kind: message.KindRequest, Request: req}
	r.eng.Sign(fwd)
	r.eng.Send(r.Primary(r.view), fwd)
	r.markPending(relaySentinel)
}

// admitRequest buffers or proposes a request depending on the
// pipelining and batching knobs (see core's admitRequest; same policy).
func (r *Replica) admitRequest(req *message.Request) {
	if r.pipe.Enabled() {
		key := inFlightKey{client: req.Client, ts: req.Timestamp}
		if _, dup := r.inFlight[key]; dup {
			return
		}
		r.batcher.Add(req)
		r.pump(r.clk.Now())
		return
	}
	if !r.batcher.Enabled() {
		r.proposeBatch([]*message.Request{req})
		return
	}
	key := inFlightKey{client: req.Client, ts: req.Timestamp}
	if _, dup := r.inFlight[key]; dup {
		return
	}
	if r.batcher.Add(req) {
		r.proposeBatch(r.batcher.Take())
	}
}

// pump proposes buffered batches while the pipeline window has room
// (see replica.Pump). No-op unless this replica is a pipelined primary
// in normal operation.
func (r *Replica) pump(now time.Time) {
	if !r.pipe.Enabled() || r.rec.InViewChange() || !r.isPrimary() {
		return
	}
	replica.Pump(r.pipe.Depth, r.pending, r.batcher, now, r.proposeBatch)
}

// drainBlocked re-admits requests parked in the queue because the log
// window was full, once a stable checkpoint moved the window forward
// (pipelined primaries only; the legacy path relies on retransmission).
func (r *Replica) drainBlocked() {
	if !r.pipe.Enabled() || r.rec.InViewChange() || !r.isPrimary() ||
		len(r.queue) == 0 || !r.log.InWindow(r.nextSeq) {
		return
	}
	q := r.queue
	r.queue = nil
	for _, req := range q {
		if r.exec.Fresh(req) {
			r.admitRequest(req)
		}
	}
}

func (r *Replica) proposeBatch(reqs []*message.Request) {
	kept := make([]*message.Request, 0, len(reqs))
	for _, req := range reqs {
		if _, dup := r.inFlight[inFlightKey{client: req.Client, ts: req.Timestamp}]; !dup {
			kept = append(kept, req)
		}
	}
	if len(kept) == 0 {
		return
	}
	if !r.log.InWindow(r.nextSeq) {
		// Window full: a pipelined primary parks the requests until a
		// checkpoint stabilizes (drainBlocked); legacy operation keeps
		// relying on client retransmission.
		if r.pipe.Enabled() {
			r.queue = append(r.queue, kept...)
		}
		return
	}
	seq := r.nextSeq
	r.nextSeq++
	pp := &message.Signed{
		Kind:   message.KindPrePrepare,
		View:   r.view,
		Seq:    seq,
		Digest: message.BatchDigest(kept),
	}
	pp.SetRequests(kept)
	r.eng.SignRecord(pp)
	entry := r.log.Entry(seq)
	if entry == nil {
		return
	}
	if err := entry.SetProposal(pp); err != nil {
		return
	}
	r.markPending(seq)
	// Journal before multicasting: a recovered primary must remember
	// every slot it assigned.
	r.jr.Proposal(pp)
	for _, req := range kept {
		r.inFlight[inFlightKey{client: req.Client, ts: req.Timestamp}] = seq
	}
	// The primary's pre-prepare stands in for its prepare vote.
	entry.AddVote(message.KindPrepare, r.view, r.eng.ID(), pp.Digest)
	r.eng.Multicast(r.all(), pp.Wire())
}

// validPayload checks the attached payload (lone request or batch)
// against the proposal digest and the client signatures; independent
// member signatures verify on a worker pool.
func (r *Replica) validPayload(m *message.Message) bool {
	reqs := m.Requests()
	if len(reqs) == 0 || message.BatchDigest(reqs) != m.Digest {
		return false
	}
	return r.eng.VerifyRequests(reqs)
}

func (r *Replica) onPrePrepare(m *message.Message) {
	if r.rec.InViewChange() || m.View != r.view {
		return
	}
	if m.From != r.Primary(r.view) || m.From == r.eng.ID() {
		return
	}
	s := m.Record()
	if !r.eng.VerifyRecord(s) || !r.validPayload(m) {
		return
	}
	entry := r.log.Entry(m.Seq)
	if entry == nil {
		return
	}
	if err := entry.SetProposal(s); err != nil {
		return // equivocation or stale duplicate
	}
	r.markPending(m.Seq)
	r.jr.Proposal(s)

	prep := &message.Signed{Kind: message.KindPrepare, View: r.view, Seq: m.Seq, Digest: m.Digest}
	r.eng.SignRecord(prep)
	r.jr.Vote(prep)
	entry.AddVoteCert(prep)
	entry.AddVote(message.KindPrepare, r.view, m.From, m.Digest)
	r.eng.Multicast(r.all(), prep.Wire())
	r.maybePrepared(entry)
}

func (r *Replica) onPrepare(m *message.Message) {
	if r.rec.InViewChange() || m.View != r.view {
		return
	}
	if int(m.From) < 0 || int(m.From) >= r.n || m.From == r.eng.ID() {
		return
	}
	s := m.Record()
	if !r.eng.VerifyRecord(s) {
		return
	}
	entry := r.log.Entry(m.Seq)
	if entry == nil {
		return
	}
	entry.AddVoteCert(s)
	r.maybePrepared(entry)
}

func (r *Replica) maybePrepared(entry *mlog.Entry) {
	prop := entry.Proposal()
	if prop == nil || prop.View != r.view {
		return
	}
	d := prop.Digest
	if entry.VoteCount(message.KindPrepare, r.view, d) < r.Quorum() {
		return
	}
	for _, v := range entry.Voters(message.KindCommit, r.view, d) {
		if v == r.eng.ID() {
			return // commit vote already sent
		}
	}
	com := &message.Signed{Kind: message.KindCommit, View: r.view, Seq: entry.Seq(), Digest: d}
	r.eng.SignRecord(com)
	r.jr.Vote(com)
	entry.AddVoteCert(com)
	r.eng.Multicast(r.all(), com.Wire())
	r.maybeCommitted(entry)
}

func (r *Replica) onCommit(m *message.Message) {
	if r.rec.InViewChange() || m.View != r.view {
		return
	}
	if int(m.From) < 0 || int(m.From) >= r.n || m.From == r.eng.ID() {
		return
	}
	s := m.Record()
	if !r.eng.VerifyRecord(s) {
		return
	}
	entry := r.log.Entry(m.Seq)
	if entry == nil {
		return
	}
	entry.AddVoteCert(s)
	r.maybePrepared(entry)
	r.maybeCommitted(entry)
}

func (r *Replica) maybeCommitted(entry *mlog.Entry) {
	if entry.Committed() {
		return
	}
	prop := entry.Proposal()
	if prop == nil || prop.View != r.view {
		return
	}
	d := prop.Digest
	if entry.VoteCount(message.KindPrepare, r.view, d) < r.Quorum() ||
		entry.VoteCount(message.KindCommit, r.view, d) < r.Quorum() {
		return
	}
	entry.MarkCommitted()
	r.jr.Commit(entry.Seq(), r.view, d, nil)
	r.clearPending(entry.Seq())
	r.executeReady()
}
