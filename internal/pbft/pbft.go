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

// Replica is one PBFT (or S-UpRight) node.
type Replica struct {
	eng    *replica.Engine
	n      int
	byz    int
	crash  int
	timing config.Timing

	// all lists every replica ID, built once: the round's voters, the
	// state servers and every multicast's destinations share it.
	all []ids.ReplicaID

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

	// in is the primary's request intake (see replica.Intake); it calls
	// proposeBatch.
	in *replica.Intake

	// rec is the shared recovery substrate: checkpoints, state transfer
	// and the view-change vote table (see replica.Recovery). A view
	// change is in progress exactly while rec.InViewChange().
	rec *replica.Recovery

	// round is the shared PBFT prepare/commit round, among all N
	// replicas (see replica.Round).
	round *replica.Round

	probe atomic.Pointer[Probe]
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
		n:       opts.N,
		byz:     opts.Byz,
		crash:   opts.Crash,
		timing:  opts.Timing,
		all:     make([]ids.ReplicaID, opts.N),
		log:     mlog.New(opts.Timing.HighWaterMarkLag),
		exec:    replica.NewExecutor(opts.StateMachine, opts.Timing.CheckpointPeriod),
		nextSeq: 1,
		pending: replica.NewPending(clk),
	}
	for i := range r.all {
		r.all[i] = ids.ReplicaID(i)
	}
	r.jr = replica.NewJournal(opts.Storage)
	r.eng = replica.NewEngine(replica.Config{
		ID:           opts.ID,
		Suite:        opts.Suite,
		Endpoint:     opts.Network.Endpoint(transport.ReplicaAddr(opts.ID)),
		TickInterval: replica.TickInterval(opts.Batching, opts.TickInterval),
		Clock:        clk,
		Journal:      r.jr,
	})
	r.rec = replica.NewRecovery(replica.RecoveryConfig{
		Engine: r.eng, Log: r.log, Exec: r.exec, Pending: r.pending,
		Trust: trust{r}, N: r.n, ViewChange: r.timing.ViewChange, JoinQuorum: r.WeakQuorum(),
	})
	r.in = replica.NewIntake(replica.IntakeConfig{
		Batching: opts.Batching, Pipelining: opts.Pipelining,
		Clock: clk, Engine: r.eng, Pending: r.pending, Exec: r.exec,
		Open: r.mayPropose, Propose: r.proposeBatch,
		// PBFT is SeeMoRe with every node public: its primary verifies a
		// client's signature before admission, and its backups take the
		// members of a PRE-PREPARE on the forwarded tags.
		Trusted:      func(ids.ReplicaID) bool { return false },
		Primary:      func() ids.ReplicaID { return r.Primary(r.view) },
		InViewChange: r.rec.InViewChange,
		Reply:        func(req *message.Request, result []byte) { r.sendReply(r.view, req, result) },
	})
	r.round = replica.NewRound(replica.RoundConfig{
		Recovery:  r.rec,
		Voter:     func(_ ids.View, id ids.ReplicaID) bool { return id >= 0 && int(id) < r.n },
		Voters:    func(ids.View) []ids.ReplicaID { return r.all },
		Quorum:    r.Quorum(),
		Authentic: r.authentic,
		Committed: func(uint64, crypto.Digest) { r.executeReady() },
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
		r.in.OnRequest(m)
	case message.KindPrePrepare:
		r.onPrePrepare(m)
	case message.KindPrepare:
		r.round.OnPrepare(m)
	case message.KindCommit:
		r.round.OnCommit(m)
	case message.KindCheckpoint:
		r.rec.OnCheckpoint(m)
		// A checkpoint that stabilizes on a peer's message opens the log
		// window with no execution to follow it: let what the intake held
		// back through now rather than on the next tick.
		r.in.Pump()
	case message.KindViewChange:
		if r.rec.OnViewChange(m) {
			r.voteRecorded(m)
		}
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
	// A view change that stalls either escalates or backs off (see
	// replica.Recovery.Overdue).
	if next, backOff := r.rec.Overdue(now); next != 0 {
		r.startViewChange(next)
	} else if backOff {
		// Work buffered while the abandoned suspicion ran must not stay
		// stranded.
		r.in.Resume(r.isPrimary())
	}
}

func (r *Replica) executeReady() {
	view := r.view
	executed := r.exec.ExecuteReady(r.log, func(seq uint64, req *message.Request, result []byte) {
		r.in.Executed(req)
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
		r.pending.Clear(replica.RelaySentinel)
		r.rec.Executed(true) // every PBFT replica checkpoints
	}
	// Commits free pipeline window room: refill it from the backlog.
	r.in.Pump()
}

func (r *Replica) sendReply(view ids.View, req *message.Request, result []byte) {
	rep := &message.Message{
		Kind:      message.KindReply,
		View:      view,
		Mode:      ids.Lion, // unused by PBFT clients; a fixed valid value
		Timestamp: req.Timestamp,
		Client:    req.Client,
		Result:    result,
	}
	r.eng.SendClientTagged(req.Client, rep)
}

// mayPropose answers replica.Intake: this replica is the primary of its
// view in normal operation and the next sequence number fits the log
// window.
func (r *Replica) mayPropose() bool {
	return !r.rec.InViewChange() && r.isPrimary() && r.log.InWindow(r.nextSeq)
}

// proposeBatch orders one slot; replica.Intake calls it, only while
// mayPropose holds, and is told whether the slot went out.
func (r *Replica) proposeBatch(reqs []*message.Request) bool {
	seq := r.nextSeq
	r.nextSeq++
	pp := &message.Signed{
		Kind:    message.KindPrePrepare,
		View:    r.view,
		Seq:     seq,
		Digest:  message.BatchDigest(reqs),
		Payload: reqs,
	}
	r.eng.SignRecord(pp)
	entry := r.log.Entry(seq)
	if entry == nil {
		return false
	}
	if err := entry.SetProposal(pp); err != nil {
		return false
	}
	r.pending.Mark(seq)
	// Journal before multicasting: a recovered primary must remember
	// every slot it assigned.
	r.jr.Proposal(pp)
	// The primary's pre-prepare stands in for its prepare vote.
	entry.AddVote(message.KindPrepare, r.view, r.eng.ID(), pp.Digest)
	r.eng.Multicast(r.all, pp.Wire())
	return true
}

func (r *Replica) onPrePrepare(m *message.Message) {
	if r.rec.InViewChange() || m.View != r.view {
		return
	}
	if m.From != r.Primary(r.view) || m.From == r.eng.ID() {
		return
	}
	s := m.Record()
	// Every backup votes: it takes each member on its forwarded tag,
	// or on the client's signature.
	if !r.authentic(s) || !r.in.ValidPayload(m, true) {
		return
	}
	entry := r.log.Entry(m.Seq)
	if entry == nil {
		return
	}
	if err := entry.SetProposal(s); err != nil {
		return // equivocation or stale duplicate
	}
	r.pending.Mark(m.Seq)
	r.jr.Proposal(s)
	entry.AddVote(message.KindPrepare, r.view, m.From, m.Digest)
	r.round.Prepare(entry, m.Digest)
}
