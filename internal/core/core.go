package core

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

// Options assembles one SeeMoRe replica.
type Options struct {
	// ID is this replica's identity in [0, N).
	ID ids.ReplicaID
	// Cluster is the validated cluster configuration.
	Cluster config.Cluster
	// Suite signs and verifies messages. Use crypto.Ed25519Suite for
	// protocol-faithful runs.
	Suite crypto.Suite
	// Network attaches the replica's endpoint.
	Network transport.Network
	// StateMachine is the replicated service.
	StateMachine statemachine.StateMachine
	// TickInterval overrides the engine tick (default 5ms).
	TickInterval time.Duration
	// LeanCommits makes Lion COMMIT messages carry only the digest
	// instead of attaching µ (an ablation knob: the paper attaches the
	// request "so that if a replica has not received a prepare message
	// ... it can still execute the request"). With lean commits such a
	// replica stays behind until checkpoint-based state transfer.
	LeanCommits bool
	// Storage attaches the durable storage subsystem (WAL + snapshot
	// store). When non-nil the replica journals its protocol state,
	// recovers from the store during construction, and takes ownership:
	// Stop flushes and closes it. Nil keeps the legacy fully-in-memory
	// replica.
	Storage storage.Store
	// Clock is the time source for every protocol timer — batch flush
	// deadlines, per-slot liveness timers, view-change deadlines, lease
	// validity, state-request throttles. Nil uses the real clock; the
	// deterministic simulation injects a virtual (optionally skewed)
	// clock.
	Clock clock.Clock
	// LeaseSlackForTesting deliberately weakens lease safety by serving
	// leased reads up to this long past the lease's true expiry. It
	// exists ONLY to validate the simulation harness: the linearizability
	// checker must catch the stale reads this bug produces. Production
	// code must leave it zero.
	LeaseSlackForTesting time.Duration
}

// Replica is one SeeMoRe node. All protocol state is confined to the
// engine goroutine; public methods are safe to call from anywhere.
type Replica struct {
	eng    *replica.Engine
	mb     ids.Membership
	timing config.Timing
	clk    clock.Clock

	mode ids.Mode
	view ids.View

	log  *mlog.Log
	exec *replica.Executor

	// jr journals protocol state to durable storage (no-op journal when
	// durability is off).
	jr *replica.Journal

	// nextSeq is the next sequence number to assign (primary role).
	nextSeq uint64

	// pending tracks slots with an accepted proposal that have not
	// committed yet, one liveness timer per slot; at the primary its
	// occupancy is the pipeline window.
	pending *replica.Pending

	// in is the primary's request intake: dedupe, batching, the proposal
	// window, and what is held back while the window is closed or a view
	// change runs (see replica.Intake). It calls proposeBatch.
	in *replica.Intake

	// rec is the shared recovery substrate: checkpoints, state transfer
	// and the view-change vote table (see replica.Recovery). A view
	// change is in progress exactly while rec.InViewChange().
	rec *replica.Recovery

	// round is the PBFT prepare/commit round Peacock's proxies run (see
	// replica.Round).
	round *replica.Round

	// targetMode is the mode of the view rec is trying to enter;
	// pendingModes records MODE-CHANGE announcements: view → new mode.
	targetMode   ids.Mode
	pendingModes map[ids.View]ids.Mode

	// activeView is the latest view this replica saw activated (a
	// NEW-VIEW processed, or view 0). Dog view changes report it.
	activeView ids.View

	// lastNewView retains the collector's signed NEW-VIEW so it can be
	// re-sent to peers observed still operating in an older view — a
	// deposed primary partitioned through the change would otherwise
	// never learn the view moved on. nvResent throttles per peer.
	lastNewView *message.Message
	nvResent    map[ids.ReplicaID]time.Time

	// leanCommits strips µ from Lion commits (see Options.LeanCommits).
	leanCommits bool

	// leases is the leader-lease knob; lease holds the primary-side
	// bookkeeping and parked buffers leased reads awaiting the executor
	// watermark (see read.go). leaseSlack is the deliberate safety bug
	// of Options.LeaseSlackForTesting.
	leases     config.Leases
	lease      leaseState
	parked     []parkedRead
	leaseSlack time.Duration

	// probe observes protocol events (tests and the bench harness use it
	// to watch commits and view changes). Atomic so SetProbe may be
	// called while the engine runs.
	probe atomic.Pointer[Probe]
}

// Probe receives protocol event callbacks. Fields may be nil. Callbacks
// run on the engine goroutine: they must not block and must not call
// back into the replica.
type Probe struct {
	// OnExecute fires after a request is applied to the state machine.
	OnExecute func(seq uint64, req *message.Request, result []byte)
	// OnViewChange fires when the replica enters a new view.
	OnViewChange func(view ids.View, mode ids.Mode)
	// OnCheckpointStable fires when a checkpoint stabilizes.
	OnCheckpointStable func(seq uint64)
}

// NewReplica builds a SeeMoRe replica. Call Start to begin processing.
func NewReplica(opts Options) (*Replica, error) {
	mb := opts.Cluster.Membership
	if !mb.Contains(opts.ID) {
		return nil, fmt.Errorf("core: replica %d not in %v", opts.ID, mb)
	}
	if err := opts.Cluster.Timing.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Cluster.Batching.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Cluster.Pipelining.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Cluster.Leases.Validate(opts.Cluster.Timing); err != nil {
		return nil, err
	}
	clk := clock.OrReal(opts.Clock)
	r := &Replica{
		mb:           mb,
		timing:       opts.Cluster.Timing,
		clk:          clk,
		leanCommits:  opts.LeanCommits,
		leaseSlack:   opts.LeaseSlackForTesting,
		mode:         opts.Cluster.InitialMode,
		log:          mlog.New(opts.Cluster.Timing.HighWaterMarkLag),
		exec:         replica.NewExecutor(opts.StateMachine, opts.Cluster.Timing.CheckpointPeriod),
		nextSeq:      1,
		pending:      replica.NewPending(clk),
		pendingModes: make(map[ids.View]ids.Mode),
		leases:       opts.Cluster.Leases,
		lease:        leaseState{propose: make(map[uint64]time.Time)},
		nvResent:     make(map[ids.ReplicaID]time.Time),
	}
	r.jr = replica.NewJournal(opts.Storage)
	r.in = replica.NewIntake(replica.IntakeConfig{
		Batching: opts.Cluster.Batching, Pipelining: opts.Cluster.Pipelining,
		Clock: clk, Pending: r.pending, Exec: r.exec,
		Open: r.mayPropose, Propose: r.proposeBatch,
	})
	r.eng = replica.NewEngine(replica.Config{
		ID:       opts.ID,
		Suite:    opts.Suite,
		Endpoint: opts.Network.Endpoint(transport.ReplicaAddr(opts.ID)),
		// Timeout flushes run on ticks, so the tick must not exceed
		// BatchTimeout or the flush deadline silently degrades to the
		// tick interval.
		TickInterval: r.in.TickInterval(opts.TickInterval),
		Clock:        clk,
		Journal:      r.jr,
	})
	r.rec = replica.NewRecovery(replica.RecoveryConfig{
		Engine: r.eng, Log: r.log, Exec: r.exec, Pending: r.pending,
		Trust: trust{r}, N: mb.N(), ViewChange: r.timing.ViewChange,
		JoinQuorum: mb.M() + 1, Mode: r.mode,
	})
	r.round = replica.NewRound(replica.RoundConfig{
		Recovery:  r.rec,
		Voter:     func(v ids.View, id ids.ReplicaID) bool { return mb.IsProxy(ids.Peacock, v, id) },
		Voters:    func(v ids.View) []ids.ReplicaID { return mb.Proxies(ids.Peacock, v) },
		Quorum:    mb.AgreementQuorum(ids.Peacock),
		Authentic: r.authentic,
		// Second Peacock modification: INFORM the passive nodes; the
		// proxies reply inside the execution hook.
		Committed: func(seq uint64, d crypto.Digest) {
			r.inform(seq, d)
			r.executeReady()
		},
	})
	if opts.Storage != nil {
		// Crash-restart recovery: replay the journal into the message
		// log and executor before the engine starts processing.
		rs, err := r.rec.Boot()
		if err != nil {
			return nil, fmt.Errorf("core: recovery: %w", err)
		}
		if rs.HasView {
			if !rs.Mode.Valid() || mb.SupportsMode(rs.Mode) != nil {
				return nil, fmt.Errorf("core: recovered invalid mode %d", int(rs.Mode))
			}
			r.view, r.mode, r.activeView = rs.View, rs.Mode, rs.View
		}
		if rs.MaxSeq >= r.nextSeq {
			r.nextSeq = rs.MaxSeq + 1
		}
	}
	return r, nil
}

// SetProbe installs event callbacks; safe to call at any time, including
// while the replica runs.
func (r *Replica) SetProbe(p Probe) { r.probe.Store(&p) }

// loadProbe returns the current probe (never nil).
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

// Crash fail-stops the replica (private-cloud crash injection).
func (r *Replica) Crash() { r.eng.Crash() }

// Recover resumes a crashed replica.
func (r *Replica) Recover() { r.eng.Recover() }

// ID returns the replica's identity.
func (r *Replica) ID() ids.ReplicaID { return r.eng.ID() }

// The following inspection accessors read engine-confined state and are
// only safe after Stop has returned (tests, post-mortem assertions) or
// from within Probe callbacks.

// View returns the replica's current view.
func (r *Replica) View() ids.View { return r.view }

// Mode returns the replica's current mode.
func (r *Replica) Mode() ids.Mode { return r.mode }

// LastExecuted returns the execution cursor.
func (r *Replica) LastExecuted() uint64 { return r.exec.LastExecuted() }

// StableCheckpoint returns the sequence number of the last stable
// checkpoint.
func (r *Replica) StableCheckpoint() uint64 { return r.log.Low() }

// LiveLogSlots returns the number of un-collected log slots (garbage
// collection assertions).
func (r *Replica) LiveLogSlots() int { return r.log.Len() }

// isPrimary reports whether this replica is the primary of its current
// view in its current mode.
func (r *Replica) isPrimary() bool {
	return r.mb.Primary(r.mode, r.view) == r.eng.ID()
}

// isProxy reports whether this replica is a proxy of its current view
// (Dog and Peacock).
func (r *Replica) isProxy() bool {
	return r.mb.IsProxy(r.mode, r.view, r.eng.ID())
}

// trustedSelf reports whether this replica sits in the private cloud.
func (r *Replica) trustedSelf() bool { return r.mb.IsTrusted(r.eng.ID()) }

// HandleMessage implements replica.Handler: the single dispatch point.
func (r *Replica) HandleMessage(m *message.Message) {
	// Agreement traffic from an older view marks a peer that missed the
	// NEW-VIEW multicast (partitioned through the change); hand it the
	// stored, independently verifiable NEW-VIEW so it can rejoin.
	switch m.Kind {
	case message.KindPrepare, message.KindPrePrepare, message.KindAccept,
		message.KindCommit, message.KindInform:
		if m.View < r.view && r.mb.Contains(m.From) {
			r.maybeResendNewView(m.From, m.View)
		}
	case message.KindViewChange:
		// A VIEW-CHANGE whose sender last activated an older view marks
		// the same laggard, suspecting its way through views the rest of
		// the cluster already left behind.
		if m.ActiveView < r.view && r.mb.Contains(m.From) {
			r.maybeResendNewView(m.From, m.ActiveView)
		}
	}
	switch m.Kind {
	case message.KindRequest:
		r.onRequest(m)
	case message.KindPrepare:
		r.onPrepare(m)
	case message.KindPrePrepare:
		r.onPrePrepare(m)
	case message.KindAccept:
		r.onAccept(m)
	case message.KindCommit:
		r.onCommit(m)
	case message.KindInform:
		r.onInform(m)
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
	case message.KindModeChange:
		r.onModeChange(m)
	case message.KindStateRequest:
		r.rec.OnStateRequest(m)
	case message.KindStateReply:
		if r.rec.OnStateReply(m) {
			r.executeReady()
		}
	case message.KindRead:
		r.onRead(m)
	}
}

// HandleTick implements replica.Handler: timeout processing.
func (r *Replica) HandleTick(now time.Time) {
	// A partial batch older than BatchTimeout is flushed so a lull in
	// client traffic cannot strand buffered requests.
	r.in.Pump()
	// A replica that knows it is behind retries its state-transfer
	// request on the tick (throttled inside).
	if !r.rec.InViewChange() {
		r.rec.CatchUp()
	}
	// A parked leased read whose lease lapsed mid-wait must not starve:
	// re-route it through consensus on the tick (no-op when nothing is
	// parked or the executor is still behind a live lease's watermark).
	r.drainParkedReads()
	// Any single slot prepared-but-uncommitted past τ: suspect the
	// primary and start a view change (Section 5.1, View Changes). The
	// timers are per slot, so a stalled slot n is suspected on schedule
	// even while newer slots keep committing around it.
	if !r.rec.InViewChange() {
		if _, ok := r.pending.Expired(now, r.timing.ViewChange); ok {
			r.startViewChange(r.view+1, r.mode)
		}
	}
	// A view change that stalls either escalates or backs off (see
	// replica.Recovery.Overdue).
	if next, backOff := r.rec.Overdue(now); next != 0 {
		r.startViewChange(next, r.targetMode)
	} else if backOff {
		// Requests buffered while the abandoned suspicion ran must not
		// stay stranded: re-propose them (primary) or drop them for the
		// client's retransmission to recover (backup). The resulting
		// proposals also tell peers in a newer view that this replica
		// fell behind, triggering a NEW-VIEW resend.
		r.in.Resume(r.isPrimary())
	}
}

// executeReady drains committed slots into the state machine and emits
// replies according to the current mode's reply policy.
func (r *Replica) executeReady() {
	mode := r.mode
	view := r.view
	executed := r.exec.ExecuteReady(r.log, func(seq uint64, req *message.Request, result []byte) {
		r.in.Executed(req)
		r.replyToClient(mode, view, req, result)
		if p := r.loadProbe(); p.OnExecute != nil {
			p.OnExecute(seq, req, result)
		}
	})
	if executed > 0 {
		// Progress clears the relayed-request sentinel: the cluster is
		// alive, so the relayed request will get through or be retried.
		r.pending.Clear(replica.RelaySentinel)
		r.rec.Executed(r.emitsCheckpoint())
		r.drainParkedReads()
	}
	// Commits (including out-of-order ones that could not execute yet)
	// free pipeline window room: refill it from the backlog.
	r.in.Pump()
}

// replyToClient sends a REPLY if this replica's role replies in the
// given mode: the primary in Lion; the proxies in Dog and Peacock
// (Sections 5.1–5.3).
func (r *Replica) replyToClient(mode ids.Mode, view ids.View, req *message.Request, result []byte) {
	if req.Client < 0 {
		return
	}
	var shouldReply bool
	switch mode {
	case ids.Lion:
		shouldReply = r.mb.Primary(mode, view) == r.eng.ID()
	default:
		shouldReply = r.mb.IsProxy(mode, view, r.eng.ID())
	}
	if !shouldReply {
		return
	}
	r.sendReply(mode, view, req, result)
}

func (r *Replica) sendReply(mode ids.Mode, view ids.View, req *message.Request, result []byte) {
	rep := &message.Message{
		Kind:      message.KindReply,
		View:      view,
		Mode:      mode,
		Timestamp: req.Timestamp,
		Client:    req.Client,
		Result:    result,
		// Every reply advertises the executed prefix so clients can
		// anchor the staleness bound and monotonicity of later
		// coordination-free reads (read.go).
		Watermark: r.exec.LastExecuted(),
	}
	r.eng.SendClientTagged(req.Client, rep)
}

// onRequest handles a client REQUEST. One the client sent this replica
// is checked on the client's tag for it alone: the client's signature
// inside µ travels on unverified, and the request keeps the client's
// authenticator, which a Peacock primary forwards to its proxies in the
// PRE-PREPARE. One a backup relayed (From ≥ 0) is checked on that
// signature, as the backup checked it before relaying
// (ARCHITECTURE.md, "Authentication", the third case).
func (r *Replica) onRequest(m *message.Message) {
	req := m.Request
	if req == nil || req.Client < 0 {
		return
	}
	if m.From >= 0 {
		if r.eng.VerifyRequest(req) {
			r.orderRequest(req, bySig)
		}
		return
	}
	if r.eng.AuthenticRequest(req, m.Sig) {
		req.Auth = m.Sig
		r.orderRequest(req, byTag)
	}
}

// clientAuth is what a replica checked of a client request before it
// acts on it.
type clientAuth uint8

const (
	// byTag: the client's tag for this replica. The signature inside µ
	// travels on unverified.
	byTag clientAuth = iota
	// bySig: the client's signature, on a request a backup relayed.
	bySig
	// unsignedRead: the client's tag on a READ, which carries no
	// signature (ARCHITECTURE.md, "Authentication", the third case).
	unsignedRead
)

// signatureHolds reports whether req, checked as how says, carries a
// good client signature, verifying it only where it was not checked. An
// unsigned READ has none to verify, so it costs no check and counts as
// no bad signature.
func (r *Replica) signatureHolds(req *message.Request, how clientAuth) bool {
	switch how {
	case bySig:
		return true
	case unsignedRead:
		return false
	default:
		return r.eng.VerifyRequest(req)
	}
}

// orderRequest acts on an authentic client request, checked as how
// says: primaries order it; backups that already executed it re-send the
// cached reply; otherwise the request is relayed to the primary and a
// liveness timer starts so a dead primary is eventually suspected
// (Section 5.1's client-retransmission path). An unsigned READ is
// ordered only by a trusted primary, which proposes on its own word; a
// Peacock primary does not admit it and a backup does not relay it, and
// its client's timer re-sends the op as a signed REQUEST.
func (r *Replica) orderRequest(req *message.Request, how clientAuth) {
	// Retransmission of an executed request: re-send the cached reply
	// regardless of role (the client is asking everyone because it timed
	// out).
	if cached, ok := r.exec.CachedReply(req); ok {
		r.sendReply(r.mode, r.view, req, cached)
		return
	}
	if !r.exec.Fresh(req) {
		return // older than the client's last executed request
	}
	if r.rec.InViewChange() {
		// What a trusted node parks is admitted only if it proposes in
		// the view it enters, as a Lion or Dog primary (a Peacock primary
		// is public), so a parked unsigned READ is ordered on a trusted
		// primary's word or dropped.
		if r.trustedSelf() {
			r.in.Park(req)
		}
		return
	}
	if r.isPrimary() {
		// A Peacock primary's proxies verify the client signature of
		// every member whose forwarded tag is missing or bad at them, so
		// one bad signature admitted on the primary's tag alone would
		// poison an honest primary's slot. A trusted primary's proposals
		// are taken on its word: nobody checks the signature.
		if r.mode == ids.Peacock && !r.signatureHolds(req, how) {
			return
		}
		r.in.Admit(req)
		return
	}
	// Not the primary: relay and arm the suspicion timer keyed on a
	// pseudo-slot so a silent primary cannot stall this client forever.
	// Only a request whose signature verifies is relayed, and the primary
	// takes the relay on that signature: every replica judges a signature
	// alike, so a client cannot have backups suspect an honest primary
	// with tags good at them and bad at the primary, or good tags over a
	// bad signature. The wrapper carries nothing of this replica's.
	if !r.signatureHolds(req, how) {
		return
	}
	fwd := &message.Message{Kind: message.KindRequest, From: r.eng.ID(), Request: req}
	r.eng.Send(r.mb.Primary(r.mode, r.view), fwd)
	r.pending.Mark(replica.RelaySentinel)
}

// mayPropose answers replica.Intake: this replica is the primary of its
// view in normal operation and the next sequence number fits the log
// window. While the window is full the primary waits for a checkpoint
// to stabilize.
func (r *Replica) mayPropose() bool {
	return !r.rec.InViewChange() && r.isPrimary() && r.log.InWindow(r.nextSeq)
}

// proposalKind is the kind of a primary's proposal in mode md: a
// PRE-PREPARE in Peacock, a PREPARE in Lion and Dog.
func proposalKind(md ids.Mode) message.Kind {
	if md == ids.Peacock {
		return message.KindPrePrepare
	}
	return message.KindPrepare
}

// proposeBatch assigns the next sequence number to a request set and
// starts the mode-specific agreement (the primary's half of Algorithms 1
// and 2, or PBFT pre-prepare in Peacock). A single-request set goes out
// in the single-request frame format. replica.Intake calls it, only
// while mayPropose holds, and is told whether the slot went out.
func (r *Replica) proposeBatch(reqs []*message.Request) bool {
	seq := r.nextSeq
	r.nextSeq++
	r.leaseRecordPropose(seq)

	prop := &message.Signed{
		Kind:   proposalKind(r.mode),
		View:   r.view,
		Seq:    seq,
		Digest: message.BatchDigest(reqs),
	}
	prop.SetRequests(reqs)
	r.eng.SignRecord(prop)

	entry := r.log.Entry(seq)
	if entry == nil {
		return false // cannot happen: mayPropose checked the window
	}
	if err := entry.SetProposal(prop); err != nil {
		return false
	}
	r.pending.Mark(seq)
	// Journal before multicasting: a primary must never propose a slot
	// its recovered self would not remember assigning.
	r.jr.Proposal(prop)

	// The primary's proposal is broadcast to every replica in all three
	// modes (Lion: Algorithm 1; Dog: Algorithm 2; Peacock: the paper's
	// first modification to PBFT).
	r.multicastSigned(r.mb.All(), prop)

	switch r.mode {
	case ids.Lion:
		// The primary counts itself toward the 2m+c+1 accept quorum.
		entry.AddVote(message.KindAccept, r.view, r.eng.ID(), prop.Digest)
	case ids.Dog:
		// The trusted Dog primary is not a proxy; proxies run the accept
		// round among themselves.
	case ids.Peacock:
		// The Peacock primary is a proxy: its pre-prepare stands in for
		// its prepare vote.
		entry.AddVote(message.KindPrepare, r.view, r.eng.ID(), prop.Digest)
	}
	return true
}
