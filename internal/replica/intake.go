package replica

import (
	"time"

	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/message"
)

// IntakeConfig wires an Intake to the engine-owned pieces it drives and
// to what only the engine's protocol can say.
type IntakeConfig struct {
	Batching   config.Batching
	Pipelining config.Pipelining
	// Clock stamps flush deadlines; nil uses the real clock.
	Clock   clock.Clock
	Engine  *Engine
	Pending *Pending
	Exec    *Executor
	// Trusted reports whether a replica is a trusted (crash-only) node,
	// whose word stands for the clients it admitted: SeeMoRe's private
	// cloud. The PBFT baseline, the all-public instance, trusts nobody.
	Trusted func(ids.ReplicaID) bool
	// Primary names the proposer of this replica's current view.
	Primary func() ids.ReplicaID
	// InViewChange reports whether a view change is in progress.
	InViewChange func() bool
	// Reply re-sends an executed request's cached result to its client.
	Reply func(req *message.Request, result []byte)
	// Open reports whether this replica may assign the next sequence
	// number right now: it is the proposer of its view, no view change
	// is in progress, and the log window has room for the number.
	Open func() bool
	// Propose orders one slot's worth of requests — sequence assignment,
	// signing, journaling, multicast, the proposer's own vote — and marks
	// the slot in Pending. It is only called while Open holds, and
	// reports whether the slot went out.
	Propose func([]*message.Request) bool
}

// Intake is what a replica does with client requests before they have
// a sequence number, the same in every mode of the paper and in the
// PBFT baseline: authenticate a client's request and relay it to the
// proposer or admit it (OnRequest), check the members of a proposal
// (ValidPayload), drop a request that is already being ordered, pack
// requests into slot-sized batches, propose while fewer than Depth
// slots are uncommitted and the engine says the log window is open, and
// hold the rest back in arrival order. It sits beside Executor, Journal,
// Pending and Recovery; engines never read its tables.
// Engine-goroutine confined; no locking.
type Intake struct {
	size    int           // requests per slot (≥ 1)
	timeout time.Duration // a partial batch's flush deadline
	depth   int           // proposal window (≥ 1)
	clk     clock.Clock
	eng     *Engine
	pend    *Pending
	exec    *Executor
	open    func() bool
	propose func([]*message.Request) bool
	trusted func(ids.ReplicaID) bool
	primary func() ids.ReplicaID
	viewChg func() bool
	reply   func(*message.Request, []byte)

	// buf holds admitted requests in arrival order until they are
	// proposed; since is when its oldest partial batch started waiting.
	buf   []*message.Request
	since time.Time
	// known is the (client, timestamp) of every request in buf or in a
	// proposed slot that has not executed. A client's retransmission is
	// relayed to the proposer by every backup; without this each relay
	// would occupy a slot. Never iterated.
	known map[requestKey]struct{}
	// parked holds requests that arrived while a view change was in
	// progress; what becomes of them is decided when it ends.
	parked []*message.Request
}

type requestKey struct {
	client ids.ClientID
	ts     uint64
}

func keyOf(req *message.Request) requestKey {
	return requestKey{client: req.Client, ts: req.Timestamp}
}

// NewIntake builds the intake of one replica.
func NewIntake(cfg IntakeConfig) *Intake {
	b := cfg.Batching.Normalized()
	return &Intake{
		size: b.BatchSize, timeout: b.BatchTimeout,
		depth: cfg.Pipelining.Normalized().Depth,
		clk:   clock.OrReal(cfg.Clock), eng: cfg.Engine, pend: cfg.Pending, exec: cfg.Exec,
		open: cfg.Open, propose: cfg.Propose,
		trusted: cfg.Trusted, primary: cfg.Primary, viewChg: cfg.InViewChange, reply: cfg.Reply,
		known: make(map[requestKey]struct{}),
	}
}

// TickInterval caps an engine tick of base so the batching's
// BatchTimeout can actually be honored: timeout flushes run on ticks, so
// a tick longer than the timeout would silently quantize the deadline up
// to the tick.
func TickInterval(b config.Batching, base time.Duration) time.Duration {
	b = b.Normalized()
	if b.BatchSize > 1 && (base <= 0 || base > b.BatchTimeout) {
		return b.BatchTimeout
	}
	return base
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

// OnRequest handles a client REQUEST. One the client sent this replica
// is checked on the client's tag for it alone: the client's signature
// inside µ travels on unverified, and the request keeps the client's
// authenticator, which a public primary forwards to its voters in the
// PRE-PREPARE. One a backup relayed (From ≥ 0) is checked on that
// signature, as the backup checked it before relaying
// (ARCHITECTURE.md, "Authentication", the third case).
func (in *Intake) OnRequest(m *message.Message) {
	if len(m.Payload) != 1 || m.Payload[0].Client < 0 {
		return
	}
	req := m.Payload[0]
	if m.From >= 0 {
		if in.eng.VerifyRequest(req) {
			in.order(req, bySig)
		}
		return
	}
	if in.eng.AuthenticRequest(req, m.Sig) {
		req.Auth = m.Sig
		in.order(req, byTag)
	}
}

// OrderRead orders a client READ the fast path could not serve, which
// the caller took on the client's tag. A READ is unsigned, so only a
// trusted primary orders it, on its own word; a public primary does not
// admit it and a backup does not relay it, and its client's timer
// re-sends the op as a signed REQUEST.
func (in *Intake) OrderRead(req *message.Request) { in.order(req, unsignedRead) }

// signatureHolds reports whether req, checked as how says, carries a
// good client signature, verifying it only where it was not checked. An
// unsigned READ has none to verify, so it costs no check and counts as
// no good signature.
func (in *Intake) signatureHolds(req *message.Request, how clientAuth) bool {
	switch how {
	case bySig:
		return true
	case unsignedRead:
		return false
	default:
		return in.eng.VerifyRequest(req)
	}
}

// order acts on an authentic client request, checked as how says: the
// primary admits it; a replica that already executed it re-sends the
// cached reply; otherwise the request is relayed to the primary and a
// liveness timer starts so a dead primary is eventually suspected
// (Section 5.1's client-retransmission path).
func (in *Intake) order(req *message.Request, how clientAuth) {
	// Retransmission of an executed request: re-send the cached reply
	// regardless of role (the client is asking everyone because it timed
	// out).
	if cached, ok := in.exec.CachedReply(req); ok {
		in.reply(req, cached)
		return
	}
	if !in.exec.Fresh(req) {
		return // older than the client's last executed request
	}
	self := in.eng.ID()
	if in.viewChg() {
		// What a trusted node parks is admitted only if it proposes in
		// the view it enters, as a Lion or Dog primary (a Peacock or
		// PBFT primary is public), so a parked unsigned READ is ordered
		// on a trusted primary's word or dropped. Anyone else drops the
		// request for the client's retransmission to recover.
		if in.trusted(self) {
			in.Park(req)
		}
		return
	}
	primary := in.primary()
	if primary == self {
		// A public primary's voters verify the client signature of
		// every member whose forwarded tag is missing or bad at them, so
		// one bad signature admitted on the primary's tag alone would
		// poison an honest primary's slot. A trusted primary's proposals
		// are taken on its word: nobody checks the signature.
		if !in.trusted(self) && !in.signatureHolds(req, how) {
			return
		}
		in.Admit(req)
		return
	}
	// Not the primary: relay and arm the suspicion timer keyed on a
	// pseudo-slot so a silent primary cannot stall this client forever.
	// Only a request whose signature verifies is relayed, and the primary
	// takes the relay on that signature: every replica judges a signature
	// alike, so a client cannot have backups suspect an honest primary
	// with tags good at them and bad at the primary, or good tags over a
	// bad signature. The wrapper carries nothing of this replica's.
	if !in.signatureHolds(req, how) {
		return
	}
	in.eng.Send(primary, &message.Message{Kind: message.KindRequest, From: self, Payload: []*message.Request{req}})
	in.pend.Mark(RelaySentinel)
}

// ValidPayload checks the requests attached to a proposal from m.From,
// which the caller has authenticated: they must match the proposal
// digest, and, when the proposer is public and this replica vouches for
// the proposal with a vote (voter), each must be its client's own
// request, on this replica's tag in the client authenticator the
// proposer forwarded or on the client's signature where that tag is
// missing or bad (Engine.AuthenticForwarded). A trusted proposer's word
// needs no such check: it admitted each client on its tag and does not
// lie, so a bad signature inside is the client's own doing. A
// non-voter — a Peacock passive node — executes the payload only behind
// m+1 matching INFORMs, so D(µ) = d is all it checks
// (ARCHITECTURE.md, "Authentication").
func (in *Intake) ValidPayload(m *message.Message, voter bool) bool {
	reqs := m.Requests()
	if len(reqs) == 0 || message.BatchDigest(reqs) != m.Digest {
		return false
	}
	return in.trusted(m.From) || !voter || in.eng.AuthenticForwarded(reqs)
}

// Admit takes a request at the proposer in normal operation: unless the
// same (client, timestamp) is already waiting or in flight, it joins the
// buffer, and whatever the window now allows is proposed.
func (in *Intake) Admit(req *message.Request) {
	k := keyOf(req)
	if _, dup := in.known[k]; dup {
		return
	}
	if len(in.buf) == 0 {
		in.since = in.clk.Now()
	}
	in.known[k] = struct{}{}
	in.buf = append(in.buf, req)
	in.Pump()
}

// Park sets aside a request that arrived while a view change is in
// progress (whether to call it or drop the request is the engine's
// policy). Resume decides its fate.
func (in *Intake) Park(req *message.Request) { in.parked = append(in.parked, req) }

// Pump proposes buffered batches — full ones, or a partial one past its
// flush deadline — while the engine reports the log window open and
// fewer than Depth slots are uncommitted. Requests beyond that stay
// buffered in order. Engines call it whenever room may have appeared (a
// slot committed, a checkpoint stabilized) and on every tick (flush
// deadlines). Every iteration shrinks the buffer, so it terminates.
func (in *Intake) Pump() {
	for len(in.buf) > 0 && in.pend.InFlight() < in.depth && in.open() {
		now := in.clk.Now()
		if len(in.buf) < in.size && now.Sub(in.since) < in.timeout {
			return // partial batch, deadline not reached: keep filling
		}
		reqs := in.take(now)
		if !in.propose(reqs) {
			// Not ordered after all: a retransmission must not be
			// mistaken for a duplicate of it.
			for _, req := range reqs {
				delete(in.known, keyOf(req))
			}
		}
	}
}

// take carves the oldest slot's worth of requests off the buffer. The
// flush deadline restarts for the remainder — without that, once the
// first batch's deadline passed, every later partial batch would count
// as due and flush immediately as an under-filled slot.
func (in *Intake) take(now time.Time) []*message.Request {
	if in.size >= len(in.buf) {
		out := in.buf
		in.buf, in.since = nil, time.Time{}
		return out
	}
	out := in.buf[:in.size:in.size]
	in.buf, in.since = in.buf[in.size:], now
	return out
}

// Executed forgets a request the executor just applied.
func (in *Intake) Executed(req *message.Request) { delete(in.known, keyOf(req)) }

// EnterView is Resume for an applied NEW-VIEW: the old view's open
// slots were re-issued by the NEW-VIEW itself or are lost with it, so
// nothing proposed earlier counts as in flight any more.
func (in *Intake) EnterView(proposer bool) {
	in.known = make(map[requestKey]struct{})
	in.Resume(proposer)
}

// Resume ends a view change (entered, or abandoned by a back-off): the
// unproposed buffer, then what was parked meanwhile, is admitted afresh
// if this replica now proposes — minus what executed in between — and
// dropped otherwise, for the clients' retransmissions to reach the real
// proposer.
func (in *Intake) Resume(proposer bool) {
	for _, req := range in.buf {
		delete(in.known, keyOf(req))
	}
	held := append(in.buf, in.parked...)
	in.buf, in.parked, in.since = nil, nil, time.Time{}
	if !proposer {
		return
	}
	for _, req := range held {
		if in.exec.Fresh(req) {
			in.Admit(req)
		}
	}
}

// Buffered and Parked count the requests waiting for the window and for
// the end of a view change (tests, metrics).
func (in *Intake) Buffered() int { return len(in.buf) }
func (in *Intake) Parked() int   { return len(in.parked) }
