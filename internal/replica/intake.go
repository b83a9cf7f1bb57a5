package replica

import (
	"time"

	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/message"
)

// IntakeConfig wires an Intake to the engine-owned pieces it drives and
// to the two things only the engine's protocol can say.
type IntakeConfig struct {
	Batching   config.Batching
	Pipelining config.Pipelining
	// Clock stamps flush deadlines; nil uses the real clock.
	Clock   clock.Clock
	Pending *Pending
	Exec    *Executor
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

// Intake is what a proposer does with client requests before they have
// a sequence number, the same in every mode of the paper and in the
// PBFT baseline: drop a request that is already being
// ordered, pack requests into slot-sized batches, propose while fewer
// than Depth slots are uncommitted and the engine says the log window
// is open, and hold the rest back in arrival order. It sits beside
// Executor, Journal, Pending and Recovery; engines never read its
// tables. Engine-goroutine confined; no locking.
type Intake struct {
	size    int           // requests per slot (≥ 1)
	timeout time.Duration // a partial batch's flush deadline
	depth   int           // proposal window (≥ 1)
	clk     clock.Clock
	pend    *Pending
	exec    *Executor
	open    func() bool
	propose func([]*message.Request) bool

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
		clk:   clock.OrReal(cfg.Clock), pend: cfg.Pending, exec: cfg.Exec,
		open: cfg.Open, propose: cfg.Propose,
		known: make(map[requestKey]struct{}),
	}
}

// TickInterval caps an engine tick so BatchTimeout can actually be
// honored: timeout flushes run on ticks, so a tick longer than the
// timeout would silently quantize the deadline up to the tick.
func (in *Intake) TickInterval(base time.Duration) time.Duration {
	if in.size > 1 && (base <= 0 || base > in.timeout) {
		return in.timeout
	}
	return base
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
