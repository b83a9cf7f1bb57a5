package client

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/transport"
)

// maxRetryWait caps a backoff-grown retransmit wait. Without it,
// Backoff > 1 composed with the default 20-retry budget turns an
// unreachable cluster into a wait of ClientRetry·2²⁰ — the cap keeps
// the worst-case Invoke latency proportional to the retry budget.
const maxRetryWait = time.Minute

// Step is what one Session call asks of its caller.
type Step struct {
	// Frame is to be delivered to each replica in To, in order.
	To    []ids.ReplicaID
	Frame []byte
	// Deadline is when the caller must call OnTimer; zero once no op is
	// in flight.
	Deadline time.Time
	// Outcome is set once the op was accepted or abandoned.
	Outcome *Outcome
}

// Outcome describes an op the Session accepted or abandoned.
type Outcome struct {
	// Result is the accepted result; Err is set instead when the retry
	// budget ran out.
	Result []byte
	Err    error
	// Timestamp is the op's last request timestamp — the one an accepted
	// result answered. A read that fell back to consensus used two.
	Timestamp uint64
	// Watermark is the freshest executed watermark vouching for Result.
	Watermark uint64
	// Served is how the accepted reply was served: a fast-path read that
	// fell back to consensus, like every write, reports Linearizable.
	Served Consistency
	// Floor is the stale-read acceptance floor the fast path used (zero
	// for an op that never took it).
	Floor uint64
}

// Session is the whole client protocol as a sans-I/O state machine: it
// authenticates requests, picks their targets, validates replies,
// applies the policy's quorum and runs the retransmission and
// read-fallback timers, but never reads a clock or touches an endpoint.
// Its caller feeds it the current time and every envelope addressed to
// the client, delivers the frames each call returns and calls OnTimer
// once the returned deadline passes. Client drives one on the host
// clock; the deterministic simulation drives one on virtual time. At
// most one op is in flight.
type Session struct {
	id         ids.ClientID
	suite      crypto.Suite
	policy     Policy
	rp         ReadPolicy // nil when the policy serves no fast-path reads
	retry      time.Duration
	maxRetries int
	backoff    float64

	ts     uint64
	seeded bool // ts started from config.Client.InitialTimestamp

	// Fast-read freshness tracking: the monotonic floor every stale read
	// must clear, the observation log backing MaxStaleness bounds, and
	// the follower rotation cursor.
	readFloor uint64
	wmLog     []wmObs
	staleRR   int

	// The op in flight. path is the consistency its current request asks
	// for: Linearizable once it is ordered through consensus.
	busy     bool
	op       []byte
	path     Consistency
	wire     []byte
	replies  map[ids.ReplicaID]*message.Message
	retried  bool
	attempt  int
	wait     time.Duration
	floor    uint64
	deadline time.Time
}

// NewSession builds a client session; cc is normalized against timing
// exactly as NewWithConfig does.
func NewSession(id ids.ClientID, suite crypto.Suite, policy Policy, timing config.Timing, cc config.Client) *Session {
	cc = cc.Normalized(timing)
	rp, _ := policy.(ReadPolicy)
	return &Session{
		id:         id,
		suite:      suite,
		policy:     policy,
		rp:         rp,
		retry:      cc.RetryTimeout,
		maxRetries: cc.MaxRetries,
		backoff:    cc.Backoff,
		ts:         cc.InitialTimestamp,
		seeded:     cc.InitialTimestamp > 0,
	}
}

// Timestamp returns the timestamp of the last issued request (or the
// initial seed before the first one).
func (s *Session) Timestamp() uint64 { return s.ts }

// Pending describes the op in flight as it stands — its latest request
// timestamp, the path it is on and its floor — for a recorder that must
// report an op cut off mid-flight. It reports false when no op is in
// flight.
func (s *Session) Pending() (Outcome, bool) {
	return Outcome{Timestamp: s.ts, Served: s.path, Floor: s.floor}, s.busy
}

// Start begins op, abandoning any op still in flight. Linearizable
// reads, writes, and reads under a policy without the ReadPolicy
// capability are ordered through consensus. Leased reads go to the
// lease holder; Stale reads go to a trusted follower, rotating for load
// spreading. Whenever the fast path stalls, OnTimer falls back to
// ordering the read like a write.
func (s *Session) Start(op []byte, opts ReadOptions, now time.Time) Step {
	s.busy, s.op, s.floor = true, op, 0
	// targets get the READ first; reach is every replica the same frame
	// may go to: a stale read's first timeout re-sends it to every stale
	// target.
	var targets, reach []ids.ReplicaID
	if s.rp != nil {
		switch opts.Consistency {
		case Leased:
			if t, ok := s.rp.LeaseTarget(); ok {
				targets = []ids.ReplicaID{t}
				reach = targets
			}
		case Stale:
			if all := s.rp.StaleTargets(); len(all) > 0 {
				targets = []ids.ReplicaID{all[s.staleRR%len(all)]}
				reach = all
				s.staleRR++
			}
		}
	}
	if targets == nil {
		return s.order(now)
	}
	s.path = opts.Consistency
	s.request(message.KindRead, opts.Consistency, reach)
	// The acceptance floor for stale replies: read-your-writes
	// monotonicity always, plus the MaxStaleness-derived freshness bound.
	s.floor = s.readFloor
	if opts.Consistency == Stale && opts.MaxStaleness > 0 {
		if need := s.requiredWatermark(now.Add(-opts.MaxStaleness)); need > s.floor {
			s.floor = need
		}
	}
	s.deadline = now.Add(s.retry)
	return s.step(targets)
}

// order (re)starts the op over the ordered-write path — the path of
// every write and linearizable read, and the fallback of a stalled
// fast-path read: a fresh timestamp, a fresh reply set, primary first.
func (s *Session) order(now time.Time) Step {
	s.path = Linearizable
	s.request(message.KindRequest, Linearizable, s.policy.All())
	s.attempt = 0
	s.wait = s.retry
	s.deadline = now.Add(s.wait)
	return s.step(s.policy.Primary())
}

// request issues a fresh request for the op in flight: the next
// timestamp, a new frame tagged for every replica in reach and an empty
// reply set. Each receiver checks its own tag, not the request's
// signature, so a retransmission reuses the frame. A REQUEST is also
// signed and reaches every replica: a backup relays it, and a Peacock
// primary admits it, on that signature. A READ, which only a trusted
// primary ever orders, carries none (ARCHITECTURE.md, "Authentication").
func (s *Session) request(kind message.Kind, c Consistency, reach []ids.ReplicaID) {
	s.ts++
	s.replies = make(map[ids.ReplicaID]*message.Message)
	s.retried = false
	req := &message.Request{Op: s.op, Timestamp: s.ts, Client: s.id}
	if kind == message.KindRequest {
		req.Sig = s.suite.Sign(crypto.ClientPrincipal(int64(s.id)), req.SignedBytes())
	}
	s.wire = message.Marshal(&message.Message{Kind: kind, From: -1, Payload: []*message.Request{req}, Consistency: c,
		Sig: message.AuthenticateRequest(s.suite, req, reach)})
}

// step sends the current request to targets.
func (s *Session) step(targets []ids.ReplicaID) Step {
	return Step{To: targets, Frame: s.wire, Deadline: s.deadline}
}

// OnEnvelope feeds the session one envelope addressed to its client.
// This is the one reply path: validate, note the watermark, apply the
// stale-read floor, then the policy's quorum.
func (s *Session) OnEnvelope(env transport.Envelope, now time.Time) Step {
	if !s.busy {
		return Step{}
	}
	rep := s.validReply(env)
	if rep == nil {
		return Step{Deadline: s.deadline}
	}
	s.noteWatermark(rep.Watermark, now)
	if s.path == Stale && rep.Watermark < s.floor {
		return Step{Deadline: s.deadline} // too stale for this client; another replica may do
	}
	s.replies[rep.From] = rep
	if result, ok := s.policy.Done(s.replies, s.retried); ok {
		return s.accept(Step{}, result)
	}
	return Step{Deadline: s.deadline}
}

// OnTimer reports that the last returned deadline has passed.
func (s *Session) OnTimer(now time.Time) Step {
	if !s.busy {
		return Step{}
	}
	if s.path != Linearizable {
		if s.path == Stale && !s.retried {
			// One follower stalled or lagged: ask every eligible one
			// before paying for consensus.
			s.retried = true
			s.deadline = now.Add(s.retry)
			return s.step(s.rp.StaleTargets())
		}
		// Fast path unavailable (expired lease, partitioned holder,
		// everyone too stale): order the read like a write.
		return s.order(now)
	}
	s.attempt++
	if s.attempt > s.maxRetries {
		// A zero-seeded timestamp counter is the classic silent failure
		// against a durable cluster: a restarted process reusing this
		// client id replays timestamps the replicated client table has
		// already seen, and replicas drop the requests without any
		// reply. Surface the likely cause.
		o, _ := s.Pending()
		o.Err = fmt.Errorf("%w (client %d, ts %d)", ErrTimeout, s.id, s.ts)
		if !s.seeded {
			o.Err = fmt.Errorf("%w (client %d, ts %d; stale timestamp? a reused client id against a durable cluster needs config.Client.InitialTimestamp seeded above its previous run)", ErrTimeout, s.id, s.ts)
		}
		s.busy, s.deadline = false, time.Time{}
		return Step{Outcome: &o}
	}
	// Timeout: suspect the primary and broadcast to everyone (Section
	// 5.1's client recovery path).
	s.retried = true
	if result, ok := s.policy.Done(s.replies, true); ok {
		return s.accept(s.step(s.policy.All()), result)
	}
	if s.backoff > 1 {
		s.wait = min(time.Duration(float64(s.wait)*s.backoff), maxRetryWait)
	}
	s.deadline = now.Add(s.wait)
	return s.step(s.policy.All())
}

// accept ends the op in flight with result: the policy learns the
// primary from the reply set, and the read floor rises to the freshest
// watermark vouching for the result. st carries the frame still to
// deliver, if any.
func (s *Session) accept(st Step, result []byte) Step {
	s.policy.Observe(s.replies)
	o := &Outcome{Result: result, Timestamp: s.ts, Floor: s.floor}
	for _, m := range s.replies {
		if !bytes.Equal(m.Result, result) {
			continue
		}
		o.Watermark = max(o.Watermark, m.Watermark)
		if s.path != Linearizable && m.Consistency != Linearizable {
			o.Served = m.Consistency
		}
	}
	s.readFloor = max(s.readFloor, o.Watermark)
	s.busy, s.deadline = false, time.Time{}
	st.Deadline, st.Outcome = time.Time{}, o
	return st
}

// validReply checks envelope provenance, decodes, and verifies the
// echoed timestamp and the replica's tag for this client (a REPLY is
// read by its client alone, so it is tagged, not signed).
func (s *Session) validReply(env transport.Envelope) *message.Message {
	if env.From.IsClient() {
		return nil
	}
	m, err := message.Unmarshal(env.Frame)
	if err != nil || m.Kind != message.KindReply {
		return nil
	}
	if m.From != env.From.Replica() || m.Client != s.id || m.Timestamp != s.ts {
		return nil
	}
	if !s.suite.VerifyTag(crypto.ReplicaPrincipal(int(m.From)), crypto.ClientPrincipal(int64(s.id)), m.SignedBytes(), m.Sig) {
		return nil
	}
	return m
}

// wmObs is one point of the session's freshness knowledge: some replica
// had executed up to wm when the session observed it at time at. The
// log stays strictly increasing in wm and non-decreasing in time.
type wmObs struct {
	wm uint64
	at time.Time
}

// maxWatermarkLog bounds the freshness log; dropping the oldest entry
// can only weaken (never violate) the staleness bound it backs.
const maxWatermarkLog = 256

// noteWatermark records freshness knowledge from any validated reply,
// accepted or not.
func (s *Session) noteWatermark(wm uint64, now time.Time) {
	if wm == 0 {
		return
	}
	if n := len(s.wmLog); n > 0 && s.wmLog[n-1].wm >= wm {
		return // dominated: an at-least-as-fresh observation is already older
	}
	s.wmLog = append(s.wmLog, wmObs{wm: wm, at: now})
	if len(s.wmLog) > maxWatermarkLog {
		s.wmLog = s.wmLog[1:]
	}
}

// requiredWatermark returns the freshest watermark the session had
// observed at or before cutoff — the floor a MaxStaleness bound imposes
// — and prunes the entries that precede it (every later computation's
// cutoff only moves forward).
func (s *Session) requiredWatermark(cutoff time.Time) uint64 {
	idx := -1
	for i, o := range s.wmLog {
		if o.at.After(cutoff) {
			break
		}
		idx = i
	}
	if idx < 0 {
		return 0
	}
	s.wmLog = s.wmLog[idx:]
	return s.wmLog[0].wm
}
