package replica

import (
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/transport"
)

// Handler is a protocol state machine. The engine calls it from a single
// goroutine, so implementations need no internal locking.
type Handler interface {
	// HandleMessage processes one decoded, structurally valid message.
	// Signature verification is the handler's job (it knows which kinds
	// must be signed by whom).
	HandleMessage(m *message.Message)
	// HandleTick fires roughly every Config.TickInterval with the
	// current time; protocols run their timeout logic here.
	HandleTick(now time.Time)
}

// Config assembles a replica runtime.
type Config struct {
	// ID is this replica's identity.
	ID ids.ReplicaID
	// Suite signs and verifies protocol messages.
	Suite crypto.Suite
	// Endpoint is the attached network endpoint.
	Endpoint transport.Endpoint
	// TickInterval drives HandleTick (default 5ms).
	TickInterval time.Duration
	// Clock is the time source for HandleTick; nil uses the real clock.
	// The deterministic simulation injects a virtual clock here so tick
	// timestamps come from the simulated schedule.
	Clock clock.Clock
	// Journal is the replica's durable log (nil: durability off). The
	// engine syncs it before releasing any frame built after a record was
	// appended, and sends nothing once it has failed.
	Journal *Journal
}

// Engine runs a Handler over an endpoint.
type Engine struct {
	id    ids.ReplicaID
	suite crypto.Suite
	ep    transport.Endpoint
	tick  time.Duration
	clk   clock.Clock
	jr    *Journal
	out   outbox

	mu      sync.Mutex
	crashed bool
	started bool

	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
}

// NewEngine builds an engine. Call Start to begin processing.
func NewEngine(cfg Config) *Engine {
	tick := cfg.TickInterval
	if tick <= 0 {
		tick = 5 * time.Millisecond
	}
	return &Engine{
		id:     cfg.ID,
		suite:  cfg.Suite,
		ep:     cfg.Endpoint,
		tick:   tick,
		clk:    clock.OrReal(cfg.Clock),
		jr:     cfg.Journal,
		out:    outbox{ep: cfg.Endpoint, jr: cfg.Journal},
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Clock returns the engine's time source (the real clock unless one
// was injected).
func (e *Engine) Clock() clock.Clock { return e.clk }

// ID returns the replica identity the engine runs as.
func (e *Engine) ID() ids.ReplicaID { return e.id }

// Start launches the event loop feeding h. It must be called exactly
// once.
func (e *Engine) Start(h Handler) {
	e.mu.Lock()
	e.started = true
	e.mu.Unlock()
	//lint:allow simdet the event loop is the one goroutine of a running replica; the sim never calls Start, it steps the handler through StepEnvelope/StepTick on its own thread
	go e.loop(h)
}

func (e *Engine) loop(h Handler) {
	defer close(e.done)
	//lint:allow clockcheck the wall ticker only paces the event loop; protocol timestamps come from the injected clock.Clock
	ticker := time.NewTicker(e.tick)
	defer ticker.Stop()
	inbox := e.ep.Inbox()
	for {
		select {
		case <-e.stopCh:
			return
		case env, ok := <-inbox:
			if !ok {
				return
			}
			e.drain(h, env, inbox)
		case <-ticker.C:
			// Ticks stamp the engine's clock, not the host ticker's
			// delivery time, so an injected clock governs every timer.
			e.StepTick(h, e.clk.Now())
		}
	}
}

// drain processes env and the envelopes already queued behind it as one
// unit of work: what they make the replica send leaves after one journal
// sync (see outbox). The count is taken once, so a drain ends even while
// peers keep sending.
func (e *Engine) drain(h Handler, env transport.Envelope, inbox <-chan transport.Envelope) {
	e.out.draining = true
	e.processEnvelope(h, env)
	for n := len(inbox); n > 0; n-- {
		next, ok := <-inbox
		if !ok {
			break
		}
		e.processEnvelope(h, next)
	}
	e.endDrain()
}

// endDrain syncs the journal and releases the drain's held frames — or,
// if the replica crashed meanwhile, drops them.
func (e *Engine) endDrain() {
	e.out.draining = false
	e.out.flush(e.isCrashed())
}

// processEnvelope validates one inbound frame and dispatches it — the
// single admission path shared by the goroutine loop and the manual
// stepping entry points below.
func (e *Engine) processEnvelope(h Handler, env transport.Envelope) {
	if e.isCrashed() {
		return // a crashed node neither processes nor responds
	}
	m, err := message.Unmarshal(env.Frame)
	if err != nil {
		return // hostile or corrupt frame: drop silently
	}
	if err := m.Validate(); err != nil {
		return
	}
	// Reject frames whose claimed protocol sender does not match the
	// link-level sender. This is a consistency filter, not
	// authentication — a TCP peer names itself in an unchecked hello —
	// so every replica message is still authenticated against From by
	// its handler, with a signature or a tag (see Auth). Client requests
	// arrive from client addresses with From = -1.
	if env.From.IsClient() {
		if m.Kind != message.KindRequest && m.Kind != message.KindRead {
			return
		}
	} else if m.From != env.From.Replica() {
		return
	}
	h.HandleMessage(m)
}

// StepEnvelope feeds one inbound frame through the same validation
// path as the goroutine loop, synchronously, on the caller's
// goroutine, as a drain of its own. It is the deterministic
// simulation's delivery entry point: the harness owns the one thread
// that ever steps a replica, so the engine-confinement invariant the
// Handler contract promises still holds. Never mix Step* with Start on
// the same engine.
func (e *Engine) StepEnvelope(h Handler, env transport.Envelope) {
	e.out.draining = true
	e.processEnvelope(h, env)
	e.endDrain()
}

// StepTick fires one tick at the given (usually virtual) time,
// synchronously, as a drain of its own. See StepEnvelope for the
// threading contract.
func (e *Engine) StepTick(h Handler, now time.Time) {
	if e.isCrashed() {
		return
	}
	e.out.draining = true
	h.HandleTick(now)
	e.endDrain()
}

// Stop terminates the event loop and waits for it to exit. Stopping an
// engine that was never started is a no-op (a replica may be built —
// and recovered — without ever being run).
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stopCh) })
	e.mu.Lock()
	started := e.started
	e.mu.Unlock()
	if started {
		<-e.done
	}
}

// Crash puts the replica in fail-stop mode: it stops processing and
// sending until Recover, and frames held in the current drain are
// dropped. This models the paper's private-cloud crash
// failures ("may fail by stopping, and may restart").
func (e *Engine) Crash() {
	e.mu.Lock()
	e.crashed = true
	e.mu.Unlock()
}

// Recover clears the crash flag; the replica resumes from its retained
// state, like a restarted process recovering from its log.
func (e *Engine) Recover() {
	e.mu.Lock()
	e.crashed = false
	e.mu.Unlock()
}

func (e *Engine) isCrashed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.crashed
}

// silent reports whether the replica must send nothing: it is crashed,
// or its journal failed and it fail-stopped until restart.
func (e *Engine) silent() bool { return e.isCrashed() || e.jr.Broken() }

// Auth says how a message kind is authenticated. Each engine keeps one
// table from (mode, kind) to Auth; the zero value marks a kind the table
// forgot.
type Auth uint8

const (
	// AuthSigned kinds carry a signature: they can be shown to a third
	// party later, as view-change evidence or inside a certificate.
	AuthSigned Auth = iota + 1
	// AuthTagged kinds carry pairwise tags (message.SetTag): their
	// receiver consumes them and nothing ever forwards them as proof.
	AuthTagged
	// AuthSealed kinds are signed for export and tagged for receipt
	// (message.Seal): the receiver checks its tag over the tuple and the
	// signature, and keeps the signature — unverified — for the third
	// party it may one day show the message to, who verifies it then.
	// Only for kinds whose one sender is a trusted (crash-only) node — the
	// tag proves the sender sealed these bytes, and only the sender's
	// honesty makes what it sealed a signature — or whose receivers that
	// skip the signature neither vote on the message nor vouch for it
	// (Peacock's passive nodes and the PRE-PREPARE; a proxy, which does
	// vouch for it, verifies the signature after the seal).
	AuthSealed
	// AuthNone kinds carry nothing from the sending replica: either the
	// mode never sends the kind (it is dropped on receipt) or the content
	// vouches for itself (a client request, relayed or not, under the
	// client's own authenticator or signature).
	AuthNone
)

// Sign stamps m with this replica's identity and signature.
func (e *Engine) Sign(m *message.Message) {
	m.From = e.id
	m.Sig = e.suite.Sign(crypto.ReplicaPrincipal(int(e.id)), m.SignedBytes())
}

// SignRecord stamps a Signed evidence record.
func (e *Engine) SignRecord(s *message.Signed) {
	s.From = e.id
	s.Sig = e.suite.Sign(crypto.ReplicaPrincipal(int(e.id)), s.SignedBytes())
}

// Verify checks m's signature against its claimed sender.
func (e *Engine) Verify(m *message.Message) bool {
	return e.suite.Verify(crypto.ReplicaPrincipal(int(m.From)), m.SignedBytes(), m.Sig)
}

// VerifyRecord checks a Signed evidence record.
func (e *Engine) VerifyRecord(s *message.Signed) bool {
	return e.suite.Verify(crypto.ReplicaPrincipal(int(s.From)), s.SignedBytes(), s.Sig)
}

// Authentic checks an agreement message, given as its Record, the way
// the calling engine's table says its kind is authenticated: a signature
// by s.From, s.From's tag for this replica in the authenticator, or —
// sealed — that tag over the tuple and the signature in front of it. An
// authentic sealed record leaves with the signature alone in Sig, the
// form it is logged, journaled and exported in.
func (e *Engine) Authentic(s *message.Signed, how Auth) bool {
	from, self := crypto.ReplicaPrincipal(int(s.From)), crypto.ReplicaPrincipal(int(e.id))
	switch how {
	case AuthSigned:
		return e.VerifyRecord(s)
	case AuthTagged:
		return e.suite.VerifyTag(from, self, s.SignedBytes(), message.TagOf(s.Sig, e.id))
	case AuthSealed:
		sig, auth, ok := message.OpenSeal(s.Sig)
		if !ok || !e.suite.VerifyTag(from, self, s.SealedBytes(sig), message.TagOf(auth, e.id)) {
			return false
		}
		s.Sig = sig
		return true
	default:
		return false
	}
}

// AuthenticRequest checks the client's tag for this replica in auth, the
// authenticator a REQUEST or READ arrived under, over µ's signed bytes
// and the signature inside (message.Request.TaggedBytes). It is all a
// first-hand receiver checks of a client message; the signature travels
// on unverified, for whoever is shown µ second-hand. A no-op request
// (Client < 0) is no client's message and is never authentic.
func (e *Engine) AuthenticRequest(r *message.Request, auth []byte) bool {
	if r.Client < 0 {
		return false
	}
	return e.suite.VerifyTag(crypto.ClientPrincipal(int64(r.Client)), crypto.ReplicaPrincipal(int(e.id)),
		r.TaggedBytes(), message.TagOf(auth, e.id))
}

// VerifyRequest checks a client's signature on µ. No-op requests (the
// µ∅ of view changes, Client < 0) carry no signature and always verify.
func (e *Engine) VerifyRequest(r *message.Request) bool {
	if r.Client < 0 {
		return true
	}
	return e.suite.Verify(crypto.ClientPrincipal(int64(r.Client)), r.SignedBytes(), r.Sig)
}

// VerifyRequests checks every client signature in a slot payload, one
// by one, stopping at the first bad one. It is what a PBFT replica owes
// a proposal from a public node, and what a Peacock proxy owes the
// members it holds no good forwarded tag for (AuthenticForwarded); a
// trusted proposer's receivers take its word for the clients it
// admitted on their tags (AuthenticRequest). No-op requests
// (Client < 0) carry no signature and are skipped.
func (e *Engine) VerifyRequests(reqs []*message.Request) bool {
	for _, r := range reqs {
		if !e.VerifyRequest(r) {
			return false
		}
	}
	return true
}

// AuthenticForwarded checks a public proposer's payload for a voter
// that vouches for it: each member on this replica's tag in the client
// authenticator the proposer forwarded (Request.Auth), and, through
// VerifyRequests, the client's signature of each member whose tag is
// missing or bad. A relayed member comes with no authenticator, and a
// no-op with nothing to check.
func (e *Engine) AuthenticForwarded(reqs []*message.Request) bool {
	var untagged []*message.Request
	for _, r := range reqs {
		if len(r.Auth) == 0 || !e.AuthenticRequest(r, r.Auth) {
			untagged = append(untagged, r)
		}
	}
	return e.VerifyRequests(untagged)
}

// VerifyRecords checks a set of Signed evidence records — independent
// slots re-issued by a NEW-VIEW, or a checkpoint certificate — the same
// way, stopping at the first bad one. Every signed tuple is laid out in
// one reused buffer, so the check allocates nothing per record.
func (e *Engine) VerifyRecords(set []message.Signed) bool {
	buf := make([]byte, 0, message.SignedBytesSize)
	for i := range set {
		buf = set[i].AppendSignedBytes(buf[:0])
		if !e.suite.Verify(crypto.ReplicaPrincipal(int(set[i].From)), buf, set[i].Sig) {
			return false
		}
	}
	return true
}

// Send transmits m to a replica. A crashed or fail-stopped replica
// sends nothing.
func (e *Engine) Send(to ids.ReplicaID, m *message.Message) {
	e.post(m, []transport.Addr{transport.ReplicaAddr(to)})
}

// SendClient transmits m to a client.
func (e *Engine) SendClient(c ids.ClientID, m *message.Message) {
	e.post(m, []transport.Addr{transport.ClientAddr(c)})
}

// Loopback hands m to this replica's own inbox. Unlike Send it may be
// called from any goroutine: the frame never leaves the replica, so it
// bypasses the outbox.
func (e *Engine) Loopback(m *message.Message) {
	if e.isCrashed() {
		return
	}
	e.ep.Send(transport.ReplicaAddr(e.id), message.Marshal(m))
}

// SendClientTagged stamps m with this replica's identity and its tag for
// the client, and transmits it: a REPLY is read by that client alone.
func (e *Engine) SendClientTagged(c ids.ClientID, m *message.Message) {
	m.From = e.id
	tag := e.suite.Tag(crypto.ReplicaPrincipal(int(e.id)), crypto.ClientPrincipal(int64(c)), m.SignedBytes())
	m.Sig = tag[:]
	e.SendClient(c, m)
}

// MulticastTagged stamps the vote s with this replica's identity and
// multicasts it under an authenticator: one tag per destination, in one
// frame (see message.SetTag). s itself is left without a Sig — a tagged
// vote is no evidence, so there is nothing to keep.
func (e *Engine) MulticastTagged(to []ids.ReplicaID, s *message.Signed) {
	if e.silent() {
		return
	}
	s.From = e.id
	m := s.Wire()
	m.Sig = make([]byte, e.slots(to)*crypto.TagSize)
	e.fillTags(m.Sig, to, s.SignedBytes())
	e.Multicast(to, m)
}

// MulticastSealed multicasts the record s, which this replica has
// signed (SignRecord), under a seal: the signature, then one tag per
// destination over the tuple and that signature, in one frame (see
// message.Seal). s itself keeps the bare signature.
func (e *Engine) MulticastSealed(to []ids.ReplicaID, s *message.Signed) {
	if e.silent() {
		return
	}
	m := s.Wire()
	sealed, auth := message.Seal(s.Sig, e.slots(to))
	e.fillTags(auth, to, s.SealedBytes(s.Sig))
	m.Sig = sealed
	e.Multicast(to, m)
}

// slots is how many authenticator slots a multicast to the listed
// replicas needs: one per replica ID up to the highest it fills.
func (e *Engine) slots(to []ids.ReplicaID) int {
	n := 0
	for _, r := range to {
		if r != e.id {
			n = max(n, int(r)+1)
		}
	}
	return n
}

// fillTags stores this replica's tag over body for each listed replica
// but itself in that replica's slot of auth, which already spans them.
func (e *Engine) fillTags(auth []byte, to []ids.ReplicaID, body []byte) {
	self := crypto.ReplicaPrincipal(int(e.id))
	for _, r := range to {
		if r != e.id {
			message.SetTag(auth, r, e.suite.Tag(self, crypto.ReplicaPrincipal(int(r)), body))
		}
	}
}

// Multicast transmits m to every listed replica except the sender
// itself (protocols account for their own vote locally). The message is
// encoded once, and every destination shares that one frame.
func (e *Engine) Multicast(to []ids.ReplicaID, m *message.Message) {
	var buf [16]transport.Addr // a cluster this size lists its destinations without allocating
	dests := buf[:0]
	for _, r := range to {
		if r != e.id {
			dests = append(dests, transport.ReplicaAddr(r))
		}
	}
	e.post(m, dests)
}

// post encodes m once and sends the frame to each of to, in order — at
// once, or through the outbox while the journal holds records the frame
// may depend on. Only the flush that sends held frames syncs the
// journal, so a frame that finds it clean has nothing held to overtake.
// Frames are immutable: every destination shares the one slice, and
// Endpoint.Send may keep it.
func (e *Engine) post(m *message.Message, to []transport.Addr) {
	if len(to) == 0 || e.silent() {
		return
	}
	f := message.Marshal(m)
	if e.jr.Dirty() {
		e.out.hold(f, to)
		return
	}
	for _, a := range to {
		e.ep.Send(a, f)
	}
}
