package cluster

import (
	"sync/atomic"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/replica"
	"repro/internal/transport"
)

// Behavior enumerates the Byzantine behaviours the harness can inject
// into public-cloud replicas. Each models a capability of the Section-3
// adversary: the node holds a valid key and participates in the
// protocol, but misuses it.
type Behavior int

const (
	// BehaviorNone is an honest replica.
	BehaviorNone Behavior = iota
	// BehaviorSilent drops every outgoing message: an unresponsive
	// traitor, indistinguishable from a crash to its peers.
	BehaviorSilent
	// BehaviorCorrupt re-authenticates every agreement vote with a
	// corrupted digest: authentic, protocol-consistent lies that honest
	// quorum intersection must outvote.
	BehaviorCorrupt
	// BehaviorEquivocate sends the true vote to half its peers and a
	// corrupted-but-authentic vote to the other half: the classic
	// split-vote attack.
	BehaviorEquivocate
	// BehaviorEquivocatePrimary is the equivocating-leader attack: when
	// this node proposes a slot (PRE-PREPARE, or a Lion/Dog PREPARE), it
	// sends the true proposal to half the peers and a conflicting one —
	// same view and sequence number, but a µ∅ no-op payload with a
	// matching recomputed digest and a fresh valid signature — to the
	// other half. Honest quorum intersection must keep the two halves
	// from both committing.
	BehaviorEquivocatePrimary
	// BehaviorReplayStale records every agreement vote this node sends
	// and, after it observes a view change (its own outgoing view number
	// rising), replays the recorded votes from the dead view alongside
	// each new send. Honest replicas must discard votes stamped with a
	// stale view instead of counting them toward current quorums.
	BehaviorReplayStale
	// BehaviorCorruptState flips bytes in outgoing STATE-REPLY snapshot
	// payloads and re-signs the message, so the signature verifies and
	// only the snapshot-digest-vs-checkpoint-certificate check can save
	// the receiver from installing a forged state.
	BehaviorCorruptState
	// BehaviorImpersonate is the attack an unauthenticated link handshake
	// allows (TCPNode's hello is an unchecked claim): beside every
	// agreement vote it sends, this node opens a link under each other
	// replica's name and sends the same vote as that replica — private
	// ones included — authenticated with the only keys it holds, its
	// own. A forged ACCEPT or COMMIT quorum would commit a slot no quorum
	// voted for; receivers must reject every copy on its tag (or
	// signature), which this node cannot produce for a pair it is not in.
	// Where it sends an ACCEPT there is a trusted proposer whose PREPARE
	// and COMMIT are accepted on a seal alone, so it plays that part too:
	// for each slot it accepts it sends every other replica, under every
	// other name, a sealed PREPARE and COMMIT of its own making for the
	// next. Where it sends a Peacock PREPARE vote there are passive nodes
	// that take the primary's PRE-PREPARE on a seal alone: for each slot
	// it votes on it sends each of them, under the primary's name, a
	// sealed PRE-PREPARE of its own making for the next.
	BehaviorImpersonate
)

// String implements fmt.Stringer.
func (b Behavior) String() string {
	switch b {
	case BehaviorNone:
		return "honest"
	case BehaviorSilent:
		return "silent"
	case BehaviorCorrupt:
		return "corrupt"
	case BehaviorEquivocate:
		return "equivocate"
	case BehaviorEquivocatePrimary:
		return "equivocate-primary"
	case BehaviorReplayStale:
		return "replay-stale"
	case BehaviorCorruptState:
		return "corrupt-state"
	case BehaviorImpersonate:
		return "impersonate"
	default:
		return "unknown"
	}
}

// agreementKinds are the message kinds whose digests a Byzantine node
// profitably lies about.
func isAgreementKind(k message.Kind) bool {
	switch k {
	case message.KindPrePrepare, message.KindPrepare, message.KindAccept,
		message.KindCommit, message.KindInform, message.KindCheckpoint:
		return true
	default:
		return false
	}
}

// Adversary wraps a transport.Network and hands out mutating endpoints
// for the replicas listed in behaviors; every other address gets the
// inner network's endpoint untouched.
type Adversary struct {
	inner     transport.Network
	suite     crypto.Suite
	replicas  int
	mb        ids.Membership // SeeMoRe's; the zero value for the baselines
	behaviors map[ids.ReplicaID]Behavior
	attacks   atomic.Uint64
}

// WrapByzantine installs the configured misbehaviours over a transport
// carrying replicas 0..replicas-1 — the wrapper New applies internally,
// exported for harnesses (internal/sim) that build their own networks
// and nodes but want the identical adversary. mb is the SeeMoRe
// membership, which tells an impersonator whose name to take and whom
// to send a forged Peacock proposal to; the baselines pass the zero
// Membership. Each misbehaving endpoint authenticates through a view of
// suite restricted to its own replica: an attack may misuse the keys a
// real node would hold, never borrow another's.
func WrapByzantine(inner transport.Network, suite crypto.Suite, replicas int, mb ids.Membership, behaviors map[ids.ReplicaID]Behavior) *Adversary {
	return &Adversary{inner: inner, suite: suite, replicas: replicas, mb: mb, behaviors: behaviors}
}

// Attacks counts the frames the adversary altered, forged or replayed —
// what an honest node would not have sent. Tests assert it is non-zero
// so a Byzantine case cannot pass by never attacking.
func (n *Adversary) Attacks() uint64 { return n.attacks.Load() }

// Endpoint implements transport.Network.
func (n *Adversary) Endpoint(a transport.Addr) transport.Endpoint {
	ep := n.inner.Endpoint(a)
	if a.IsClient() {
		return ep
	}
	b, ok := n.behaviors[a.Replica()]
	if !ok || b == BehaviorNone {
		return ep
	}
	return &byzEndpoint{
		Endpoint: ep, net: n, behavior: b, self: a.Replica(),
		suite: crypto.Restrict(n.suite, crypto.ReplicaPrincipal(int(a.Replica()))),
	}
}

// Close implements transport.Network.
func (n *Adversary) Close() { n.inner.Close() }

// all lists the replicas the network carries.
func (n *Adversary) all() []ids.ReplicaID {
	out := make([]ids.ReplicaID, n.replicas)
	for i := range out {
		out[i] = ids.ReplicaID(i)
	}
	return out
}

type byzEndpoint struct {
	transport.Endpoint
	net      *Adversary
	behavior Behavior
	suite    crypto.Suite // restricted to self
	self     ids.ReplicaID
	sends    uint64

	// Replay-stale state: votes recorded in the highest view seen so
	// far, replayed once the view moves past them.
	staleView  ids.View
	staleVotes [][]byte

	// usurped is the last (view, slot) the impersonator forged the
	// proposer's sealed messages for: an ACCEPT or PREPARE multicast is
	// several sends, one forgery.
	usurped [2]uint64
}

// maxStaleVotes bounds the replay buffer; an adversary with bounded
// memory is also what keeps the attack's traffic bounded.
const maxStaleVotes = 32

// Send implements transport.Endpoint with the configured misbehaviour.
func (e *byzEndpoint) Send(to transport.Addr, frame []byte) {
	e.sends++
	switch e.behavior {
	case BehaviorSilent:
		return
	case BehaviorCorrupt:
		e.sendRewritten(to, frame, e.corrupt)
	case BehaviorEquivocate:
		// Alternate truthful and corrupted frames across sends so every
		// peer population sees a mix — the strongest generic split the
		// harness can produce without protocol knowledge.
		if e.sends%2 == 0 {
			e.sendRewritten(to, frame, e.corrupt)
			return
		}
		e.Endpoint.Send(to, frame)
	case BehaviorEquivocatePrimary:
		// Split the peer set by destination parity so each half sees a
		// self-consistent stream of (conflicting) proposals.
		if !to.IsClient() && to.Replica()%2 == 1 {
			e.sendRewritten(to, frame, e.forgeProposal)
			return
		}
		e.Endpoint.Send(to, frame)
	case BehaviorReplayStale:
		e.replayStale(to, frame)
		e.Endpoint.Send(to, frame)
	case BehaviorCorruptState:
		e.sendRewritten(to, frame, e.corruptState)
	case BehaviorImpersonate:
		e.Endpoint.Send(to, frame)
		e.impersonate(to, frame)
	default:
		e.Endpoint.Send(to, frame)
	}
}

// sendRewritten sends what rewrite makes of the frame, or the frame
// itself when rewrite has no use for it.
func (e *byzEndpoint) sendRewritten(to transport.Addr, frame []byte, rewrite func(transport.Addr, []byte) ([]byte, bool)) {
	if lie, ok := rewrite(to, frame); ok {
		e.net.attacks.Add(1)
		frame = lie
	}
	e.Endpoint.Send(to, frame)
}

// authOf reports how the agreement message this node is sending is
// authenticated: under its signature, under a seal around that
// signature, or — neither being there — under an authenticator.
func (e *byzEndpoint) authOf(m *message.Message) replica.Auth {
	self, body := crypto.ReplicaPrincipal(int(e.self)), m.Record().SignedBytes()
	if e.suite.Verify(self, body, m.Sig) {
		return replica.AuthSigned
	}
	if sig, _, ok := message.OpenSeal(m.Sig); ok && e.suite.Verify(self, body, sig) {
		return replica.AuthSealed
	}
	return replica.AuthTagged
}

// reauth authenticates a rewritten agreement message bound for to the
// way its honest original was: under this node's signature, under that
// signature sealed with its tag for to, or under the tag alone. Each is
// all a real traitor could produce, whatever sender the message now
// claims.
func (e *byzEndpoint) reauth(m *message.Message, to transport.Addr, how replica.Auth) {
	self, peer, s := crypto.ReplicaPrincipal(int(e.self)), crypto.ReplicaPrincipal(int(to.Replica())), m.Record()
	switch how {
	case replica.AuthSigned:
		m.Sig = e.suite.Sign(self, s.SignedBytes())
	case replica.AuthSealed:
		sig := e.suite.Sign(self, s.SignedBytes())
		sealed, auth := message.Seal(sig, int(to.Replica())+1)
		message.SetTag(auth, to.Replica(), e.suite.Tag(self, peer, s.SealedBytes(sig)))
		m.Sig = sealed
	default:
		m.Sig = message.SetTag(nil, to.Replica(), e.suite.Tag(self, peer, s.SignedBytes()))
	}
}

// sendAs sends m to to over a link opened under the name m claims.
func (e *byzEndpoint) sendAs(to transport.Addr, m *message.Message) {
	e.net.attacks.Add(1)
	e.net.inner.Endpoint(transport.ReplicaAddr(m.From)).Send(to, message.Marshal(m))
}

// impersonate re-sends an agreement vote this node originated once per
// other replica, claiming to be that replica, over a link opened under
// its name. An ACCEPT, or a Peacock PREPARE vote, also sets off usurp,
// once per slot.
func (e *byzEndpoint) impersonate(to transport.Addr, frame []byte) {
	m, err := message.Unmarshal(frame)
	if err != nil || to.IsClient() || m.From != e.self || !isAgreementKind(m.Kind) {
		return
	}
	switch slot := [2]uint64{uint64(m.View), m.Seq}; {
	case slot == e.usurped:
	case m.Kind == message.KindAccept:
		e.usurped = slot
		all := e.net.all()
		e.usurp(m.View, m.Seq+1, []message.Kind{message.KindPrepare, message.KindCommit}, all, all)
	case m.Kind == message.KindPrepare && e.net.mb.IsUntrusted(e.self):
		// A public node's PREPARE is a Peacock vote; the passive nodes are
		// the replicas that are not proxies of the view.
		var passive []ids.ReplicaID
		for _, w := range e.net.all() {
			if !e.net.mb.IsProxy(ids.Peacock, m.View, w) {
				passive = append(passive, w)
			}
		}
		e.usurped = slot
		e.usurp(m.View, m.Seq+1, []message.Kind{message.KindPrePrepare},
			[]ids.ReplicaID{e.net.mb.Primary(ids.Peacock, m.View)}, passive)
	}
	how := e.authOf(m)
	for v := ids.ReplicaID(0); int(v) < e.net.replicas; v++ {
		if v == e.self || v == to.Replica() {
			continue
		}
		m.From = v
		e.reauth(m, to, how)
		e.sendAs(to, m)
	}
}

// usurp plays a proposer whose messages some receivers take on a seal
// alone. For the slot after the one voted on — which the primary has yet
// to fill, so a forgery would be logged first — it sends each of kinds,
// under each of names, to each of to but the name's own holder and this
// node: after an ACCEPT, the trusted primary's PREPARE and COMMIT under
// every other name to every other replica; after a Peacock PREPARE vote,
// the primary's PRE-PREPARE to the passive nodes. The payload is a µ∅
// no-op that matches its digest, so a receiver has nothing to object to
// but the seal, which this node can only make of its own signature and
// its own pair key.
func (e *byzEndpoint) usurp(view ids.View, seq uint64, kinds []message.Kind, names, to []ids.ReplicaID) {
	noop := &message.Request{Client: -1, Timestamp: seq}
	d := noop.Digest()
	for _, kind := range kinds {
		for _, v := range names {
			for _, w := range to {
				if v == e.self || w == e.self || v == w {
					continue
				}
				m := &message.Message{Kind: kind, From: v, View: view, Seq: seq, Digest: d, Payload: []*message.Request{noop}}
				e.reauth(m, transport.ReplicaAddr(w), replica.AuthSealed)
				e.sendAs(transport.ReplicaAddr(w), m)
			}
		}
	}
}

// forgeProposal rewrites a proposal this node originated into a
// conflicting proposal for the same slot: same kind, view and sequence
// number, but a µ∅ no-op payload, the matching recomputed digest and a
// fresh valid signature (sealed, if the original was) — over the Record
// tuple, like every agreement message's: signed over anything else the
// forgery dies at authentication and the attack shrinks to a primary
// silent toward half its peers. Non-proposal frames pass through
// untouched.
func (e *byzEndpoint) forgeProposal(to transport.Addr, frame []byte) ([]byte, bool) {
	m, err := message.Unmarshal(frame)
	if err != nil || m.From != e.self {
		return nil, false
	}
	switch m.Kind {
	case message.KindPrePrepare, message.KindPrepare:
	default:
		return nil, false
	}
	if len(m.Payload) == 0 {
		return nil, false // digest-only relay, nothing to equivocate about
	}
	// µ∅ no-ops (Client < 0) carry no client signature and verify
	// everywhere, so the forged proposal is structurally valid; stamping
	// the slot's sequence number as the timestamp keeps distinct forged
	// slots distinct.
	how := e.authOf(m)
	noop := &message.Request{Client: -1, Timestamp: m.Seq}
	m.Payload = []*message.Request{noop}
	m.Digest = noop.Digest()
	e.reauth(m, to, how)
	return message.Marshal(m), true
}

// replayStale records outgoing agreement votes and, when this node's
// own view number rises (it observed a view change), re-sends the votes
// recorded in the dead view to the current destination. The replayed
// frames are bit-exact originals — validly signed, just stamped with a
// view that is no longer current.
func (e *byzEndpoint) replayStale(to transport.Addr, frame []byte) {
	m, err := message.Unmarshal(frame)
	if err != nil || m.From != e.self || !isAgreementKind(m.Kind) {
		return
	}
	switch {
	case m.View > e.staleView:
		// View moved: everything recorded below is now stale — replay it
		// before adopting the new view as the recording target.
		for _, old := range e.staleVotes {
			e.net.attacks.Add(1)
			e.Endpoint.Send(to, old)
		}
		e.staleView = m.View
		e.staleVotes = e.staleVotes[:0]
		fallthrough
	case m.View == e.staleView:
		if len(e.staleVotes) < maxStaleVotes {
			e.staleVotes = append(e.staleVotes, frame) // frames are immutable, so it may be kept
		}
	}
}

// corruptState flips bytes in an outgoing STATE-REPLY snapshot payload
// and re-signs the whole message, leaving the checkpoint certificate
// intact: the signature verifies, so only the receiver's
// snapshot-digest-vs-certificate check stands between it and installing
// forged state.
func (e *byzEndpoint) corruptState(_ transport.Addr, frame []byte) ([]byte, bool) {
	m, err := message.Unmarshal(frame)
	if err != nil || m.Kind != message.KindStateReply || m.From != e.self || len(m.Result) == 0 {
		return nil, false
	}
	m.Result[0] ^= 0xFF
	m.Sig = e.suite.Sign(crypto.ReplicaPrincipal(int(e.self)), m.SignedBytes())
	return message.Marshal(m), true
}

// corrupt rewrites an agreement message with a flipped digest,
// authenticated afresh under the traitor's own keys, so the receiver
// takes the lie for this node's word. Messages it cannot meaningfully
// corrupt (client requests, view management) pass through.
func (e *byzEndpoint) corrupt(to transport.Addr, frame []byte) ([]byte, bool) {
	m, err := message.Unmarshal(frame)
	if err != nil || to.IsClient() || !isAgreementKind(m.Kind) || m.From != e.self {
		return nil, false
	}
	how := e.authOf(m)
	m.Digest[0] ^= 0xFF
	m.Payload = nil // a corrupted digest cannot keep a matching body
	e.reauth(m, to, how)
	return message.Marshal(m), true
}
