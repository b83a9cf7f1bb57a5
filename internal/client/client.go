// Package client implements the client side of every protocol in this
// repository. A client signs requests with its own key, tracks the
// current primary through the mode and view numbers replicas echo in
// their REPLY messages (Section 5.1), retransmits by broadcasting after
// a timeout, and accepts a result only once the protocol-specific reply
// quorum is reached:
//
//   - SeeMoRe Lion: one reply from a trusted (private-cloud)
//     replica; after a retransmission, one trusted reply or m+1 matching
//     public replies.
//   - SeeMoRe Dog/Peacock: 2m+1 matching replies from distinct public
//     replicas; m+1 after a retransmission.
//   - CFT (Lion with no public cloud): one reply, as in Lion; every
//     replica is trusted.
//   - PBFT: f+1 matching replies.
//   - S-UpRight: m+1 matching replies.
//
// Session is that protocol as a sans-I/O state machine: it never reads
// a clock or touches an endpoint. Client drives one on the host clock
// and a transport endpoint; the deterministic simulation (internal/sim)
// drives the same Session on virtual time.
package client

//lint:file-allow clockcheck the Client loop feeds its Session the host clock and waits on a host timer by design; replicas never see these timestamps

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/transport"
)

// ErrTimeout is returned when a request exhausts its retries without
// reaching a reply quorum.
var ErrTimeout = errors.New("client: request timed out")

// ErrCanceled is returned by InvokeCancel when the caller's cancel
// channel closes before a reply quorum is reached. The request may
// still execute — cancellation abandons the wait, not the operation.
var ErrCanceled = errors.New("client: request canceled")

// errEndpointClosed reports a client whose transport endpoint shut down
// under it.
var errEndpointClosed = errors.New("client: endpoint closed")

// Policy decides when collected replies constitute a committed result.
// Implementations inspect only validated replies (signature checked,
// timestamp matched).
type Policy interface {
	// Primary returns the replicas to contact first for a fresh request.
	Primary() []ids.ReplicaID
	// All returns every replica (the retransmission broadcast set).
	All() []ids.ReplicaID
	// Done inspects the validated replies gathered so far and returns
	// the accepted result. retried reports whether the request has been
	// broadcast (which weakens the required quorum in SeeMoRe).
	Done(replies map[ids.ReplicaID]*message.Message, retried bool) ([]byte, bool)
	// Observe lets the policy update its primary belief from an accepted
	// reply set.
	Observe(replies map[ids.ReplicaID]*message.Message)
}

// Client issues requests and awaits reply quorums: a thin loop around a
// Session on the host clock and a transport endpoint. Not safe for
// concurrent use; run one Client per goroutine (the benchmarks do).
type Client struct {
	sess  *Session
	ep    transport.Endpoint
	timer *time.Timer // reused across ops; stopped between them
}

// New assembles a client from a policy with the default retry behavior
// (config.DefaultMaxRetries broadcasts at a fixed Timing.ClientRetry
// interval).
func New(id ids.ClientID, suite crypto.Suite, network transport.Network, policy Policy, timing config.Timing) *Client {
	return NewWithConfig(id, suite, network, policy, timing, config.Client{})
}

// NewWithConfig assembles a client with explicit retry knobs; the zero
// cc is identical to New.
func NewWithConfig(id ids.ClientID, suite crypto.Suite, network transport.Network, policy Policy, timing config.Timing, cc config.Client) *Client {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	return &Client{
		sess:  NewSession(id, suite, policy, timing, cc),
		ep:    network.Endpoint(transport.ClientAddr(id)),
		timer: timer,
	}
}

// ID returns the client identity.
func (c *Client) ID() ids.ClientID { return c.sess.id }

// Timestamp returns the timestamp of the last issued request (or the
// initial seed before the first one).
func (c *Client) Timestamp() uint64 { return c.sess.ts }

// AllocateTimestamp consumes and returns the next request timestamp
// without issuing a request. The transaction coordinator mints
// transaction ids from it, so txn sequence numbers and request
// timestamps share one monotonic counter — seeding
// config.Client.InitialTimestamp above a previous run therefore makes
// both fresh, with no separate rule for transaction ids.
func (c *Client) AllocateTimestamp() uint64 {
	c.sess.ts++
	return c.sess.ts
}

// Close detaches the client's endpoint.
func (c *Client) Close() { c.ep.Close() }

// Invoke executes one state-machine operation and blocks until the
// reply quorum accepts a result or the retry budget is exhausted.
func (c *Client) Invoke(op []byte) ([]byte, error) {
	return c.InvokeCancel(op, nil)
}

// InvokeCancel is Invoke with an early-exit signal: when cancel closes,
// the wait is abandoned with ErrCanceled (a nil channel never fires and
// is equivalent to Invoke). The router's fan-out calls use it so one
// group's failure stops the sibling waits immediately instead of
// letting each run out its own retry budget.
func (c *Client) InvokeCancel(op []byte, cancel <-chan struct{}) ([]byte, error) {
	return c.do(op, ReadOptions{}, cancel)
}

// do runs one op on the caller's goroutine. The Session decides
// everything; this loop only delivers its frames, reads the clock and
// waits for the next envelope, the deadline or cancel.
func (c *Client) do(op []byte, opts ReadOptions, cancel <-chan struct{}) ([]byte, error) {
	defer c.stopTimer()
	now := time.Now()
	st := c.sess.Start(op, opts, now)
	var armed time.Time
	for {
		for _, r := range st.To {
			c.ep.Send(transport.ReplicaAddr(r), st.Frame)
		}
		if o := st.Outcome; o != nil {
			return o.Result, o.Err
		}
		if !st.Deadline.Equal(armed) {
			c.stopTimer()
			c.timer.Reset(st.Deadline.Sub(now))
			armed = st.Deadline
		}
		select {
		case <-cancel:
			return nil, fmt.Errorf("%w (client %d, ts %d)", ErrCanceled, c.sess.id, c.sess.ts)
		case env, ok := <-c.ep.Inbox():
			if !ok {
				return nil, errEndpointClosed
			}
			now = time.Now()
			st = c.sess.OnEnvelope(env, now)
		case <-c.timer.C:
			now, armed = time.Now(), time.Time{}
			st = c.sess.OnTimer(now)
		}
	}
}

// stopTimer stops the reused timer and drains a fire nobody received,
// so the next Reset starts clean.
func (c *Client) stopTimer() {
	if !c.timer.Stop() {
		select {
		case <-c.timer.C:
		default:
		}
	}
}

// ---------------------------------------------------------------------------
// SeeMoRe policy

// SeeMoRePolicy tracks the mode and view of a SeeMoRe cluster and
// applies the per-mode reply quorums of Sections 5.1–5.3.
type SeeMoRePolicy struct {
	mb   ids.Membership
	mode ids.Mode
	view ids.View
}

// NewSeeMoRePolicy starts with the cluster's initial mode at view 0.
func NewSeeMoRePolicy(mb ids.Membership, initialMode ids.Mode) *SeeMoRePolicy {
	return &SeeMoRePolicy{mb: mb, mode: initialMode}
}

// Primary implements Policy.
func (p *SeeMoRePolicy) Primary() []ids.ReplicaID {
	return []ids.ReplicaID{p.mb.Primary(p.mode, p.view)}
}

// All implements Policy.
func (p *SeeMoRePolicy) All() []ids.ReplicaID { return p.mb.All() }

// Done implements Policy.
func (p *SeeMoRePolicy) Done(replies map[ids.ReplicaID]*message.Message, retried bool) ([]byte, bool) {
	// One reply from a trusted replica is always definitive: trusted
	// nodes never lie, and they only reply after execution. This covers
	// the Lion normal case and the "reply from the private cloud" retry
	// acceptance rule.
	for from, m := range replies {
		if p.mb.IsTrusted(from) {
			return m.Result, true
		}
	}
	// Otherwise count matching public replies: 2m+1 normally (Dog and
	// Peacock), m+1 after a retransmission.
	need := 2*p.mb.M() + 1
	if retried {
		need = p.mb.M() + 1
	}
	return matching(replies, need, func(from ids.ReplicaID) bool { return p.mb.IsUntrusted(from) })
}

// Observe implements Policy: adopt the mode and view echoed by the
// accepted replies so the next request goes straight to the current
// primary. A single trusted replica's word is adopted outright;
// otherwise the (mode, view) pair must be echoed by m+1 public replies
// so at least one correct replica vouches for it.
func (p *SeeMoRePolicy) Observe(replies map[ids.ReplicaID]*message.Message) {
	// Iterate trusted replies deterministically and adopt the freshest:
	// map-iteration order must never decide which belief wins, or the
	// deterministic simulation cannot reproduce client schedules.
	var trusted *message.Message
	for from, m := range replies {
		if p.mb.IsTrusted(from) && m.Mode.Valid() {
			if trusted == nil || m.View > trusted.View ||
				(m.View == trusted.View && m.From < trusted.From) {
				trusted = m
			}
		}
	}
	if trusted != nil {
		if trusted.View > p.view || (trusted.View == p.view && trusted.Mode != p.mode) {
			p.view, p.mode = trusted.View, trusted.Mode
		}
		return
	}
	type mv struct {
		mode ids.Mode
		view ids.View
	}
	counts := make(map[mv]int)
	for from, m := range replies {
		if p.mb.IsUntrusted(from) && m.Mode.Valid() {
			counts[mv{m.Mode, m.View}]++
		}
	}
	// Among credible (mode, view) pairs, adopt the highest view (mode
	// breaks the tie) rather than whichever the map yields last.
	var best mv
	found := false
	for k, n := range counts {
		if n >= p.mb.M()+1 && k.view >= p.view {
			if !found || k.view > best.view || (k.view == best.view && k.mode > best.mode) {
				best, found = k, true
			}
		}
	}
	if found {
		p.view, p.mode = best.view, best.mode
	}
}

// LeaseTarget implements ReadPolicy: in the trusted-primary modes the
// primary is the lease holder; the Peacock primary is untrusted, so no
// replica may serve a linearizable read on its own say-so.
func (p *SeeMoRePolicy) LeaseTarget() (ids.ReplicaID, bool) {
	if p.mode == ids.Peacock {
		return 0, false
	}
	return p.mb.Primary(p.mode, p.view), true
}

// StaleTargets implements ReadPolicy: only a trusted (private-cloud)
// replica's lone word on its executed prefix is worth anything.
func (p *SeeMoRePolicy) StaleTargets() []ids.ReplicaID { return p.mb.Trusted() }

// Mode returns the client's current belief of the cluster mode.
func (p *SeeMoRePolicy) Mode() ids.Mode { return p.mode }

// View returns the client's current belief of the view.
func (p *SeeMoRePolicy) View() ids.View { return p.view }

// ---------------------------------------------------------------------------
// Generic quorum policy (baselines)

// GenericPolicy serves the BFT baselines: a fixed replica set, the
// primary v mod n, and one flat matching-reply quorum.
type GenericPolicy struct {
	replicas []ids.ReplicaID
	quorum   int
	view     ids.View
}

// NewGenericPolicy builds a BFT-baseline reply policy over n replicas.
// quorum is the matching-reply count required, before and after
// retransmission alike.
func NewGenericPolicy(n, quorum int) *GenericPolicy {
	rs := make([]ids.ReplicaID, n)
	for i := range rs {
		rs[i] = ids.ReplicaID(i)
	}
	return &GenericPolicy{replicas: rs, quorum: quorum}
}

// Primary implements Policy.
func (p *GenericPolicy) Primary() []ids.ReplicaID {
	return []ids.ReplicaID{ids.ReplicaID(int(p.view % ids.View(len(p.replicas))))}
}

// All implements Policy.
func (p *GenericPolicy) All() []ids.ReplicaID { return p.replicas }

// Done implements Policy.
func (p *GenericPolicy) Done(replies map[ids.ReplicaID]*message.Message, _ bool) ([]byte, bool) {
	return matching(replies, p.quorum, func(ids.ReplicaID) bool { return true })
}

// Observe implements Policy: follow the quorum-th highest view echoed
// by the reply set. quorum replies (f+1 in PBFT, m+1 in S-UpRight)
// include a correct replica, so one faulty replica cannot steer the
// client to a primary of its choosing with an inflated view.
func (p *GenericPolicy) Observe(replies map[ids.ReplicaID]*message.Message) {
	if len(replies) < p.quorum {
		return
	}
	views := make([]ids.View, 0, len(replies))
	for _, m := range replies {
		views = append(views, m.View)
	}
	slices.Sort(views)
	p.view = max(p.view, views[len(views)-p.quorum])
}

// matching returns a result echoed by at least need eligible replicas.
func matching(replies map[ids.ReplicaID]*message.Message, need int, eligible func(ids.ReplicaID) bool) ([]byte, bool) {
	counts := make(map[string]int, len(replies))
	for from, m := range replies {
		if !eligible(from) {
			continue
		}
		k := string(m.Result)
		counts[k]++
		if counts[k] >= need {
			return m.Result, true
		}
	}
	return nil, false
}
