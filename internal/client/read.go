package client

//lint:file-allow clockcheck MaxStaleness bounds and retry deadlines are real-time client contracts measured on the host clock

import (
	"time"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/transport"
)

// Consistency re-exports the wire-level read consistency levels under
// the names callers use in ReadOptions.
type Consistency = message.Consistency

const (
	// Linearizable orders the read through consensus like any write.
	Linearizable Consistency = message.ConsistencyLinearizable
	// Leased serves the read locally at a trusted-mode primary holding
	// a quorum-acknowledged leader lease — still linearizable, but with
	// no slot allocated and no agreement round.
	Leased Consistency = message.ConsistencyLeased
	// Stale serves the read from any trusted replica's executed prefix
	// with no coordination at all, bounded by ReadOptions.MaxStaleness
	// and this client's own read-your-writes monotonicity.
	Stale Consistency = message.ConsistencyStale
)

// ReadOptions selects how a read is served.
type ReadOptions struct {
	// Consistency picks the serving path; the zero value is
	// Linearizable, which behaves exactly like Invoke.
	Consistency Consistency
	// MaxStaleness bounds a Stale read against this client's knowledge:
	// the result must be at least as fresh as every watermark the
	// client had observed MaxStaleness ago. Zero means only the
	// monotonic read-your-writes floor applies.
	MaxStaleness time.Duration
}

// ReadPolicy is the optional capability a Policy implements when its
// protocol can serve fast-path reads. Policies without it (the
// baselines — their replicas do not speak READ) silently degrade every
// read to Linearizable.
type ReadPolicy interface {
	// LeaseTarget returns the replica believed to hold the read lease,
	// or false when the current mode has no trusted lease holder.
	LeaseTarget() (ids.ReplicaID, bool)
	// StaleTargets returns the replicas whose lone stale reply the
	// client may trust.
	StaleTargets() []ids.ReplicaID
}

// wmObs is one point of the client's freshness knowledge: some replica
// had executed up to wm when the client observed it at time at. The log
// stays strictly increasing in wm and non-decreasing in time.
type wmObs struct {
	wm uint64
	at time.Time
}

// maxWatermarkLog bounds the freshness log; dropping the oldest entry
// can only weaken (never violate) the staleness bound it backs.
const maxWatermarkLog = 256

// noteWatermark records freshness knowledge from any validated reply,
// accepted or not.
func (c *Client) noteWatermark(wm uint64, now time.Time) {
	if wm == 0 {
		return
	}
	if n := len(c.wmLog); n > 0 && c.wmLog[n-1].wm >= wm {
		return // dominated: an at-least-as-fresh observation is already older
	}
	c.wmLog = append(c.wmLog, wmObs{wm: wm, at: now})
	if len(c.wmLog) > maxWatermarkLog {
		c.wmLog = c.wmLog[1:]
	}
}

// requiredWatermark returns the freshest watermark the client had
// observed at or before cutoff — the floor a MaxStaleness bound imposes
// — and prunes the entries that precede it (every later computation's
// cutoff only moves forward).
func (c *Client) requiredWatermark(cutoff time.Time) uint64 {
	idx := -1
	for i, o := range c.wmLog {
		if o.at.After(cutoff) {
			break
		}
		idx = i
	}
	if idx < 0 {
		return 0
	}
	c.wmLog = c.wmLog[idx:]
	return c.wmLog[0].wm
}

// advanceFloor raises the monotonic read floor to the freshest
// watermark vouching for the accepted result.
func (c *Client) advanceFloor(replies map[ids.ReplicaID]*message.Message, result []byte) {
	for _, m := range replies {
		if string(m.Result) == string(result) && m.Watermark > c.readFloor {
			c.readFloor = m.Watermark
		}
	}
}

// ObservedFloor returns the monotonic read floor: the highest executed
// watermark vouching for any result this client accepted. Tests assert
// it never goes backwards.
func (c *Client) ObservedFloor() uint64 { return c.readFloor }

// Read executes a read-only state-machine operation at the requested
// consistency level. Linearizable reads — and reads against a policy
// without the ReadPolicy capability — go through Invoke unchanged.
// Leased reads go to the lease holder; Stale reads go to a trusted
// follower, rotating for load spreading. Whenever the fast path stalls
// (an expired lease, a partitioned or lagging replica, a too-stale
// answer), the read falls back to full consensus ordering, so every
// call eventually returns a correct result or times out like Invoke.
func (c *Client) Read(op []byte, opts ReadOptions) ([]byte, error) {
	rp, capable := c.policy.(ReadPolicy)
	if !capable || opts.Consistency == Linearizable || !opts.Consistency.Valid() {
		return c.Invoke(op)
	}
	var targets []ids.ReplicaID
	switch opts.Consistency {
	case Leased:
		t, ok := rp.LeaseTarget()
		if !ok {
			return c.Invoke(op)
		}
		targets = []ids.ReplicaID{t}
	case Stale:
		all := rp.StaleTargets()
		if len(all) == 0 {
			return c.Invoke(op)
		}
		targets = []ids.ReplicaID{all[c.staleRR%len(all)]}
		c.staleRR++
	}

	c.ts++
	req := &message.Request{Op: op, Timestamp: c.ts, Client: c.id}
	req.Sig = c.suite.Sign(crypto.ClientPrincipal(int64(c.id)), req.SignedBytes())
	wire := message.Marshal(&message.Message{
		Kind:        message.KindRead,
		From:        -1,
		Request:     req,
		Consistency: opts.Consistency,
		Sig:         message.AuthenticateRequest(c.suite, req, c.policy.All()),
	})
	send := func(to []ids.ReplicaID) {
		for _, r := range to {
			c.ep.Send(transport.ReplicaAddr(r), wire)
		}
	}
	send(targets)

	// The acceptance floor for stale replies: read-your-writes
	// monotonicity always, plus the MaxStaleness-derived freshness bound.
	floor := c.readFloor
	if opts.Consistency == Stale && opts.MaxStaleness > 0 {
		if need := c.requiredWatermark(time.Now().Add(-opts.MaxStaleness)); need > floor {
			floor = need
		}
	}

	replies := make(map[ids.ReplicaID]*message.Message)
	retried := false
	deadline := time.NewTimer(c.retry)
	defer deadline.Stop()
	for {
		select {
		case env, ok := <-c.ep.Inbox():
			if !ok {
				return nil, errEndpointClosed
			}
			rep := c.validReply(env, c.ts)
			if rep == nil {
				continue
			}
			c.noteWatermark(rep.Watermark, time.Now())
			if opts.Consistency == Stale && rep.Watermark < floor {
				continue // too stale for this client; another replica may do
			}
			replies[rep.From] = rep
			if result, done := c.policy.Done(replies, retried); done {
				c.policy.Observe(replies)
				c.advanceFloor(replies, result)
				return result, nil
			}
		case <-deadline.C:
			if opts.Consistency == Stale && !retried {
				// One follower stalled or lagged: ask every eligible one
				// before paying for consensus.
				retried = true
				send(rp.StaleTargets())
				deadline.Reset(c.retry)
				continue
			}
			// Fast path unavailable (expired lease, partitioned holder,
			// everyone too stale): order the read like a write.
			return c.Invoke(op)
		}
	}
}
