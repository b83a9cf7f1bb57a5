package client

import (
	"time"

	"repro/internal/ids"
	"repro/internal/message"
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

// ObservedFloor returns the monotonic read floor: the highest executed
// watermark vouching for any result this client accepted. Tests assert
// it never goes backwards.
func (c *Client) ObservedFloor() uint64 { return c.sess.readFloor }

// Read executes a read-only state-machine operation at the requested
// consistency level. Linearizable reads — and reads against a policy
// without the ReadPolicy capability — are ordered exactly like Invoke.
// Leased reads go to the lease holder; Stale reads go to a trusted
// follower, rotating for load spreading. Whenever the fast path stalls
// (an expired lease, a partitioned or lagging replica, a too-stale
// answer), the read falls back to full consensus ordering, so every
// call eventually returns a correct result or times out like Invoke.
func (c *Client) Read(op []byte, opts ReadOptions) ([]byte, error) {
	return c.do(op, opts, nil)
}
