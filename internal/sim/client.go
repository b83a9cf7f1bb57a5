package sim

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/statemachine"
	"repro/internal/transport"
)

// Op is one client operation and everything the checker needs to judge
// it: the semantic content (key, value, consistency), the real-time
// window in virtual time, and the accepted outcome.
type Op struct {
	// Client and Index identify the op; each client's ops are strictly
	// sequential.
	Client ids.ClientID
	Index  int
	// Put distinguishes writes from reads. Values are unique per op, so
	// the checker can map any read result back to its writing op.
	Put   bool
	Key   string
	Value string
	// Consistency is the requested read level (Linearizable for
	// writes). Served is how the accepted reply was actually served —
	// a fast-path read that fell back to consensus reports
	// Linearizable here.
	Consistency message.Consistency
	Served      message.Consistency
	// Timestamps lists every request timestamp the op consumed (a read
	// that fell back to consensus uses two); AcceptedTS is the one the
	// accepted result answered.
	Timestamps []uint64
	AcceptedTS uint64
	// Invoke and Resp bound the op in virtual time; Resp is zero while
	// the op is incomplete.
	Invoke time.Time
	Resp   time.Time
	// Result is the accepted state-machine result.
	Result []byte
	// Watermark is the freshest executed watermark vouching for the
	// result; Floor is the stale-read acceptance floor at invoke.
	Watermark uint64
	Floor     uint64
	// Done reports acceptance; Err records a retry-budget timeout.
	Done bool
	Err  string
}

// simClient drives the shipped client.Session on virtual time: it plans
// the workload, records each Op and wakes the Session at the deadline it
// returns. Every protocol decision — targets, reply validation, quorums,
// retransmission, the read fallback and floor — is the Session's.
type simClient struct {
	s     *Sim
	id    ids.ClientID
	index int
	addr  transport.Addr
	sess  *client.Session
	reads bool // the policy serves fast-path reads

	st    *stream // workload randomness
	epoch uint64  // the live timer's; stale wakeups are ignored
	armed time.Time

	cur     *Op
	first   uint64 // cur's first request timestamp
	history []*Op
	opsDone int
	done    bool
}

// newClient builds client #idx with its own policy and workload stream.
func (s *Sim) newClient(idx int) *simClient {
	id := ids.ClientID(idx)
	pol := s.spec.Policy(s.mb, s.n)
	_, reads := pol.(client.ReadPolicy)
	return &simClient{
		s:     s,
		id:    id,
		index: idx,
		addr:  transport.ClientAddr(id),
		sess:  client.NewSession(id, s.suite, pol, s.cfg.Timing, config.Client{}),
		reads: reads,
		st:    newStream(s.cfg.Seed, 0xC11E47_0000+uint64(idx)),
	}
}

// plan draws the client's next operation from its workload stream.
func (c *simClient) plan() *Op {
	cfg := c.s.cfg
	op := &Op{
		Client: c.id,
		Index:  c.opsDone,
		Key:    fmt.Sprintf("k%d", c.st.intn(cfg.Keys)),
	}
	if c.index >= cfg.WriteClients && c.st.float64() < cfg.ReadFraction {
		u := c.st.float64()
		switch {
		case c.reads && u < cfg.LeasedFraction:
			op.Consistency = message.ConsistencyLeased
		case c.reads && u < cfg.LeasedFraction+cfg.StaleFraction:
			op.Consistency = message.ConsistencyStale
		default:
			op.Consistency = message.ConsistencyLinearizable
		}
	} else {
		op.Put = true
		op.Value = fmt.Sprintf("c%d.%d", int64(c.id), c.opsDone)
	}
	return op
}

func (c *simClient) opBytes(op *Op) []byte {
	if op.Put {
		return statemachine.EncodePut(op.Key, []byte(op.Value))
	}
	return statemachine.EncodeGet(op.Key)
}

// startNextOp begins the client's next planned operation now.
func (c *simClient) startNextOp() {
	op := c.plan()
	c.history = append(c.history, op)
	op.Invoke = c.s.vclock.Now()
	c.cur = op
	c.first = c.sess.Timestamp() + 1
	opts := client.ReadOptions{Consistency: op.Consistency, MaxStaleness: c.s.cfg.MaxStaleness}
	c.apply(c.sess.Start(c.opBytes(op), opts, op.Invoke))
}

// onEnvelope handles a frame delivered to this client's address.
func (c *simClient) onEnvelope(env transport.Envelope) {
	if c.done || c.cur == nil {
		return
	}
	c.apply(c.sess.OnEnvelope(env, c.s.vclock.Now()))
}

// onTimer handles this client's timer: the initial kick-off, then the
// Session's deadlines.
func (c *simClient) onTimer(epoch uint64) {
	if c.done || epoch != c.epoch {
		return
	}
	if c.cur == nil {
		c.startNextOp()
		return
	}
	c.armed = time.Time{}
	c.apply(c.sess.OnTimer(c.s.vclock.Now()))
}

// apply delivers a Step: its frames, then its outcome or a wakeup at a
// new deadline (an unchanged deadline keeps the wakeup already queued).
func (c *simClient) apply(st client.Step) {
	for _, r := range st.To {
		c.s.onSend(c.addr, transport.ReplicaAddr(r), st.Frame)
	}
	if o := st.Outcome; o != nil {
		c.finish(o)
		return
	}
	if !st.Deadline.Equal(c.armed) {
		c.armed = st.Deadline
		c.epoch++
		c.s.schedule(st.Deadline, &event{kind: evClient, node: c.index, epoch: c.epoch})
	}
}

// record copies what the Session reports about the current op into it.
func (c *simClient) record(o client.Outcome) {
	op := c.cur
	for ts := c.first; ts <= o.Timestamp; ts++ {
		op.Timestamps = append(op.Timestamps, ts)
	}
	op.AcceptedTS = o.Timestamp
	op.Served = o.Served
	op.Floor = o.Floor
	op.Watermark = o.Watermark
	op.Result = o.Result
}

// recordPending records the op still in flight when the run stopped.
func (c *simClient) recordPending() {
	if o, ok := c.sess.Pending(); ok {
		c.record(o)
	}
}

// finish records the current op's outcome and starts the next op at the
// same virtual instant. An abandoned op (retry budget exhausted) stays
// incomplete in the history, which leaves it unconstrained for the
// checker (it may or may not have executed).
func (c *simClient) finish(o *client.Outcome) {
	op := c.cur
	c.record(*o)
	if o.Err != nil {
		op.Err = o.Err.Error()
	} else {
		op.Done = true
		op.Resp = c.s.vclock.Now()
	}
	c.cur, c.armed = nil, time.Time{}
	c.opsDone++
	if c.opsDone >= c.s.cfg.OpsPerClient {
		c.done = true
		c.s.liveClients--
		return
	}
	c.startNextOp()
}
