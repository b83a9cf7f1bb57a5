package sim

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/crypto"
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

// wmPoint is one point of the client's freshness knowledge (virtual
// time).
type wmPoint struct {
	wm uint64
	at time.Time
}

// pendingReq is the in-flight request state of a simClient.
type pendingReq struct {
	op      *Op
	wire    []byte
	replies map[ids.ReplicaID]*message.Message
	retried bool
	attempt int
	wait    time.Duration
	isRead  bool
	floor   uint64
}

// simClient is the event-driven mirror of client.Client: the same
// policies, quorum rules, retransmission and fast-path fallback
// behavior, but advanced by scheduler events instead of goroutines and
// channels.
type simClient struct {
	s      *Sim
	id     ids.ClientID
	index  int
	addr   transport.Addr
	policy client.Policy
	rp     client.ReadPolicy // nil for the BFT baselines

	st    *stream // workload randomness
	ts    uint64
	epoch uint64

	readFloor uint64
	wmLog     []wmPoint
	staleRR   int

	cur     *pendingReq
	history []*Op
	opsDone int
	done    bool
}

// newClient builds client #idx with its own policy and workload stream.
func (s *Sim) newClient(idx int) *simClient {
	id := ids.ClientID(idx)
	pol := s.newPolicy()
	rp, _ := pol.(client.ReadPolicy)
	return &simClient{
		s:      s,
		id:     id,
		index:  idx,
		addr:   transport.ClientAddr(id),
		policy: pol,
		rp:     rp,
		st:     newStream(s.cfg.Seed, 0xC11E47_0000+uint64(idx)),
	}
}

// newPolicy mirrors cluster's per-protocol reply policies.
func (s *Sim) newPolicy() client.Policy {
	switch s.cfg.Protocol {
	case cluster.SeeMoRe, cluster.Paxos:
		return client.NewSeeMoRePolicy(s.mb, s.mode)
	case cluster.PBFT:
		return client.NewGenericPolicy(s.n, s.cfg.Crash+s.cfg.Byz+1)
	case cluster.UpRight:
		return client.NewGenericPolicy(s.n, s.cfg.Byz+1)
	default:
		return nil
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
		case c.rp != nil && u < cfg.LeasedFraction:
			op.Consistency = message.ConsistencyLeased
		case c.rp != nil && u < cfg.LeasedFraction+cfg.StaleFraction:
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
	c.cur = &pendingReq{op: op}
	if op.Put || op.Consistency == message.ConsistencyLinearizable || c.rp == nil {
		c.sendInvoke()
		return
	}
	var targets []ids.ReplicaID
	switch op.Consistency {
	case message.ConsistencyLeased:
		t, ok := c.rp.LeaseTarget()
		if !ok {
			c.sendInvoke()
			return
		}
		targets = []ids.ReplicaID{t}
	case message.ConsistencyStale:
		all := c.rp.StaleTargets()
		if len(all) == 0 {
			c.sendInvoke()
			return
		}
		targets = []ids.ReplicaID{all[c.staleRR%len(all)]}
		c.staleRR++
	}
	cur := c.cur
	cur.isRead = true
	op.Served = op.Consistency
	req := c.nextRequest(op)
	cur.wire = message.Marshal(&message.Message{
		Kind: message.KindRead, From: -1, Request: req,
		Consistency: op.Consistency, Sig: message.AuthenticateRequest(c.s.suite, req, c.policy.All()),
	})
	cur.replies = make(map[ids.ReplicaID]*message.Message)
	cur.floor = c.readFloor
	if op.Consistency == message.ConsistencyStale && c.s.cfg.MaxStaleness > 0 {
		cutoff := c.s.vclock.Now().Add(-c.s.cfg.MaxStaleness)
		if need := c.requiredWatermark(cutoff); need > cur.floor {
			cur.floor = need
		}
	}
	op.Floor = cur.floor
	c.send(targets, cur.wire)
	c.arm(c.retry())
}

// sendInvoke (re)starts the current op over the ordered-write path —
// the initial path for writes and linearizable reads, and the fallback
// when a fast-path read stalls. Mirrors client.Client.Invoke: a fresh
// timestamp, a fresh reply set, primary-first delivery.
func (c *simClient) sendInvoke() {
	cur := c.cur
	op := cur.op
	op.Served = message.ConsistencyLinearizable
	req := c.nextRequest(op)
	// One authenticator for every replica: the retransmission to all
	// reuses the wire.
	cur.wire = message.Marshal(&message.Message{Kind: message.KindRequest, From: -1, Request: req,
		Sig: message.AuthenticateRequest(c.s.suite, req, c.policy.All())})
	cur.replies = make(map[ids.ReplicaID]*message.Message)
	cur.retried = false
	cur.attempt = 0
	cur.wait = c.retry()
	cur.isRead = false
	c.send(c.policy.Primary(), cur.wire)
	c.arm(cur.wait)
}

// nextRequest allocates the next timestamp and signs a request for op.
func (c *simClient) nextRequest(op *Op) *message.Request {
	c.ts++
	op.Timestamps = append(op.Timestamps, c.ts)
	op.AcceptedTS = c.ts
	req := &message.Request{Op: c.opBytes(op), Timestamp: c.ts, Client: c.id}
	req.Sig = c.s.suite.Sign(crypto.ClientPrincipal(int64(c.id)), req.SignedBytes())
	return req
}

func (c *simClient) send(targets []ids.ReplicaID, wire []byte) {
	for _, r := range targets {
		c.s.onSend(c.addr, transport.ReplicaAddr(r), wire)
	}
}

// retry returns the retransmission timeout.
func (c *simClient) retry() time.Duration { return c.s.cfg.Timing.ClientRetry }

// arm schedules the client's next timer, invalidating any outstanding
// one via the epoch.
func (c *simClient) arm(d time.Duration) {
	c.epoch++
	c.s.scheduleIn(d, &event{kind: evClient, node: c.index, epoch: c.epoch})
}

// onEnvelope handles a frame delivered to this client's address.
func (c *simClient) onEnvelope(env transport.Envelope) {
	if c.done || c.cur == nil {
		return
	}
	rep := c.validReply(env)
	if rep == nil {
		return
	}
	c.noteWatermark(rep.Watermark, c.s.vclock.Now())
	cur := c.cur
	if cur.isRead && cur.op.Consistency == message.ConsistencyStale && rep.Watermark < cur.floor {
		return // too stale for this client; another replica may do
	}
	cur.replies[rep.From] = rep
	if result, ok := c.policy.Done(cur.replies, cur.retried); ok {
		c.finish(result)
	}
}

// validReply mirrors client.Client.validReply: provenance, decode,
// echoed timestamp, the replica's tag for this client.
func (c *simClient) validReply(env transport.Envelope) *message.Message {
	if env.From.IsClient() {
		return nil
	}
	m, err := message.Unmarshal(env.Frame)
	if err != nil || m.Kind != message.KindReply {
		return nil
	}
	if m.From != env.From.Replica() || m.Client != c.id || m.Timestamp != c.ts {
		return nil
	}
	if !c.s.suite.VerifyTag(crypto.ReplicaPrincipal(int(m.From)), crypto.ClientPrincipal(int64(c.id)), m.SignedBytes(), m.Sig) {
		return nil
	}
	return m
}

// onTimer handles this client's retransmission/fallback timer.
func (c *simClient) onTimer(epoch uint64) {
	if c.done || epoch != c.epoch {
		return
	}
	if c.cur == nil {
		c.startNextOp() // the initial kick-off event
		return
	}
	cur := c.cur
	if cur.isRead {
		if cur.op.Consistency == message.ConsistencyStale && !cur.retried {
			// One follower stalled or lagged: ask every eligible one
			// before paying for consensus.
			cur.retried = true
			c.send(c.rp.StaleTargets(), cur.wire)
			c.arm(c.retry())
			return
		}
		// Fast path unavailable: order the read like a write.
		c.sendInvoke()
		return
	}
	cur.attempt++
	if cur.attempt > c.s.cfg.MaxRetries {
		c.abandon("timeout")
		return
	}
	cur.retried = true
	c.send(c.policy.All(), cur.wire)
	if result, ok := c.policy.Done(cur.replies, true); ok {
		c.finish(result)
		return
	}
	c.arm(cur.wait)
}

// finish accepts a quorum result for the current op and starts the next
// one at the same virtual instant.
func (c *simClient) finish(result []byte) {
	cur := c.cur
	op := cur.op
	c.policy.Observe(cur.replies)
	var wm uint64
	served := message.ConsistencyLinearizable
	for _, m := range cur.replies {
		if !bytes.Equal(m.Result, result) {
			continue
		}
		if m.Watermark > wm {
			wm = m.Watermark
		}
		if m.Consistency != message.ConsistencyLinearizable {
			served = m.Consistency
		}
	}
	if wm > c.readFloor {
		c.readFloor = wm
	}
	op.Done = true
	op.Resp = c.s.vclock.Now()
	op.Result = result
	op.Watermark = wm
	if cur.isRead {
		op.Served = served
	}
	c.advance()
}

// abandon gives up on the current op (retry budget exhausted); the op
// stays incomplete in the history, which leaves it unconstrained for
// the checker (it may or may not have executed).
func (c *simClient) abandon(reason string) {
	c.cur.op.Err = reason
	c.advance()
}

func (c *simClient) advance() {
	c.cur = nil
	c.epoch++ // kill any outstanding timer
	c.opsDone++
	if c.opsDone >= c.s.cfg.OpsPerClient {
		c.done = true
		c.s.liveClients--
		return
	}
	c.startNextOp()
}

// noteWatermark and requiredWatermark mirror the freshness-knowledge
// log of client.Client, on virtual time.
func (c *simClient) noteWatermark(wm uint64, now time.Time) {
	if wm == 0 {
		return
	}
	if n := len(c.wmLog); n > 0 && c.wmLog[n-1].wm >= wm {
		return
	}
	c.wmLog = append(c.wmLog, wmPoint{wm: wm, at: now})
	if len(c.wmLog) > 256 {
		c.wmLog = c.wmLog[1:]
	}
}

func (c *simClient) requiredWatermark(cutoff time.Time) uint64 {
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
