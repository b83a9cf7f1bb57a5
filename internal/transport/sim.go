package transport

//lint:file-allow clockcheck real-time network emulation: latency and jitter here model the wire, not protocol time, and are measured on the host clock by design

import (
	"container/heap"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// SimConfig parameterizes the simulated hybrid-cloud network.
//
// Latency classes model the paper's deployment knobs: the Peacock mode
// exists precisely because "there is a large network distance between the
// private and the public cloud" can make an extra in-cloud phase cheaper
// than cross-cloud hops (Section 5.3), so CrossCloud is the headline
// parameter of the latency ablation.
type SimConfig struct {
	// Seed drives the deterministic RNG for jitter, loss and
	// duplication.
	Seed int64
	// PrivateSize classifies replica addresses: IDs below PrivateSize
	// are in the private cloud.
	PrivateSize int
	// IntraPrivate is the one-way latency between two private nodes.
	IntraPrivate time.Duration
	// IntraPublic is the one-way latency between two public nodes.
	IntraPublic time.Duration
	// CrossCloud is the one-way latency between the clouds.
	CrossCloud time.Duration
	// ClientToPrivate and ClientToPublic are client link latencies.
	ClientToPrivate time.Duration
	ClientToPublic  time.Duration
	// Jitter is the relative latency perturbation: each delivery delay
	// is multiplied by a uniform factor in [1-Jitter, 1+Jitter]. Jitter
	// reorders messages exactly as the paper's asynchrony model allows.
	Jitter float64
	// DropRate is the probability a frame is silently lost.
	DropRate float64
	// DupRate is the probability a frame is delivered twice.
	DupRate float64
	// InboxSize bounds each endpoint's inbox (default 8192).
	InboxSize int
	// PerMessageSend and PerMessageRecv model each node's processing
	// capacity in *virtual* time: a node's outgoing messages serialize
	// through its NIC/CPU at PerMessageSend apiece, incoming ones at
	// PerMessageRecv. This is what makes the simulation reproduce the
	// paper's saturation behaviour on modest hardware: on the EC2
	// testbed the bottleneck is the busiest single node (typically the
	// primary), not the sum of all work, and these knobs recreate that
	// per-node bottleneck regardless of how many host cores the
	// simulation itself gets.
	PerMessageSend time.Duration
	PerMessageRecv time.Duration
}

// LAN returns a config resembling the paper's testbed: both clouds in one
// datacenter (AWS US West), sub-millisecond links, light jitter.
func LAN(privateSize int, seed int64) SimConfig {
	return SimConfig{
		Seed:            seed,
		PrivateSize:     privateSize,
		IntraPrivate:    50 * time.Microsecond,
		IntraPublic:     50 * time.Microsecond,
		CrossCloud:      80 * time.Microsecond,
		ClientToPrivate: 60 * time.Microsecond,
		ClientToPublic:  60 * time.Microsecond,
		Jitter:          0.1,
		InboxSize:       8192,
		PerMessageSend:  15 * time.Microsecond,
		PerMessageRecv:  5 * time.Microsecond,
	}
}

// WAN returns a config with a wide gap between the clouds, the regime
// that motivates the Peacock mode.
func WAN(privateSize int, crossCloud time.Duration, seed int64) SimConfig {
	c := LAN(privateSize, seed)
	c.CrossCloud = crossCloud
	c.ClientToPrivate = crossCloud // clients sit near the public cloud
	c.ClientToPublic = 60 * time.Microsecond
	return c
}

// SimNetwork is the in-process simulated network. All methods are safe
// for concurrent use.
type SimNetwork struct {
	cfg SimConfig

	mu        sync.Mutex
	rng       *rand.Rand
	endpoints map[Addr]*simEndpoint
	blocked   map[[2]Addr]bool // unordered pair blocks
	isolated  map[Addr]bool
	closed    bool
	// Virtual per-node processing queues (see SimConfig.PerMessageSend).
	sendBusy map[Addr]time.Time
	recvBusy map[Addr]time.Time

	sched *scheduler
	stats statsCollector
}

// NewSimNetwork builds a simulated network from cfg.
func NewSimNetwork(cfg SimConfig) *SimNetwork {
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 8192
	}
	n := &SimNetwork{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		endpoints: make(map[Addr]*simEndpoint),
		blocked:   make(map[[2]Addr]bool),
		isolated:  make(map[Addr]bool),
		sendBusy:  make(map[Addr]time.Time),
		recvBusy:  make(map[Addr]time.Time),
	}
	n.sched = newScheduler(n.deliver)
	return n
}

// Endpoint implements Network.
func (n *SimNetwork) Endpoint(a Addr) Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		// A closed network hands out dead endpoints: sends drop, inbox
		// is closed.
		ep := &simEndpoint{net: n, addr: a, inbox: make(chan Envelope)}
		close(ep.inbox)
		ep.closed = true
		return ep
	}
	if ep, ok := n.endpoints[a]; ok {
		return ep
	}
	ep := &simEndpoint{net: n, addr: a, inbox: make(chan Envelope, n.cfg.InboxSize)}
	n.endpoints[a] = ep
	return ep
}

// Close implements Network.
func (n *SimNetwork) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	eps := make([]*simEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.endpoints = map[Addr]*simEndpoint{}
	n.mu.Unlock()

	n.sched.stop()
	for _, ep := range eps {
		ep.closeInbox()
	}
}

// Stats returns a snapshot of the traffic counters.
func (n *SimNetwork) Stats() Stats { return n.stats.snapshot() }

// Block severs the link between a and b in both directions.
func (n *SimNetwork) Block(a, b Addr) {
	n.mu.Lock()
	n.blocked[pairKey(a, b)] = true
	n.mu.Unlock()
}

// Unblock restores the link between a and b.
func (n *SimNetwork) Unblock(a, b Addr) {
	n.mu.Lock()
	delete(n.blocked, pairKey(a, b))
	n.mu.Unlock()
}

// Isolate cuts every link of a (a crashed or partitioned node as seen by
// the network).
func (n *SimNetwork) Isolate(a Addr) {
	n.mu.Lock()
	n.isolated[a] = true
	n.mu.Unlock()
}

// Heal reconnects an isolated node.
func (n *SimNetwork) Heal(a Addr) {
	n.mu.Lock()
	delete(n.isolated, a)
	n.mu.Unlock()
}

func pairKey(a, b Addr) [2]Addr {
	if a > b {
		a, b = b, a
	}
	return [2]Addr{a, b}
}

// latency computes the one-way delay for a frame from → to, including
// jitter. Caller holds n.mu (for the RNG).
func (n *SimNetwork) latency(from, to Addr) time.Duration {
	base := n.baseLatency(from, to)
	if n.cfg.Jitter > 0 && base > 0 {
		f := 1 + n.cfg.Jitter*(2*n.rng.Float64()-1)
		base = time.Duration(float64(base) * f)
	}
	return base
}

func (n *SimNetwork) baseLatency(from, to Addr) time.Duration {
	return n.cfg.BaseLatency(from, to)
}

// BaseLatency returns the configured one-way latency class for a frame
// from → to, before jitter and per-node processing delays. It is a pure
// function of the config, exported so the deterministic simulation
// (internal/sim) reuses the exact hybrid-cloud link model while owning
// its own delivery schedule and randomness.
func (c SimConfig) BaseLatency(from, to Addr) time.Duration {
	fp := c.place(from)
	tp := c.place(to)
	switch {
	case fp == placeClient || tp == placeClient:
		// Client link class depends on the replica side of the hop.
		other := fp
		if fp == placeClient {
			other = tp
		}
		if other == placePrivate {
			return c.ClientToPrivate
		}
		return c.ClientToPublic
	case fp == placePrivate && tp == placePrivate:
		return c.IntraPrivate
	case fp == placePublic && tp == placePublic:
		return c.IntraPublic
	default:
		return c.CrossCloud
	}
}

type place int

const (
	placePrivate place = iota
	placePublic
	placeClient
)

func (c SimConfig) place(a Addr) place {
	switch {
	case a.IsClient():
		return placeClient
	// Classify by the group-local replica ID: every consensus group of a
	// sharded deployment has the same private/public layout, and for
	// group 0 (all unsharded deployments) Local is the identity.
	case int64(a.Local()) < int64(c.PrivateSize):
		return placePrivate
	default:
		return placePublic
	}
}

// send is the internal frame path; called by endpoints.
func (n *SimNetwork) send(from, to Addr, frame []byte) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.stats.add(func(s *Stats) { s.Sent++; s.BytesSent += uint64(len(frame)) })
	if n.isolated[from] || n.isolated[to] || n.blocked[pairKey(from, to)] {
		n.mu.Unlock()
		n.stats.add(func(s *Stats) { s.DroppedPartition++ })
		return
	}
	if n.cfg.DropRate > 0 && n.rng.Float64() < n.cfg.DropRate {
		n.mu.Unlock()
		n.stats.add(func(s *Stats) { s.DroppedLoss++ })
		return
	}
	copies := 1
	if n.cfg.DupRate > 0 && n.rng.Float64() < n.cfg.DupRate {
		copies = 2
		n.stats.add(func(s *Stats) { s.Duplicated++ })
	}
	now := time.Now()
	delays := make([]time.Duration, copies)
	for i := range delays {
		// Virtual node model: the frame departs once the sender's queue
		// drains, flies for the link latency, then waits for the
		// receiver's queue. Each hop advances the respective queue.
		depart := now
		if b := n.sendBusy[from]; b.After(depart) {
			depart = b
		}
		depart = depart.Add(n.cfg.PerMessageSend)
		n.sendBusy[from] = depart

		arrive := depart.Add(n.latency(from, to))
		if b := n.recvBusy[to]; b.After(arrive) {
			arrive = b
		}
		arrive = arrive.Add(n.cfg.PerMessageRecv)
		n.recvBusy[to] = arrive

		delays[i] = arrive.Sub(now)
	}
	n.mu.Unlock()

	// The frame is immutable, so it sits in the scheduler heap as is until
	// delivery; duplicated copies share it.
	env := Envelope{From: from, Frame: frame}
	for _, d := range delays {
		n.sched.schedule(d, to, env)
	}
}

// deliver places an envelope in the destination inbox; called by the
// scheduler goroutine.
func (n *SimNetwork) deliver(to Addr, env Envelope) {
	n.mu.Lock()
	ep, ok := n.endpoints[to]
	// Re-check partitions at delivery time so in-flight frames also die
	// when a partition (or crash isolation) starts.
	cut := n.isolated[to] || n.isolated[env.From] || n.blocked[pairKey(env.From, to)]
	n.mu.Unlock()
	if !ok {
		n.stats.add(func(s *Stats) { s.DroppedNoRecipient++ })
		return
	}
	if cut {
		n.stats.add(func(s *Stats) { s.DroppedPartition++ })
		return
	}
	if ep.push(env) {
		n.stats.add(func(s *Stats) { s.Delivered++ })
	} else {
		n.stats.add(func(s *Stats) { s.DroppedOverflow++ })
	}
}

type simEndpoint struct {
	net  *SimNetwork
	addr Addr

	mu     sync.Mutex
	inbox  chan Envelope
	closed bool
}

func (e *simEndpoint) Addr() Addr { return e.addr }

func (e *simEndpoint) Send(to Addr, frame []byte) {
	e.mu.Lock()
	dead := e.closed
	e.mu.Unlock()
	if dead {
		return
	}
	e.net.send(e.addr, to, frame)
}

func (e *simEndpoint) Inbox() <-chan Envelope { return e.inbox }

func (e *simEndpoint) Close() {
	e.net.mu.Lock()
	if e.net.endpoints[e.addr] == e {
		delete(e.net.endpoints, e.addr)
	}
	e.net.mu.Unlock()
	e.closeInbox()
}

func (e *simEndpoint) closeInbox() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.closed = true
		close(e.inbox)
	}
}

// push attempts a non-blocking inbox delivery.
func (e *simEndpoint) push(env Envelope) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	select {
	case e.inbox <- env:
		return true
	default:
		return false
	}
}

// ---------------------------------------------------------------------------
// scheduler: a single goroutine draining a min-heap of timed deliveries.
// One goroutine + one timer outperforms a time.AfterFunc per frame by a
// wide margin at benchmark rates, and the seq tiebreaker keeps equal-time
// deliveries in send order (stable FIFO per link when jitter is zero).

type scheduledItem struct {
	at  time.Time
	seq uint64
	to  Addr
	env Envelope
}

type itemHeap []scheduledItem

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h itemHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x interface{}) { *h = append(*h, x.(scheduledItem)) }
func (h *itemHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

type scheduler struct {
	mu      sync.Mutex
	heap    itemHeap
	nextSeq uint64
	stopped bool

	wake    chan struct{} // poked when an earlier item may have arrived
	stopCh  chan struct{}
	done    chan struct{}
	deliver func(Addr, Envelope)
}

func newScheduler(deliver func(Addr, Envelope)) *scheduler {
	s := &scheduler{
		deliver: deliver,
		wake:    make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	go s.run()
	return s
}

func (s *scheduler) schedule(d time.Duration, to Addr, env Envelope) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	heap.Push(&s.heap, scheduledItem{at: time.Now().Add(d), seq: s.nextSeq, to: to, env: env})
	s.nextSeq++
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *scheduler) stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.mu.Unlock()
	close(s.stopCh)
	<-s.done
}

func (s *scheduler) run() {
	defer close(s.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		// Deliver everything that is due, then compute the wait until the
		// next item (or park until woken).
		var wait time.Duration = -1
		for {
			s.mu.Lock()
			if len(s.heap) == 0 {
				s.mu.Unlock()
				break
			}
			now := time.Now()
			if d := s.heap[0].at.Sub(now); d > 0 {
				wait = d
				s.mu.Unlock()
				break
			}
			item := heap.Pop(&s.heap).(scheduledItem)
			s.mu.Unlock()
			s.deliver(item.to, item.env)
		}

		if wait < 0 {
			select {
			case <-s.wake:
			case <-s.stopCh:
				return
			}
			continue
		}
		// Sub-200µs waits spin-yield instead of sleeping: Go timers carry
		// up to ~1ms of slack on an idle machine, which would put a fake
		// millisecond floor under every simulated microsecond-scale link.
		if wait < 200*time.Microsecond {
			deadline := time.Now().Add(wait)
			for time.Now().Before(deadline) {
				select {
				case <-s.stopCh:
					return
				default:
					runtime.Gosched()
				}
			}
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-s.wake:
		case <-s.stopCh:
			return
		}
	}
}
