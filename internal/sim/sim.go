// Package sim is the deterministic simulation harness: whole clusters —
// SeeMoRe in any mode, the CFT baseline (Lion with no public cloud),
// PBFT, S-UpRight — run inside a single goroutine on a
// virtual clock, with every source of nondeterminism (message latency,
// loss, duplication, fault timing, workload choice) drawn from
// counter-based streams keyed off one master seed. The same seed
// therefore produces a byte-identical execution: identical client
// histories, identical per-replica commit traces, identical
// Fingerprint. On top of the recorded histories, checker.go verifies
// linearizability of writes and reads at each consistency level, so a
// failing seed is a one-line reproduction of a real safety bug:
//
//	go test ./internal/sim -run 'TestSimSeed/seed42' -sim.seeds 64
package sim

import (
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/pbft"
	"repro/internal/statemachine"
	"repro/internal/transport"
)

// Config describes one simulated execution. The zero value is not
// runnable; Run fills defaults for everything but the cluster shape.
type Config struct {
	// Seed is the master seed every random decision derives from.
	Seed int64
	// Protocol selects the engine (cluster.SeeMoRe, Paxos, PBFT,
	// UpRight).
	Protocol cluster.Protocol
	// Mode is SeeMoRe's initial mode (ignored by the other protocols;
	// the CFT baseline always runs Lion).
	Mode ids.Mode
	// Crash (c) and Byz (m) are the failure bounds, as in cluster.Spec.
	Crash, Byz int
	// Net overrides the simulated network parameters (PrivateSize is
	// always recomputed). Nil uses transport.LAN.
	Net *transport.SimConfig
	// Timing, Batching, Pipelining and Leases configure the engines
	// exactly as cluster.Spec does.
	Timing     config.Timing
	Batching   config.Batching
	Pipelining config.Pipelining
	Leases     config.Leases
	// TickInterval is the virtual-time engine tick (default 1ms).
	TickInterval time.Duration
	// Clients and OpsPerClient size the workload.
	Clients      int
	OpsPerClient int
	// Keys is the size of the hot keyspace the workload touches.
	Keys int
	// ReadFraction is the fraction of operations that are reads;
	// LeasedFraction and StaleFraction split the reads between the
	// fast-path consistency levels (the remainder is Linearizable).
	ReadFraction   float64
	LeasedFraction float64
	StaleFraction  float64
	// WriteClients pins the first WriteClients clients to a write-only
	// workload regardless of ReadFraction. The lease-safety experiments
	// use the split to keep a read-only population pointed at a deposed
	// primary while the writers fail over to the new view.
	WriteClients int
	// MaxStaleness bounds Stale reads (client-side knowledge bound).
	MaxStaleness time.Duration
	// Byzantine assigns active misbehaviours to replicas, as in
	// cluster.Spec. Byzantine replicas are excluded from the recorded
	// commit traces (their word is worthless).
	Byzantine map[ids.ReplicaID]cluster.Behavior
	// Faults is the seed-driven fault plan (crash/restart cycles and
	// link partitions drawn from the master seed).
	Faults FaultPlan
	// Script holds explicitly scheduled faults, applied in addition to
	// the generated plan. Times are virtual, from the start of the run.
	Script []ScriptedFault
	// ClockSkew offsets a replica's clock from virtual time for the
	// whole run. A constant offset shifts timestamps but cancels out of
	// durations measured on the same clock, so it never threatens
	// timer-based safety on its own.
	ClockSkew map[ids.ReplicaID]time.Duration
	// ClockDrift scales a replica's clock rate (1.0 = nominal). A rate
	// below 1 makes the replica measure every real duration short, so
	// its timers — including lease expiry — overrun in real time by a
	// factor 1/rate. This is the clock-skew failure mode
	// config.Leases.MaxClockSkew budgets for: a lease overrunning by
	// more than MaxClockSkew can outlive the view change that deposes
	// its holder.
	ClockDrift map[ids.ReplicaID]float64
	// LeaseSlack deliberately breaks lease safety (serve reads this
	// long past expiry) to prove the checker catches the violation.
	// Production configs leave it zero.
	LeaseSlack time.Duration
	// Deadline caps the run in virtual time (default 30s); a run that
	// reaches it reports the clients that never finished.
	Deadline time.Duration
	// MaxRetries bounds client retransmissions per operation
	// (default 20).
	MaxRetries int
}

// normalized fills defaults, returning a copy.
func (c Config) normalized() Config {
	if c.Timing.ViewChange <= 0 {
		c.Timing.ViewChange = 40 * time.Millisecond
	}
	if c.Timing.ClientRetry <= 0 {
		c.Timing.ClientRetry = 60 * time.Millisecond
	}
	if c.Timing.CheckpointPeriod == 0 {
		c.Timing.CheckpointPeriod = 32
	}
	if c.Timing.HighWaterMarkLag == 0 {
		c.Timing.HighWaterMarkLag = 1024
	}
	if c.TickInterval <= 0 {
		c.TickInterval = time.Millisecond
	}
	if c.Clients <= 0 {
		c.Clients = 3
	}
	if c.OpsPerClient <= 0 {
		c.OpsPerClient = 20
	}
	if c.Keys <= 0 {
		c.Keys = 4
	}
	if c.Deadline <= 0 {
		c.Deadline = 30 * time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 20
	}
	return c
}

// Commit is one executed request in a replica's commit trace.
type Commit struct {
	// Seq is the slot; batched requests share it.
	Seq uint64
	// Client and Timestamp identify the request (Client < 0 marks a
	// protocol no-op).
	Client    ids.ClientID
	Timestamp uint64
	// Result is the state machine's reply.
	Result []byte
}

// Result is everything one run recorded: the client histories, the
// per-replica commit traces of every honest replica, and run metadata.
type Result struct {
	// Seed echoes the config for reproduction lines.
	Seed int64
	// Ops holds every client operation in (client, index) order,
	// completed or not.
	Ops []*Op
	// Traces maps each honest replica to its commit trace in execution
	// order.
	Traces map[ids.ReplicaID][]Commit
	// Incomplete counts clients that never finished their plan before
	// the virtual deadline.
	Incomplete int
	// End is the virtual time the run stopped at.
	End time.Duration
	// Events counts scheduler events processed (diagnostics).
	Events uint64
	// Views and Stable are each honest replica's final view and stable
	// checkpoint. They are deliberately outside Fingerprint: tests use
	// them to prove a run reached the recovery machinery at all.
	Views  map[ids.ReplicaID]ids.View
	Stable map[ids.ReplicaID]uint64
	// Attacks counts the frames Byzantine replicas altered, forged or
	// replayed, and Auth is the ledger of every signature and tag the
	// replica engines and clients produced and checked, per claimed
	// author. Outside Fingerprint for the same reason: tests use them to
	// prove an attack ran, and whether it was accepted as authentic or
	// stopped at authentication. AuthAt splits the replicas' part of that
	// ledger by the replica that did the work, so a test can say where
	// an attack was stopped.
	Attacks uint64
	Auth    *crypto.Counting
	AuthAt  []*crypto.Counting
}

// Fingerprint digests the client histories and commit traces into one
// comparable string: two runs of the same seed must produce equal
// fingerprints, byte for byte.
func (r *Result) Fingerprint() string {
	h := sha256.New()
	w := func(vs ...uint64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	t := func(at time.Time) uint64 {
		if at.IsZero() {
			return ^uint64(0)
		}
		return uint64(at.Sub(clock.Epoch))
	}
	w(uint64(len(r.Ops)))
	for _, op := range r.Ops {
		w(uint64(int64(op.Client)), uint64(op.Index), op.AcceptedTS,
			t(op.Invoke), t(op.Resp), op.Watermark, op.Floor)
		flags := uint64(op.Served)
		if op.Put {
			flags |= 1 << 8
		}
		if op.Done {
			flags |= 1 << 9
		}
		w(flags)
		h.Write([]byte(op.Key))
		h.Write([]byte{0})
		h.Write([]byte(op.Value))
		h.Write([]byte{0})
		h.Write(op.Result)
		h.Write([]byte{0})
	}
	var replicas []int
	for id := range r.Traces {
		replicas = append(replicas, int(id))
	}
	sort.Ints(replicas)
	for _, id := range replicas {
		trace := r.Traces[ids.ReplicaID(id)]
		w(uint64(id), uint64(len(trace)))
		for _, c := range trace {
			w(c.Seq, uint64(int64(c.Client)), c.Timestamp)
			h.Write(c.Result)
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// node is the uniform stepped-replica handle all three engines satisfy.
type node interface {
	StepEnvelope(transport.Envelope)
	StepTick(time.Time)
	Crash()
	Recover()
	Stop()
	LastExecuted() uint64
	View() ids.View
	StableCheckpoint() uint64
}

// Sim is one deterministic execution in flight.
type Sim struct {
	cfg    Config
	netCfg transport.SimConfig
	n      int
	mb     ids.Membership // SeeMoRe and CFT only
	mode   ids.Mode       // the SeeMoRe engines' initial mode
	suite  *crypto.Counting
	// ledgers holds each replica's own count, kept through suite.
	ledgers []*crypto.Counting
	byz     *cluster.Adversary

	vclock  *clock.Virtual
	nodeClk []clock.Clock
	nodes   []node

	events       eventHeap
	nextEventSeq uint64

	linkRNG  map[[2]transport.Addr]*stream
	blocked  map[[2]transport.Addr]bool
	isolated map[transport.Addr]bool

	clients     []*simClient
	clientsByID map[ids.ClientID]*simClient
	liveClients int

	traces map[ids.ReplicaID][]Commit

	processed uint64
}

// maxEvents is a runaway backstop well above any legitimate run.
const maxEvents = 50_000_000

// Run executes one simulation to completion and returns its recorded
// result. It never spawns a goroutine: engines are stepped, clients are
// state machines, and time only moves when the event loop says so.
func Run(cfg Config) (*Result, error) {
	s, err := build(cfg.normalized())
	if err != nil {
		return nil, err
	}
	return s.run(), nil
}

func build(cfg Config) (*Sim, error) {
	spec := cluster.Spec{Protocol: cfg.Protocol, Mode: cfg.Mode, Crash: cfg.Crash, Byz: cfg.Byz}
	n, err := spec.Sizes()
	if err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:         cfg,
		n:           n,
		mode:        spec.EngineMode(),
		vclock:      clock.NewVirtual(),
		linkRNG:     make(map[[2]transport.Addr]*stream),
		blocked:     make(map[[2]transport.Addr]bool),
		isolated:    make(map[transport.Addr]bool),
		clientsByID: make(map[ids.ClientID]*simClient),
		traces:      make(map[ids.ReplicaID][]Commit),
	}
	privateSize := n
	if s.mb, err = spec.Membership(); err != nil {
		return nil, err
	}
	if s.mb.N() > 0 {
		privateSize = s.mb.S()
	}
	s.netCfg = transport.LAN(privateSize, cfg.Seed)
	if cfg.Net != nil {
		s.netCfg = *cfg.Net
		s.netCfg.PrivateSize = privateSize
	}
	keys := crypto.NewHMACSuite(cfg.Seed, n, int64(cfg.Clients)+1)
	s.suite = crypto.Count(keys)
	// The adversary authenticates outside the ledger, which therefore
	// counts exactly what replica engines and clients signed and checked.
	s.byz = cluster.WrapByzantine(simNet{s: s}, keys, n, s.mb, cfg.Byzantine)
	net := s.byz
	s.nodeClk = make([]clock.Clock, n)
	s.nodes = make([]node, n)
	s.ledgers = make([]*crypto.Counting, n)
	for i := 0; i < n; i++ {
		s.ledgers[i] = crypto.Count(s.suite)
		s.nodeClk[i] = s.vclock
		if r, ok := cfg.ClockDrift[ids.ReplicaID(i)]; ok && r > 0 {
			s.nodeClk[i] = clock.Drift(s.nodeClk[i], clock.Epoch, r)
		}
		if d, ok := cfg.ClockSkew[ids.ReplicaID(i)]; ok && d != 0 {
			s.nodeClk[i] = clock.Offset(s.nodeClk[i], d)
		}
		nd, err := s.buildNode(ids.ReplicaID(i), net)
		if err != nil {
			return nil, err
		}
		s.nodes[i] = nd
	}
	for i := 0; i < n; i++ {
		if cfg.Byzantine[ids.ReplicaID(i)] == cluster.BehaviorNone {
			s.installProbe(ids.ReplicaID(i))
		}
	}

	for c := 0; c < cfg.Clients; c++ {
		cl := s.newClient(c)
		s.clients = append(s.clients, cl)
		s.clientsByID[cl.id] = cl
		s.liveClients++
		// Stagger starts so the first broadcast burst is not one giant
		// same-instant batch.
		s.schedule(clock.Epoch.Add(time.Duration(c+1)*10*time.Microsecond),
			&event{kind: evClient, node: c, epoch: cl.epoch})
	}

	for i := 0; i < n; i++ {
		s.schedule(clock.Epoch.Add(cfg.TickInterval), &event{kind: evTick, node: i})
	}
	for _, f := range s.expandFaults() {
		s.schedule(clock.Epoch.Add(f.At), &event{kind: evFault, fault: f.Action})
	}
	return s, nil
}

// buildNode mirrors cluster's per-protocol assembly with the harness
// clock injected and no durable storage (crash/recover keeps the
// process; restarts-with-recovery stay in the cluster tests).
func (s *Sim) buildNode(id ids.ReplicaID, net transport.Network) (node, error) {
	sm := statemachine.NewKVStore()
	cfg := s.cfg
	switch cfg.Protocol {
	case cluster.SeeMoRe, cluster.Paxos:
		cl, err := config.NewCluster(s.mb, s.mode, cfg.Timing)
		if err != nil {
			return nil, err
		}
		cl.Batching = cfg.Batching
		cl.Pipelining = cfg.Pipelining
		cl.Leases = cfg.Leases
		return core.NewReplica(core.Options{
			ID: id, Cluster: cl, Suite: s.ledgers[id], Network: net,
			StateMachine: sm, TickInterval: cfg.TickInterval,
			Clock:                s.nodeClk[id],
			LeaseSlackForTesting: cfg.LeaseSlack,
		})
	case cluster.PBFT:
		f := cfg.Crash + cfg.Byz
		return pbft.NewReplica(pbft.Options{
			ID: id, N: s.n, Byz: f, Crash: 0,
			Suite: s.ledgers[id], Network: net,
			StateMachine: sm, Timing: cfg.Timing, Batching: cfg.Batching,
			Pipelining: cfg.Pipelining, TickInterval: cfg.TickInterval,
			Clock: s.nodeClk[id],
		})
	case cluster.UpRight:
		return pbft.NewReplica(pbft.Options{
			ID: id, N: s.n, Byz: cfg.Byz, Crash: cfg.Crash,
			Suite: s.ledgers[id], Network: net,
			StateMachine: sm, Timing: cfg.Timing, Batching: cfg.Batching,
			Pipelining: cfg.Pipelining, TickInterval: cfg.TickInterval,
			Clock: s.nodeClk[id],
		})
	default:
		return nil, fmt.Errorf("sim: unknown protocol %d", int(cfg.Protocol))
	}
}

// installProbe records an honest replica's commit trace. Execution
// happens synchronously inside StepEnvelope, so appends are ordered by
// the event loop, never by goroutines.
func (s *Sim) installProbe(id ids.ReplicaID) {
	record := func(seq uint64, req *message.Request, result []byte) {
		c := Commit{Seq: seq, Client: -1, Result: result}
		if req != nil {
			c.Client, c.Timestamp = req.Client, req.Timestamp
		}
		s.traces[id] = append(s.traces[id], c)
	}
	switch nd := s.nodes[id].(type) {
	case *core.Replica:
		nd.SetProbe(core.Probe{OnExecute: record})
	case *pbft.Replica:
		nd.SetProbe(pbft.Probe{OnExecute: record})
	}
}

func (s *Sim) run() *Result {
	deadline := clock.Epoch.Add(s.cfg.Deadline)
	for len(s.events) > 0 && s.liveClients > 0 && s.processed < maxEvents {
		ev := heap.Pop(&s.events).(*event)
		if ev.at.After(deadline) {
			break
		}
		s.vclock.Set(ev.at)
		s.processed++
		switch ev.kind {
		case evDeliver:
			s.deliver(ev)
		case evTick:
			s.nodes[ev.node].StepTick(s.nodeClk[ev.node].Now())
			s.scheduleIn(s.cfg.TickInterval, &event{kind: evTick, node: ev.node})
		case evClient:
			s.clients[ev.node].onTimer(ev.epoch)
		case evFault:
			s.applyFault(ev.fault)
		}
	}
	for _, nd := range s.nodes {
		nd.Stop()
	}
	res := &Result{
		Seed:       s.cfg.Seed,
		Traces:     s.traces,
		Incomplete: s.liveClients,
		End:        s.vclock.Now().Sub(clock.Epoch),
		Events:     s.processed,
		Views:      make(map[ids.ReplicaID]ids.View),
		Stable:     make(map[ids.ReplicaID]uint64),
		Attacks:    s.byz.Attacks(),
		Auth:       s.suite,
		AuthAt:     s.ledgers,
	}
	for i, nd := range s.nodes {
		// Engine-confined accessors: safe now that every node stopped.
		if id := ids.ReplicaID(i); s.cfg.Byzantine[id] == cluster.BehaviorNone {
			res.Views[id] = nd.View()
			res.Stable[id] = nd.StableCheckpoint()
		}
	}
	for _, c := range s.clients {
		res.Ops = append(res.Ops, c.history...)
	}
	return res
}
