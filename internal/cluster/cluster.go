// Package cluster assembles complete protocol deployments — SeeMoRe in
// any mode, the CFT baseline (SeeMoRe's Lion with no public cloud), PBFT,
// or S-UpRight — over one simulated network, with uniform crash and
// Byzantine fault injection. The integration tests, the examples and the
// benchmark harness all build clusters through this package so every
// protocol runs on an identical substrate, mirroring how the paper runs
// every competitor over BFT-SMaRt's communication layer on the same EC2
// instances.
package cluster

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/pbft"
	"repro/internal/placement"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Protocol selects the replication protocol.
type Protocol int

const (
	// SeeMoRe runs the paper's protocol (mode from Spec.Mode).
	SeeMoRe Protocol = iota
	// Paxos is the CFT baseline on 2f+1 nodes: SeeMoRe's Lion mode with
	// no public cloud (S = 2f+1, P = 0, c = f, m = 0), which is Paxos.
	Paxos
	// PBFT is the BFT baseline on 3f+1 nodes.
	PBFT
	// UpRight is the S-UpRight hybrid baseline on 3m+2c+1 nodes.
	UpRight
)

// String implements fmt.Stringer; the names match the paper's figure
// legends.
func (p Protocol) String() string {
	switch p {
	case SeeMoRe:
		return "SeeMoRe"
	case Paxos:
		return "CFT"
	case PBFT:
		return "BFT"
	case UpRight:
		return "S-UpRight"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Spec describes a cluster to build.
type Spec struct {
	// Protocol selects the engine.
	Protocol Protocol
	// Mode is SeeMoRe's initial mode (ignored by the other protocols;
	// the CFT baseline always runs Lion).
	Mode ids.Mode
	// Crash (c) and Byz (m) are the failure bounds. For CFT and PBFT
	// the single bound f = Crash + Byz, matching how the paper sizes CFT
	// and BFT to tolerate the same total number of failures.
	Crash, Byz int
	// Timing supplies protocol timers; zero value uses defaults tuned
	// for the simulated network.
	Timing config.Timing
	// Batching configures request batching at the primary/leader of
	// every protocol; the zero value runs one request per slot.
	Batching config.Batching
	// Pipelining bounds the primary/leader's in-flight proposal window
	// in every protocol; the zero value is a window of
	// config.DefaultPipelineDepth slots.
	Pipelining config.Pipelining
	// Net configures the simulated network; zero value uses
	// transport.LAN.
	Net *transport.SimConfig
	// Suite selects the signature scheme: "ed25519", "hmac" (default) or
	// "none".
	Suite string
	// NewStateMachine builds each replica's service; default is a
	// KV store.
	NewStateMachine func() statemachine.StateMachine
	// Seed drives key generation and network randomness.
	Seed int64
	// MaxClients bounds the client identifiers the keyring covers
	// (default 512).
	MaxClients int64
	// TickInterval overrides the engine tick (default 1ms, suited to the
	// microsecond-scale simulated links).
	TickInterval time.Duration
	// Byzantine assigns misbehaviours to replicas (normally public-cloud
	// ones; injecting them elsewhere deliberately violates the model and
	// is useful only for negative tests).
	Byzantine map[ids.ReplicaID]Behavior
	// ExtraPublic adds public-cloud nodes beyond the 3m+1 proxies
	// (SeeMoRe only) — the "renting more replicas for load balancing"
	// scenario of Section 4 and the proxy-count ablation: the paper notes
	// "any additional replicas may degrade the performance".
	ExtraPublic int
	// LeanCommits strips µ from Lion COMMIT messages (ablation; see
	// core.Options.LeanCommits).
	LeanCommits bool
	// Durability attaches a durable store to every replica: node i
	// journals to <Dir>/r<i> (<Dir>/g<g>/r<i> in a sharded deployment).
	// RestartNode then models a process crash plus restart with recovery
	// from disk. The zero value keeps every replica fully in memory.
	Durability config.Durability
	// Shards runs the deployment as this many independent consensus
	// groups over one simulated network, each group a full cluster of
	// the shape the other Spec fields describe, with the keyspace
	// hash-partitioned across groups by the epoch-1 placement map
	// (placement.Bootstrap, see Cluster.Placement). Values ≤ 1 run
	// the single legacy group, byte-identical to the pre-sharding
	// harness. Byzantine behaviors are installed at the same replica IDs
	// in every group.
	Shards int
	// Client tunes client-side retries for every client the harness
	// builds; the zero value keeps the historical retry behavior.
	Client config.Client
	// Leases enables leader leases on SeeMoRe's trusted-primary modes so
	// the primary serves Leased reads locally (see config.Leases). The
	// zero value disables leases; the BFT baselines ignore the field, and
	// the CFT baseline, being Lion, honours it.
	Leases config.Leases
	// Elastic provisions the deployment for live resharding: every group
	// is seeded with the epoch-1 bootstrap placement map (so replicas
	// fence keys they do not own and answer with wrong-epoch
	// rejections), and group 0 additionally holds the authoritative copy
	// as the meta group. Routers are the same either way; a static
	// deployment skips the seeding round and never leaves epoch 1.
	// Requires the default KV state machine (the placement opcodes live
	// there).
	Elastic bool
	// SpareGroups provisions this many consensus groups beyond Shards.
	// Spares are full clusters on the shared network that own no key
	// ranges at bootstrap; split and move commands migrate ranges onto
	// them at runtime. Requires Elastic.
	SpareGroups int
	// ResizeHeadroom reserves signing-key material for this many replica
	// IDs per group beyond the bootstrap size, so ResizeGroupPublic can
	// grow a group without re-keying the deployment. Key derivation is
	// per-principal, so headroom changes no existing key.
	ResizeHeadroom int
}

// Node is the uniform replica handle: both engines, core.Replica and
// pbft.Replica, satisfy it. A cluster runs each node on its own
// goroutines (Start); the deterministic simulation instead drives it on
// the caller's goroutine through StepEnvelope and StepTick and never
// starts it.
type Node interface {
	Start()
	Stop()
	Crash()
	Recover()
	ID() ids.ReplicaID
	// LastExecuted is the executor watermark: the highest sequence
	// number this replica has applied to its state machine. The harness
	// tests wait on it instead of sleeping.
	LastExecuted() uint64
	StepEnvelope(transport.Envelope)
	StepTick(time.Time)
	// View and StableCheckpoint are engine-confined: read them only
	// from the goroutine that steps the node, or after Stop.
	View() ids.View
	StableCheckpoint() uint64
}

// Env is what differs between the callers that build a replica from
// one Spec: the cluster harness, the deterministic simulation and the
// seemore command.
type Env struct {
	// Membership is the group's SeeMoRe membership (SeeMoRe and CFT;
	// the BFT baselines ignore it), and N its replica count (the BFT
	// baselines' group size).
	Membership ids.Membership
	N          int
	// Network attaches the replica's endpoint.
	Network transport.Network
	// Suite signs and verifies the replica's messages.
	Suite crypto.Suite
	// Clock drives every protocol timer; nil is the real clock.
	Clock clock.Clock
	// Store is the replica's durable store, which it recovers from and
	// then owns; nil keeps it fully in memory.
	Store storage.Store
	// StateMachine is the replicated service.
	StateMachine statemachine.StateMachine
	// OnExecute, when set, observes every executed request on the
	// engine goroutine (req is nil for a protocol no-op).
	OnExecute func(seq uint64, req *message.Request, result []byte)
	// LeaseSlack is core.Options.LeaseSlackForTesting: a deliberate
	// lease-safety bug the simulation's checker must catch. Zero
	// everywhere else.
	LeaseSlack time.Duration
}

// Cluster is a running deployment of one or more consensus groups.
type Cluster struct {
	Spec       Spec
	Membership ids.Membership // SeeMoRe and CFT; zero value otherwise
	N          int            // replicas per group
	Net        *transport.SimNetwork
	SuiteImpl  crypto.Suite
	// Nodes and SMs are group 0 — the whole deployment when Shards ≤ 1.
	// They share backing arrays with Groups[0]/GroupSMs[0], so the
	// legacy accessors keep working against sharded deployments.
	Nodes []Node
	// SMs holds each node's state machine, indexed by replica ID. Only
	// inspect them after Stop (the engines own them while running).
	SMs []statemachine.StateMachine
	// Groups holds every consensus group's replicas: Groups[g][i] is
	// replica i of group g. Unsharded deployments have exactly one
	// group.
	Groups [][]Node
	// GroupSMs mirrors Groups for the state machines (same inspection
	// rule as SMs).
	GroupSMs [][]statemachine.StateMachine
	// Placement is the epoch-1 bootstrap placement map: the key→group
	// mapping every router starts from. Only Spec.Elastic seeds it into
	// the groups themselves.
	Placement *placement.Map

	groupNets []*Adversary     // per-group namespaced (and Byzantine-wrapped) views of Net
	groupMB   []ids.Membership // per-group membership (SeeMoRe and CFT; diverges after resize)
	groupN    []int            // per-group replica count (diverges after resize)
	stopped   bool
}

// Sizes computes the cluster size for the spec, following Section 6:
// CFT and BFT tolerate f = c+m failures of their single class. The
// simulation harness shares it so both build identically shaped
// deployments.
func (s *Spec) Sizes() (n int, err error) {
	switch s.Protocol {
	case SeeMoRe:
		// The paper's deployments put 2c nodes in the private cloud and
		// 3m+1 in the public cloud (Section 6.1).
		return 2*s.Crash + 3*s.Byz + 1 + s.ExtraPublic, nil
	case Paxos:
		f := s.Crash + s.Byz
		return 2*f + 1, nil
	case PBFT:
		f := s.Crash + s.Byz
		return 3*f + 1, nil
	case UpRight:
		return 3*s.Byz + 2*s.Crash + 1, nil
	default:
		return 0, fmt.Errorf("cluster: unknown protocol %d", int(s.Protocol))
	}
}

// Membership is the spec's SeeMoRe membership: the paper's two clouds
// for SeeMoRe, the private cloud alone for the CFT baseline, and the
// zero value for the BFT baselines. The simulation harness shares it so
// both build identically shaped deployments.
func (s *Spec) Membership() (ids.Membership, error) {
	switch s.Protocol {
	case SeeMoRe:
		return ids.NewMembership(2*s.Crash, 3*s.Byz+1+s.ExtraPublic, s.Crash, s.Byz)
	case Paxos:
		f := s.Crash + s.Byz
		return ids.NewMembership(2*f+1, 0, f, 0)
	default:
		return ids.Membership{}, nil
	}
}

// NetConfig is the simulated network of the spec's deployment: Net, or
// transport.LAN seeded by Seed, with the private cloud sized to the
// membership's S (the whole group for the BFT baselines).
func (s *Spec) NetConfig() (transport.SimConfig, error) {
	privateSize, err := s.Sizes()
	if err != nil {
		return transport.SimConfig{}, err
	}
	mb, err := s.Membership()
	if err != nil {
		return transport.SimConfig{}, err
	}
	if mb.N() > 0 {
		privateSize = mb.S()
	}
	if s.Net == nil {
		return transport.LAN(privateSize, s.Seed), nil
	}
	cfg := *s.Net
	cfg.PrivateSize = privateSize
	return cfg, nil
}

// EngineMode is the mode a SeeMoRe engine starts in: Spec.Mode, pinned
// to Lion for the CFT baseline.
func (s *Spec) EngineMode() ids.Mode {
	if s.Protocol == Paxos {
		return ids.Lion
	}
	return s.Mode
}

// BuildNode assembles replica id of one group under the spec's
// protocol: a core.Replica for SeeMoRe and the CFT baseline, a
// pbft.Replica for PBFT and S-UpRight. Every replica in the tree is
// built here; env carries only what differs between callers. The node
// is returned unstarted.
func (s *Spec) BuildNode(id ids.ReplicaID, env Env) (Node, error) {
	switch s.Protocol {
	case SeeMoRe, Paxos:
		cl, err := config.NewCluster(env.Membership, s.EngineMode(), s.Timing)
		if err != nil {
			return nil, err
		}
		cl.Batching = s.Batching
		cl.Pipelining = s.Pipelining
		cl.Durability = s.Durability
		cl.Leases = s.Leases
		r, err := core.NewReplica(core.Options{
			ID: id, Cluster: cl, Suite: env.Suite, Network: env.Network,
			StateMachine: env.StateMachine, TickInterval: s.TickInterval,
			LeanCommits: s.LeanCommits, Storage: env.Store, Clock: env.Clock,
			LeaseSlackForTesting: env.LeaseSlack,
		})
		if err != nil {
			return nil, err
		}
		if env.OnExecute != nil {
			r.SetProbe(core.Probe{OnExecute: env.OnExecute})
		}
		return r, nil
	case PBFT, UpRight:
		// PBFT tolerates f = c+m Byzantine faults; S-UpRight keeps the
		// two bounds apart.
		byz, crash := s.Crash+s.Byz, 0
		if s.Protocol == UpRight {
			byz, crash = s.Byz, s.Crash
		}
		r, err := pbft.NewReplica(pbft.Options{
			ID: id, N: env.N, Byz: byz, Crash: crash,
			Suite: env.Suite, Network: env.Network,
			StateMachine: env.StateMachine, Timing: s.Timing, Batching: s.Batching,
			Pipelining: s.Pipelining, TickInterval: s.TickInterval,
			Storage: env.Store, Clock: env.Clock,
		})
		if err != nil {
			return nil, err
		}
		if env.OnExecute != nil {
			r.SetProbe(pbft.Probe{OnExecute: env.OnExecute})
		}
		return r, nil
	default:
		return nil, fmt.Errorf("cluster: unknown protocol %d", int(s.Protocol))
	}
}

// New builds and starts a cluster.
func New(spec Spec) (*Cluster, error) {
	if spec.Crash < 0 || spec.Byz < 0 || spec.Crash+spec.Byz == 0 {
		return nil, fmt.Errorf("cluster: need at least one tolerated failure (c=%d, m=%d)", spec.Crash, spec.Byz)
	}
	n, err := spec.Sizes()
	if err != nil {
		return nil, err
	}
	sharding := config.Sharding{Shards: spec.Shards, ReplicasPerShard: n}.Normalized()
	if err := sharding.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Client.Validate(); err != nil {
		return nil, err
	}
	if spec.SpareGroups < 0 {
		return nil, fmt.Errorf("cluster: negative spare group count %d", spec.SpareGroups)
	}
	if spec.ResizeHeadroom < 0 {
		return nil, fmt.Errorf("cluster: negative resize headroom %d", spec.ResizeHeadroom)
	}
	if spec.SpareGroups > 0 && !spec.Elastic {
		return nil, fmt.Errorf("cluster: spare groups need Spec.Elastic (they own no ranges without a placement map)")
	}
	if spec.Elastic && spec.NewStateMachine != nil {
		return nil, fmt.Errorf("cluster: elastic deployments need the default KV state machine (placement ops live there)")
	}
	if spec.Timing == (config.Timing{}) {
		spec.Timing = config.Timing{
			ViewChange:       100 * time.Millisecond,
			ClientRetry:      150 * time.Millisecond,
			CheckpointPeriod: 512,
			HighWaterMarkLag: 4096,
		}
	}
	if spec.MaxClients <= 0 {
		spec.MaxClients = 512
	}
	if spec.TickInterval <= 0 {
		spec.TickInterval = time.Millisecond
	}
	if spec.NewStateMachine == nil {
		spec.NewStateMachine = func() statemachine.StateMachine { return statemachine.NewKVStore() }
	}

	mb, err := spec.Membership()
	if err != nil {
		return nil, err
	}
	netCfg, err := spec.NetConfig()
	if err != nil {
		return nil, err
	}
	suiteName := spec.Suite
	if suiteName == "" {
		suiteName = "hmac"
	}
	keyed := n + spec.ResizeHeadroom // per-principal derivation: headroom adds keys, changes none
	suite, err := crypto.NewSuite(suiteName, spec.Seed, keyed, spec.MaxClients)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	c := &Cluster{
		Spec:       spec,
		Membership: mb,
		N:          n,
		Net:        transport.NewSimNetwork(netCfg),
		SuiteImpl:  suite,
	}
	owners := sharding.Shards
	groups := owners + spec.SpareGroups
	if c.Placement, err = placement.Bootstrap(owners, groups, n); err != nil {
		return nil, err
	}
	c.Groups = make([][]Node, groups)
	c.GroupSMs = make([][]statemachine.StateMachine, groups)
	c.groupNets = make([]*Adversary, groups)
	c.groupMB = make([]ids.Membership, groups)
	c.groupN = make([]int, groups)
	for g := 0; g < groups; g++ {
		c.groupMB[g] = mb
		c.groupN[g] = n
		// Each group gets its own namespaced view of the one shared
		// network (identity for group 0); Byzantine behaviors install at
		// the same group-local IDs everywhere.
		c.groupNets[g] = WrapByzantine(transport.Grouped(c.Net, ids.GroupID(g)), suite, n, mb, spec.Byzantine)
		c.Groups[g] = make([]Node, n)
		c.GroupSMs[g] = make([]statemachine.StateMachine, n)
		for i := 0; i < n; i++ {
			node, err := c.buildNode(ids.GroupID(g), ids.ReplicaID(i))
			if err != nil {
				c.Net.Close()
				return nil, err
			}
			c.Groups[g][i] = node
		}
	}
	c.Nodes = c.Groups[0]
	c.SMs = c.GroupSMs[0]
	for _, group := range c.Groups {
		for _, node := range group {
			node.Start()
		}
	}
	if spec.Elastic {
		if err := c.seedPlacement(); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

// seedPlacement installs the bootstrap map through consensus: every
// group commits a PlaceInit (its fence map) and the meta group commits a
// MetaInit (the authoritative copy). Seeding is itself ordered — it
// rides the same client path as every other command — so replicas that
// recover from their WAL replay it like any write. The seeding client
// takes the top client ID; tests should stay below MaxClients-1.
func (c *Cluster) seedPlacement() error {
	id := ids.ClientID(c.Spec.MaxClients - 1)
	for g := range c.Groups {
		cl := c.NewClientIn(ids.GroupID(g), id)
		res, err := cl.Invoke(statemachine.EncodePlaceInit(ids.GroupID(g), c.Placement))
		if err == nil {
			if status, _ := statemachine.DecodeResult(res); status != statemachine.KVOK {
				err = fmt.Errorf("status %d", status)
			}
		}
		if err == nil && g == int(client.MetaGroup) {
			res, err = cl.Invoke(statemachine.EncodeMetaInit(c.Placement))
			if err == nil {
				if status, _ := statemachine.DecodeResult(res); status != statemachine.KVOK {
					err = fmt.Errorf("status %d", status)
				}
			}
		}
		cl.Close()
		if err != nil {
			return fmt.Errorf("cluster: seed placement on group %d: %w", g, err)
		}
	}
	return nil
}

// buildNode builds replica id of group g over the group's network,
// membership and data directory, with a fresh state machine.
func (c *Cluster) buildNode(g ids.GroupID, id ids.ReplicaID) (Node, error) {
	sm := c.Spec.NewStateMachine()
	c.GroupSMs[g][id] = sm // also rewritten by RestartNodeIn
	st, err := c.openStorage(g, id)
	if err != nil {
		return nil, err
	}
	return c.Spec.BuildNode(id, Env{
		Membership: c.groupMB[g], N: c.groupN[g], Network: c.groupNets[g],
		Suite: c.SuiteImpl, Store: st, StateMachine: sm,
	})
}

// StorageDir returns the data directory group-0 replica id journals to,
// or "" when durability is off.
func (c *Cluster) StorageDir(id ids.ReplicaID) string {
	return c.StorageDirIn(0, id)
}

// StorageDirIn returns the data directory replica id of group g
// journals to. Single-group deployments keep the historical <Dir>/r<i>
// layout; sharded ones add a per-group level, <Dir>/g<g>/r<i>, so each
// group is its own durability domain.
func (c *Cluster) StorageDirIn(g ids.GroupID, id ids.ReplicaID) string {
	if !c.Spec.Durability.Enabled() {
		return ""
	}
	if len(c.Groups) <= 1 {
		return filepath.Join(c.Spec.Durability.Dir, fmt.Sprintf("r%d", id))
	}
	return filepath.Join(c.Spec.Durability.Dir, fmt.Sprintf("g%d", g), fmt.Sprintf("r%d", id))
}

// openStorage opens the durable store of replica id in group g per the
// spec (nil when durability is off).
func (c *Cluster) openStorage(g ids.GroupID, id ids.ReplicaID) (storage.Store, error) {
	if !c.Spec.Durability.Enabled() {
		return nil, nil
	}
	return storage.Open(c.StorageDirIn(g, id), storage.DiskOptions{})
}

// RestartNode models a process crash plus restart of one group-0
// replica: the old engine is torn down — its in-memory protocol state
// dies with it — and a fresh replica is built over the same network
// address, state machine factory and data directory. With durability
// on, the new process recovers from its WAL and snapshot store and asks
// peers for a state transfer; with durability off it comes back
// amnesiac, as a real process without a disk would. Call Crash first to
// cut the old process off mid-stream (kill -9) rather than at a message
// boundary.
func (c *Cluster) RestartNode(id ids.ReplicaID) error {
	return c.RestartNodeIn(0, id)
}

// MembershipIn reports the current membership of one group (SeeMoRe
// only; the zero value otherwise). It starts equal to Cluster.Membership
// and diverges after ResizeGroupPublic.
func (c *Cluster) MembershipIn(g ids.GroupID) ids.Membership { return c.groupMB[g] }

// SizeIn reports the current replica count of one group.
func (c *Cluster) SizeIn(g ids.GroupID) int { return c.groupN[g] }

// ResizeGroupPublic grows (extra > 0) or shrinks (extra < 0) the public
// cloud of one SeeMoRe group by |extra| replicas, stop-and-copy: every
// replica in the group stops, the group is rebuilt under the new
// membership, and all replicas restart together — so there is never a
// mixed-membership quorum. Surviving replicas recover their log from
// disk and any new replica catches up by state transfer, which means
// the group's state survives only with Spec.Durability on; without it
// the whole group restarts amnesiac (fine for throwaway groups, wrong
// for one holding data). Growing needs Spec.ResizeHeadroom key slots.
// Clients and routers built before the resize keep the old membership's
// reply policy for this group; build fresh ones after.
//
// The logical half of a membership change — recording the new replica
// count in the placement map — is placement.CmdSetReplicas through the
// meta group; this is the physical half the harness performs once that
// command commits.
func (c *Cluster) ResizeGroupPublic(g ids.GroupID, extra int) error {
	if c.Spec.Protocol != SeeMoRe {
		return fmt.Errorf("cluster: public-cloud resize is SeeMoRe-only (protocol %v)", c.Spec.Protocol)
	}
	old := c.groupMB[g]
	mb, err := ids.NewMembership(old.S(), old.P()+extra, old.C(), old.M())
	if err != nil {
		return fmt.Errorf("cluster: resize group %v by %+d: %w", g, extra, err)
	}
	// Dry-run the per-node config build so a membership the mode cannot
	// run on (e.g. Dog with P < 3m+1) is rejected before any node stops.
	if _, err := config.NewCluster(mb, c.Spec.Mode, c.Spec.Timing); err != nil {
		return fmt.Errorf("cluster: resize group %v by %+d: %w", g, extra, err)
	}
	n := mb.N()
	if n > c.N+c.Spec.ResizeHeadroom {
		return fmt.Errorf("cluster: group %v cannot grow to %d replicas: only %d keyed (raise Spec.ResizeHeadroom)", g, n, c.N+c.Spec.ResizeHeadroom)
	}
	for _, node := range c.Groups[g] {
		node.Stop()
	}
	c.groupMB[g] = mb
	c.groupN[g] = n
	c.Groups[g] = make([]Node, n)
	c.GroupSMs[g] = make([]statemachine.StateMachine, n)
	if g == 0 {
		c.Nodes = c.Groups[0]
		c.SMs = c.GroupSMs[0]
	}
	for i := 0; i < n; i++ {
		node, err := c.buildNode(g, ids.ReplicaID(i))
		if err != nil {
			return fmt.Errorf("cluster: rebuild replica %d of %v: %w", i, g, err)
		}
		c.Groups[g][i] = node
	}
	for _, node := range c.Groups[g] {
		node.Start()
	}
	return nil
}

// RestartNodeIn is RestartNode targeted at one shard: replica id of
// group g restarts while every other group keeps committing untouched.
func (c *Cluster) RestartNodeIn(g ids.GroupID, id ids.ReplicaID) error {
	c.Groups[g][id].Stop()
	node, err := c.buildNode(g, id)
	if err != nil {
		return fmt.Errorf("cluster: restart replica %d of %v: %w", id, g, err)
	}
	c.Groups[g][id] = node
	node.Start()
	return nil
}

// Policy builds the protocol-appropriate reply policy for a group of n
// replicas (mb is its SeeMoRe membership). Policies are stateful — they
// track the group's mode and view — so every client needs its own.
func (s *Spec) Policy(mb ids.Membership, n int) client.Policy {
	switch s.Protocol {
	case SeeMoRe, Paxos:
		return client.NewSeeMoRePolicy(mb, s.EngineMode())
	case PBFT:
		return client.NewGenericPolicy(n, s.Crash+s.Byz+1)
	case UpRight:
		return client.NewGenericPolicy(n, s.Byz+1)
	default:
		return nil
	}
}

// NewClient builds a client against group 0 (the whole deployment when
// unsharded) with the protocol-appropriate reply policy.
func (c *Cluster) NewClient(id ids.ClientID) *client.Client {
	return c.NewClientIn(0, id)
}

// NewClientIn builds a client against one consensus group; its
// endpoint, policy and primary belief are all scoped to that group.
func (c *Cluster) NewClientIn(g ids.GroupID, id ids.ClientID) *client.Client {
	return c.NewClientInWithConfig(g, id, c.Spec.Client)
}

// NewClientInWithConfig is NewClientIn with explicit per-client knobs
// overriding Spec.Client — the restart tests use it to model a client
// process coming back with a reseeded initial timestamp.
func (c *Cluster) NewClientInWithConfig(g ids.GroupID, id ids.ClientID, cc config.Client) *client.Client {
	return client.NewWithConfig(id, c.SuiteImpl, transport.Grouped(c.Net, g),
		c.Spec.Policy(c.groupMB[g], c.groupN[g]), c.Spec.Timing, cc)
}

// NewRouter builds the shard-aware client of a sharded deployment: one
// per-group client under one key-routing front end. It also works on a
// single-group deployment (everything routes to group 0), so callers
// can be written against Router unconditionally.
func (c *Cluster) NewRouter(id ids.ClientID) (*client.Router, error) {
	clients := make([]*client.Client, len(c.Groups))
	for g := range clients {
		clients[g] = c.NewClientIn(ids.GroupID(g), id)
	}
	// Seed each router with its own snapshot of the bootstrap map;
	// wrong-epoch rejections and meta reads move it forward from there
	// independently of other routers.
	return client.NewRouter(clients, placement.NewCache(c.Placement.Clone()), nil)
}

// SeeMoReNode returns the typed SeeMoRe replica, a CFT one included
// (panics for the BFT baselines);
// the mode-switch example and the bench harness use it.
func (c *Cluster) SeeMoReNode(id ids.ReplicaID) *core.Replica {
	return c.Nodes[id].(*core.Replica)
}

// Stop shuts the whole deployment down, every group. Idempotent.
func (c *Cluster) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	for _, group := range c.Groups {
		for _, n := range group {
			n.Stop()
		}
	}
	c.Net.Close()
}

// ByzantineAttacks counts the frames the Spec.Byzantine replicas of
// every group altered, forged or replayed (see Adversary.Attacks).
func (c *Cluster) ByzantineAttacks() uint64 {
	var n uint64
	for _, adv := range c.groupNets {
		n += adv.Attacks()
	}
	return n
}

// CrashNode fail-stops a group-0 replica.
func (c *Cluster) CrashNode(id ids.ReplicaID) { c.Nodes[id].Crash() }

// CrashNodeIn fail-stops one replica of one shard; the other shards
// never notice.
func (c *Cluster) CrashNodeIn(g ids.GroupID, id ids.ReplicaID) { c.Groups[g][id].Crash() }

// RecoverNode resumes a crashed group-0 replica.
func (c *Cluster) RecoverNode(id ids.ReplicaID) { c.Nodes[id].Recover() }

// PartitionNode cuts a group-0 replica off the network (in-flight
// frames die too), modeling a network-level failure rather than a
// process crash.
func (c *Cluster) PartitionNode(id ids.ReplicaID) {
	c.PartitionNodeIn(0, id)
}

// PartitionNodeIn cuts one shard's replica off the network.
func (c *Cluster) PartitionNodeIn(g ids.GroupID, id ids.ReplicaID) {
	c.Net.Isolate(transport.GroupReplicaAddr(g, id))
}

// HealNode reconnects a partitioned group-0 replica.
func (c *Cluster) HealNode(id ids.ReplicaID) {
	c.HealNodeIn(0, id)
}

// HealNodeIn reconnects a partitioned replica of one shard.
func (c *Cluster) HealNodeIn(g ids.GroupID, id ids.ReplicaID) {
	c.Net.Heal(transport.GroupReplicaAddr(g, id))
}

// PartitionReplicaLinks cuts a group-0 replica off from its peer
// replicas while leaving its client links up — the asymmetric partition
// the lease-safety test needs: the severed node can still receive
// client reads but can neither commit nor renew its lease, while the
// rest of the group elects a new primary.
func (c *Cluster) PartitionReplicaLinks(id ids.ReplicaID) {
	c.PartitionReplicaLinksIn(0, id)
}

// PartitionReplicaLinksIn is PartitionReplicaLinks on one shard.
func (c *Cluster) PartitionReplicaLinksIn(g ids.GroupID, id ids.ReplicaID) {
	a := transport.GroupReplicaAddr(g, id)
	for peer := ids.ReplicaID(0); int(peer) < c.groupN[g]; peer++ {
		if peer != id {
			c.Net.Block(a, transport.GroupReplicaAddr(g, peer))
		}
	}
}

// HealReplicaLinks undoes PartitionReplicaLinks.
func (c *Cluster) HealReplicaLinks(id ids.ReplicaID) {
	c.HealReplicaLinksIn(0, id)
}

// HealReplicaLinksIn undoes PartitionReplicaLinksIn.
func (c *Cluster) HealReplicaLinksIn(g ids.GroupID, id ids.ReplicaID) {
	a := transport.GroupReplicaAddr(g, id)
	for peer := ids.ReplicaID(0); int(peer) < c.groupN[g]; peer++ {
		if peer != id {
			c.Net.Unblock(a, transport.GroupReplicaAddr(g, peer))
		}
	}
}
