package config

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/ids"
	"repro/internal/message"
)

// Errors returned by the planner. Each corresponds to one of the
// degenerate regimes Section 4 walks through.
var (
	// ErrNoRentalNeeded means S ≥ 2c+1: the private cloud can run a crash
	// fault-tolerant protocol (Paxos, which is Lion with no public cloud)
	// by itself.
	ErrNoRentalNeeded = errors.New("config: private cloud is self-sufficient (S ≥ 2c+1); run a CFT protocol")
	// ErrPrivateCloudUseless means S = 0 or S = c: the private cloud
	// contributes nothing and the enterprise should run pure BFT in the
	// public cloud.
	ErrPrivateCloudUseless = errors.New("config: private cloud contributes no healthy majority (S ≤ c); run pure BFT in the public cloud")
	// ErrPublicCloudTooFaulty means α ≥ 1/3 (or 3α+2β ≥ 1): no rental
	// size can satisfy the network constraint.
	ErrPublicCloudTooFaulty = errors.New("config: public cloud failure ratio too high to ever satisfy the network-size constraint")
)

// PublicNodesUniform implements Equation 2:
//
//	P = ceil( (S - (2c+1)) / (3α - 1) )
//
// for a public cloud with a uniformly distributed malicious ratio α = m/P.
// The paper's worked example: S=2, c=1, α=0.3 → P=10.
func PublicNodesUniform(s, c int, alpha float64) (int, error) {
	if err := checkPrivate(s, c); err != nil {
		return 0, err
	}
	if alpha < 0 {
		return 0, fmt.Errorf("config: negative malicious ratio %v", alpha)
	}
	if 3*alpha >= 1 {
		return 0, ErrPublicCloudTooFaulty
	}
	// Both numerator and denominator are negative in the useful regime
	// c < S < 2c+1, so the quotient is positive.
	p := float64(s-(2*c+1)) / (3*alpha - 1)
	return int(math.Ceil(p - 1e-9)), nil
}

// PublicNodesUniformMixed implements Equation 3, where the public cloud
// publishes both a malicious ratio α = m/P and a crash ratio β = c_pub/P:
//
//	P = ceil( (S - (2c+1)) / (3α + 2β - 1) )
func PublicNodesUniformMixed(s, c int, alpha, beta float64) (int, error) {
	if err := checkPrivate(s, c); err != nil {
		return 0, err
	}
	if alpha < 0 || beta < 0 {
		return 0, fmt.Errorf("config: negative failure ratio (α=%v, β=%v)", alpha, beta)
	}
	if 3*alpha+2*beta >= 1 {
		return 0, ErrPublicCloudTooFaulty
	}
	p := float64(s-(2*c+1)) / (3*alpha + 2*beta - 1)
	return int(math.Ceil(p - 1e-9)), nil
}

// PublicNodesBounded implements the cluster-bound variant of Section 4:
// the provider guarantees at most M concurrent malicious failures in the
// rented cluster regardless of its size, so
//
//	P = (3M + 2c + 1) - S
//
// A result ≤ 0 is clamped to 0 (the private cloud already satisfies the
// constraint for that M).
func PublicNodesBounded(s, c, maxMalicious int) (int, error) {
	if err := checkPrivate(s, c); err != nil {
		return 0, err
	}
	if maxMalicious < 0 {
		return 0, fmt.Errorf("config: negative malicious bound %d", maxMalicious)
	}
	p := 3*maxMalicious + 2*c + 1 - s
	if p < 0 {
		p = 0
	}
	return p, nil
}

// PublicNodesBoundedMixed implements the final Section-4 variant where the
// provider reports both concurrent malicious (M) and crash (C) bounds:
//
//	P = (3M + 2C + 2c + 1) - S
func PublicNodesBoundedMixed(s, c, maxMalicious, maxCrash int) (int, error) {
	if err := checkPrivate(s, c); err != nil {
		return 0, err
	}
	if maxMalicious < 0 || maxCrash < 0 {
		return 0, fmt.Errorf("config: negative failure bound (M=%d, C=%d)", maxMalicious, maxCrash)
	}
	p := 3*maxMalicious + 2*maxCrash + 2*c + 1 - s
	if p < 0 {
		p = 0
	}
	return p, nil
}

// checkPrivate classifies the private cloud per Section 4: only
// c < S < 2c+1 makes renting useful.
func checkPrivate(s, c int) error {
	if c < 0 {
		return fmt.Errorf("config: negative crash bound %d", c)
	}
	if s <= c {
		return ErrPrivateCloudUseless
	}
	if s >= 2*c+1 {
		return ErrNoRentalNeeded
	}
	return nil
}

// Timing collects the protocol timers. The zero value is not useful; use
// DefaultTiming and override fields as needed.
type Timing struct {
	// ViewChange is τ, the time a backup waits for a COMMIT after seeing
	// a PREPARE before suspecting the primary (Section 5.1).
	ViewChange time.Duration
	// ClientRetry is how long a client waits for its reply quorum before
	// broadcasting the request to all replicas.
	ClientRetry time.Duration
	// CheckpointPeriod is the number of executed requests between
	// checkpoints (the paper's experiments use 10000).
	CheckpointPeriod uint64
	// HighWaterMarkLag bounds how far the sequence window may run ahead
	// of the last stable checkpoint before the primary stalls new
	// requests. PBFT calls this the log window.
	HighWaterMarkLag uint64
}

// DefaultTiming returns timers suited to the in-process simulated network
// used by the tests and benchmarks.
func DefaultTiming() Timing {
	return Timing{
		ViewChange:       150 * time.Millisecond,
		ClientRetry:      200 * time.Millisecond,
		CheckpointPeriod: 128,
		HighWaterMarkLag: 1024,
	}
}

// Validate rejects nonsensical timing values.
func (t Timing) Validate() error {
	switch {
	case t.ViewChange <= 0:
		return errors.New("config: ViewChange timer must be positive")
	case t.ClientRetry <= 0:
		return errors.New("config: ClientRetry timer must be positive")
	case t.CheckpointPeriod == 0:
		return errors.New("config: CheckpointPeriod must be positive")
	case t.HighWaterMarkLag < t.CheckpointPeriod:
		return errors.New("config: HighWaterMarkLag must be at least one checkpoint period")
	}
	return nil
}

// Batching governs how a primary packs client requests into consensus
// slots. Amortizing one agreement round (and its signing/MAC work) over
// many requests is the standard BFT throughput lever; the zero value
// means one request per slot.
type Batching struct {
	// BatchSize is the maximum number of requests per slot. Values ≤ 1
	// mean one: every request is proposed as soon as the proposal window
	// allows.
	BatchSize int
	// BatchTimeout bounds how long a partial batch may wait for more
	// requests before the primary flushes it anyway. Ignored when
	// BatchSize ≤ 1; defaults to DefaultBatchTimeout when batching is on
	// and no timeout is set.
	BatchTimeout time.Duration
}

// DefaultBatchTimeout is the flush deadline used when batching is
// enabled without an explicit timeout: short enough to stay invisible
// next to protocol round trips, long enough to fill batches under
// load. Timeout flushes run on engine ticks; replicas cap their tick
// at BatchTimeout when batching is on so the deadline holds.
const DefaultBatchTimeout = 2 * time.Millisecond

// Validate rejects nonsensical batching values.
func (b Batching) Validate() error {
	if b.BatchSize > message.MaxBatch {
		return fmt.Errorf("config: BatchSize %d exceeds wire limit %d", b.BatchSize, message.MaxBatch)
	}
	if b.BatchTimeout < 0 {
		return errors.New("config: negative BatchTimeout")
	}
	return nil
}

// Normalized returns the batching knobs with defaults applied:
// BatchSize floors at 1 and an unset timeout becomes
// DefaultBatchTimeout when batching is enabled.
func (b Batching) Normalized() Batching {
	if b.BatchSize < 1 {
		b.BatchSize = 1
	}
	if b.BatchSize > 1 && b.BatchTimeout <= 0 {
		b.BatchTimeout = DefaultBatchTimeout
	}
	return b
}

// Pipelining governs how many consensus slots a primary may keep in
// flight at once. With Depth = K the primary assigns and proposes up to
// K sequence numbers concurrently, overlapping their agreement round
// trips, and holds further requests back until a window slot commits.
// Commits may arrive out of order; the executor still applies slots
// strictly in sequence order. Depth = 1 degenerates to stop-and-wait
// (one slot at a time), the baseline the ablation compares against.
// The knob adds no wire surface: frames are the same at every depth.
type Pipelining struct {
	// Depth is the maximum number of proposed-but-uncommitted slots the
	// primary may hold. 0 means DefaultPipelineDepth.
	Depth int
}

// DefaultPipelineDepth is the window a zero Depth gets. Its floor comes
// from the callers that leave Depth at 0: at one request per slot a
// closed-loop population of n clients keeps at most n slots in flight,
// and the largest such population driven in-tree is seemore-bench's
// documented `-clients 1,4,16,64,128` sweep (its default sweep tops out
// at 64, the sim at 4, the repo benchmark at 2). At 128 none of them
// ever waits on the window; a deployment that wants a tighter bound
// sets Depth.
const DefaultPipelineDepth = 128

// MaxPipelineDepth caps the pipeline window: deeper windows than this
// exceed any sensible log window and signal a misconfiguration.
const MaxPipelineDepth = 1024

// Validate rejects nonsensical pipelining values.
func (p Pipelining) Validate() error {
	if p.Depth < 0 {
		return fmt.Errorf("config: negative PipelineDepth %d", p.Depth)
	}
	if p.Depth > MaxPipelineDepth {
		return fmt.Errorf("config: PipelineDepth %d exceeds limit %d", p.Depth, MaxPipelineDepth)
	}
	return nil
}

// Normalized returns the pipelining knob with its default applied: an
// unset Depth becomes DefaultPipelineDepth.
func (p Pipelining) Normalized() Pipelining {
	if p.Depth == 0 {
		p.Depth = DefaultPipelineDepth
	}
	return p
}

// Leases configures leader leases for the trusted modes (Lion and
// Dog). A primary whose latest quorum-acknowledged slot committed at
// propose-time T holds the read lease until T + Duration on its own
// clock; within the lease it serves linearizable reads locally, with no
// slot allocated and no network round. The zero value disables leases
// entirely — every read orders through consensus as before.
//
// Safety rests on a timing assumption the deployment must honor: the
// lease (plus the worst-case clock skew between any replica pair) must
// fit inside the view-change timer, because a backup starts suspecting
// the primary no earlier than the propose time of the slot that armed
// the lease — so no new view can activate while an old primary still
// believes it holds a lease. Validate (via Cluster assembly and the
// replica constructor) enforces Duration + MaxClockSkew ≤ ViewChange.
type Leases struct {
	// Duration is how long each quorum-acknowledged slot extends the
	// primary's read lease, measured from the slot's propose time.
	// Zero disables leases.
	Duration time.Duration
	// MaxClockSkew is the assumed bound on clock-rate divergence between
	// any two replicas over one lease window; it shrinks nothing at the
	// holder but widens the margin Validate demands from ViewChange.
	MaxClockSkew time.Duration
}

// Enabled reports whether leader leases are on.
func (l Leases) Enabled() bool { return l.Duration > 0 }

// Validate checks the lease knob against the view-change timer that
// anchors its safety argument.
func (l Leases) Validate(t Timing) error {
	if l.Duration < 0 {
		return errors.New("config: negative lease Duration")
	}
	if l.MaxClockSkew < 0 {
		return errors.New("config: negative lease MaxClockSkew")
	}
	if l.Enabled() && l.Duration+l.MaxClockSkew > t.ViewChange {
		return fmt.Errorf(
			"config: lease Duration %v + MaxClockSkew %v exceeds ViewChange timer %v (an expired-view primary could still think it holds a lease)",
			l.Duration, l.MaxClockSkew, t.ViewChange)
	}
	return nil
}

// Durability configures the durable storage subsystem
// (internal/storage): a write-ahead log plus checkpoint snapshots that
// let a crashed replica recover its consensus state on restart. The
// zero value disables durability entirely — the replica runs fully in
// memory, byte-identical to the pre-storage behavior.
type Durability struct {
	// Dir is the data directory (the -data-dir flag of cmd/seemore).
	// Empty disables durability.
	Dir string
}

// Enabled reports whether durable storage is configured.
func (d Durability) Enabled() bool { return d.Dir != "" }

// MaxShards caps the number of consensus groups in a sharded
// deployment. The transport address space supports vastly more; this
// bound exists to catch planner typos, not capacity limits.
const MaxShards = 4096

// Sharding describes the horizontal axis of a deployment: the keyspace
// is hash-partitioned across Shards independent consensus groups, each
// a full cluster of ReplicasPerShard replicas with its own primary,
// views, checkpoints and (optionally) durable store. The zero value —
// and any Shards ≤ 1 — means a single group, byte-identical to the
// pre-sharding deployment.
type Sharding struct {
	// Shards is the number of consensus groups S.
	Shards int
	// ReplicasPerShard is the size N of each group. The groups are
	// homogeneous: same membership shape, same failure bounds.
	ReplicasPerShard int
}

// Enabled reports whether the deployment is actually sharded.
func (s Sharding) Enabled() bool { return s.Shards >= 2 }

// Validate rejects nonsensical sharding values.
func (s Sharding) Validate() error {
	if s.Shards < 0 {
		return fmt.Errorf("config: negative shard count %d", s.Shards)
	}
	if s.Shards > MaxShards {
		return fmt.Errorf("config: shard count %d exceeds limit %d", s.Shards, MaxShards)
	}
	if s.ReplicasPerShard < 0 {
		return fmt.Errorf("config: negative replicas per shard %d", s.ReplicasPerShard)
	}
	return nil
}

// Normalized floors Shards at 1 (a deployment always has at least one
// group).
func (s Sharding) Normalized() Sharding {
	if s.Shards < 1 {
		s.Shards = 1
	}
	return s
}

// GroupOf returns the group that a global (deployment-wide) replica
// index belongs to when groups are laid out contiguously.
func (s Sharding) GroupOf(global int) ids.GroupID {
	if s.ReplicasPerShard <= 0 {
		return 0
	}
	return ids.GroupID(global / s.ReplicasPerShard)
}

// GlobalID returns the deployment-wide index of group g's replica
// `local` in the contiguous layout.
func (s Sharding) GlobalID(g ids.GroupID, local int) int {
	return int(g)*s.ReplicasPerShard + local
}

// Range returns the half-open global index range [lo, hi) occupied by
// group g.
func (s Sharding) Range(g ids.GroupID) (lo, hi int) {
	lo = s.GlobalID(g, 0)
	return lo, lo + s.ReplicasPerShard
}

// DefaultMaxRetries is the client's retransmission budget when the
// Client spec leaves MaxRetries unset — the value the pre-knob client
// hard-coded.
const DefaultMaxRetries = 20

// Client collects the client-side retry knobs. The zero value
// reproduces the historical behavior exactly: DefaultMaxRetries
// broadcasts, a fixed retransmit timeout of Timing.ClientRetry, and no
// backoff.
type Client struct {
	// MaxRetries bounds the number of broadcast retransmissions per
	// request; 0 means DefaultMaxRetries.
	MaxRetries int
	// RetryTimeout is the wait before the first retransmission; 0 means
	// Timing.ClientRetry.
	RetryTimeout time.Duration
	// Backoff multiplies the retransmit timeout after every retry
	// (exponential backoff). Values ≤ 1 (including 0, the default) keep
	// the timeout fixed. The client caps any backoff-grown wait at one
	// minute so a deep retry budget cannot compound into an unbounded
	// Invoke.
	Backoff float64
	// InitialTimestamp seeds the client's request timestamp counter.
	// The replicated client table (exactly-once semantics) only executes
	// requests with strictly increasing timestamps per client id — and
	// it survives restarts via snapshots on a durable cluster — so a
	// restarted client process reusing an id must start above its old
	// counter. The CLI seeds this from wall-clock nanoseconds; the zero
	// value keeps the deterministic zero start the simulation tests
	// depend on.
	InitialTimestamp uint64
}

// Validate rejects nonsensical client values.
func (c Client) Validate() error {
	switch {
	case c.MaxRetries < 0:
		return fmt.Errorf("config: negative MaxRetries %d", c.MaxRetries)
	case c.RetryTimeout < 0:
		return errors.New("config: negative RetryTimeout")
	case c.Backoff < 0:
		return errors.New("config: negative Backoff")
	}
	return nil
}

// Normalized applies the defaults, resolving the unset RetryTimeout
// against the cluster's Timing.
func (c Client) Normalized(t Timing) Client {
	if c.MaxRetries == 0 {
		c.MaxRetries = DefaultMaxRetries
	}
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = t.ClientRetry
	}
	if c.Backoff < 1 {
		c.Backoff = 1
	}
	return c
}

// Cluster is the full static configuration of one SeeMoRe deployment:
// membership, initial mode, timers, request batching, slot pipelining
// and durability.
type Cluster struct {
	Membership ids.Membership
	// InitialMode is the mode the cluster boots in (view 0).
	InitialMode ids.Mode
	Timing      Timing
	// Batching configures request batching at the primary; the zero
	// value runs one request per slot.
	Batching Batching
	// Pipelining bounds the primary's in-flight proposal window; the
	// zero value is a window of DefaultPipelineDepth slots.
	Pipelining Pipelining
	// Leases configures leader leases for local linearizable reads at
	// trusted-mode primaries; the zero value orders every read.
	Leases Leases
}

// NewCluster validates the pieces together: the membership must support
// the initial mode and the timing must be sane. Batching and Pipelining
// start at their zero values (one request per slot, the default
// window); set the fields before building replicas to change them.
func NewCluster(mb ids.Membership, mode ids.Mode, timing Timing) (Cluster, error) {
	if !mode.Valid() {
		return Cluster{}, fmt.Errorf("config: invalid initial mode %d", int(mode))
	}
	if err := mb.SupportsMode(mode); err != nil {
		return Cluster{}, err
	}
	if err := timing.Validate(); err != nil {
		return Cluster{}, err
	}
	return Cluster{Membership: mb, InitialMode: mode, Timing: timing}, nil
}

// MustCluster is NewCluster that panics on error, for tests and examples.
func MustCluster(mb ids.Membership, mode ids.Mode, timing Timing) Cluster {
	c, err := NewCluster(mb, mode, timing)
	if err != nil {
		panic(err)
	}
	return c
}
