package config

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ids"
)

func TestPublicNodesUniformPaperExample(t *testing.T) {
	// Section 4: S=2, c=1, α=0.3 → P = (2-3)/(0.9-1) = 10.
	p, err := PublicNodesUniform(2, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if p != 10 {
		t.Fatalf("P = %d, want 10 (paper's worked example)", p)
	}
}

func TestPublicNodesUniformRegimes(t *testing.T) {
	// S ≥ 2c+1: no rental needed.
	if _, err := PublicNodesUniform(3, 1, 0.3); !errors.Is(err, ErrNoRentalNeeded) {
		t.Errorf("S=3,c=1: err = %v, want ErrNoRentalNeeded", err)
	}
	// S = c: private cloud useless.
	if _, err := PublicNodesUniform(1, 1, 0.3); !errors.Is(err, ErrPrivateCloudUseless) {
		t.Errorf("S=c: err = %v, want ErrPrivateCloudUseless", err)
	}
	// S = 0 also useless.
	if _, err := PublicNodesUniform(0, 1, 0.3); !errors.Is(err, ErrPrivateCloudUseless) {
		t.Errorf("S=0: err = %v, want ErrPrivateCloudUseless", err)
	}
	// α ≥ 1/3: infeasible.
	if _, err := PublicNodesUniform(2, 1, 1.0/3.0); !errors.Is(err, ErrPublicCloudTooFaulty) {
		t.Errorf("α=1/3: err = %v, want ErrPublicCloudTooFaulty", err)
	}
	if _, err := PublicNodesUniform(2, 1, 0.5); !errors.Is(err, ErrPublicCloudTooFaulty) {
		t.Errorf("α=0.5: err = %v, want ErrPublicCloudTooFaulty", err)
	}
	// Negative ratio rejected.
	if _, err := PublicNodesUniform(2, 1, -0.1); err == nil {
		t.Error("negative α accepted")
	}
	// Negative crash bound rejected.
	if _, err := PublicNodesUniform(2, -1, 0.1); err == nil {
		t.Error("negative c accepted")
	}
}

// Property: the rented size always satisfies the hybrid network
// constraint N ≥ 3m + 2c + 1 with m = ceil-free αP malicious nodes.
func TestPublicNodesUniformSatisfiesConstraint(t *testing.T) {
	prop := func(cRaw uint8, aRaw uint16) bool {
		c := int(cRaw%4) + 1 // 1..4
		s := c + 1           // the only interesting regime: c < S < 2c+1
		if s >= 2*c+1 {
			return true
		}
		alpha := float64(aRaw%333) / 1000.0 // [0, 0.333)
		p, err := PublicNodesUniform(s, c, alpha)
		if err != nil {
			return errors.Is(err, ErrPublicCloudTooFaulty)
		}
		m := alpha * float64(p) // uniform-distribution assumption
		return float64(s+p) >= 3*m+2*float64(c)+1-1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicNodesUniformMixed(t *testing.T) {
	// β = 0 must reduce to Equation 2.
	p2, err := PublicNodesUniform(2, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := PublicNodesUniformMixed(2, 1, 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p3 {
		t.Fatalf("Eq3 with β=0 gives %d, Eq2 gives %d", p3, p2)
	}
	// Adding crash ratio strictly increases the rental size.
	pm, err := PublicNodesUniformMixed(2, 1, 0.2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if pm <= p3 {
		t.Fatalf("adding β should increase P: %d vs %d", pm, p3)
	}
	// 3α + 2β ≥ 1 infeasible.
	if _, err := PublicNodesUniformMixed(2, 1, 0.2, 0.2); !errors.Is(err, ErrPublicCloudTooFaulty) {
		t.Errorf("3α+2β=1: err = %v, want ErrPublicCloudTooFaulty", err)
	}
	if _, err := PublicNodesUniformMixed(2, 1, -0.1, 0.1); err == nil {
		t.Error("negative α accepted")
	}
	if _, err := PublicNodesUniformMixed(2, 1, 0.1, -0.1); err == nil {
		t.Error("negative β accepted")
	}
}

func TestPublicNodesBounded(t *testing.T) {
	// P = 3M + 2c + 1 - S.
	p, err := PublicNodesBounded(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p != 3*1+2*1+1-2 {
		t.Fatalf("P = %d, want 4", p)
	}
	// Clamp at zero when the private cloud is big enough for that M.
	// Regime requires c < S < 2c+1; use S=4, c=3: 3*0+2*3+1-4 = 3.
	p, err = PublicNodesBounded(4, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p != 3 {
		t.Fatalf("P = %d, want 3", p)
	}
	if _, err := PublicNodesBounded(2, 1, -1); err == nil {
		t.Error("negative M accepted")
	}
	if _, err := PublicNodesBounded(5, 1, 1); !errors.Is(err, ErrNoRentalNeeded) {
		t.Errorf("self-sufficient private cloud: err = %v", err)
	}
}

func TestPublicNodesBoundedMixed(t *testing.T) {
	// P = 3M + 2C + 2c + 1 - S. With C=0 it must equal the bounded form.
	pa, err := PublicNodesBounded(2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := PublicNodesBoundedMixed(2, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pa != pb {
		t.Fatalf("mixed with C=0 gives %d, bounded gives %d", pb, pa)
	}
	pc, err := PublicNodesBoundedMixed(2, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pc != pb+2 {
		t.Fatalf("each public crash adds 2 nodes: got %d, want %d", pc, pb+2)
	}
	if _, err := PublicNodesBoundedMixed(2, 1, 1, -1); err == nil {
		t.Error("negative C accepted")
	}
}

func TestTimingValidate(t *testing.T) {
	if err := DefaultTiming().Validate(); err != nil {
		t.Fatalf("default timing invalid: %v", err)
	}
	bad := DefaultTiming()
	bad.ViewChange = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero ViewChange accepted")
	}
	bad = DefaultTiming()
	bad.ClientRetry = -time.Second
	if err := bad.Validate(); err == nil {
		t.Error("negative ClientRetry accepted")
	}
	bad = DefaultTiming()
	bad.CheckpointPeriod = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero CheckpointPeriod accepted")
	}
	bad = DefaultTiming()
	bad.HighWaterMarkLag = bad.CheckpointPeriod - 1
	if err := bad.Validate(); err == nil {
		t.Error("window smaller than checkpoint period accepted")
	}
}

func TestNewCluster(t *testing.T) {
	mb := ids.MustMembership(2, 4, 1, 1)
	if _, err := NewCluster(mb, ids.Lion, DefaultTiming()); err != nil {
		t.Fatalf("valid cluster rejected: %v", err)
	}
	if _, err := NewCluster(mb, ids.Mode(7), DefaultTiming()); err == nil {
		t.Error("invalid mode accepted")
	}
	small := ids.MustMembership(4, 2, 1, 1) // P < 3m+1
	if _, err := NewCluster(small, ids.Dog, DefaultTiming()); err == nil {
		t.Error("Dog on a proxy-starved cluster accepted")
	}
	badTiming := DefaultTiming()
	badTiming.CheckpointPeriod = 0
	if _, err := NewCluster(mb, ids.Lion, badTiming); err == nil {
		t.Error("bad timing accepted")
	}
	// MustCluster panics on error.
	defer func() {
		if recover() == nil {
			t.Error("MustCluster did not panic on invalid input")
		}
	}()
	MustCluster(small, ids.Peacock, DefaultTiming())
}

func TestPipeliningValidate(t *testing.T) {
	cases := []struct {
		depth int
		ok    bool
	}{
		{0, true}, {1, true}, {16, true}, {MaxPipelineDepth, true},
		{-1, false}, {MaxPipelineDepth + 1, false},
	}
	for _, tc := range cases {
		err := Pipelining{Depth: tc.depth}.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Depth %d: Validate() = %v, want ok=%v", tc.depth, err, tc.ok)
		}
	}
	if got := (Pipelining{}).Normalized().Depth; got != DefaultPipelineDepth {
		t.Errorf("zero-value Pipelining normalizes to depth %d, want %d", got, DefaultPipelineDepth)
	}
	if got := (Pipelining{Depth: 1}).Normalized().Depth; got != 1 {
		t.Errorf("Depth 1 normalizes to %d", got)
	}
}

func TestShardingValidateAndNormalize(t *testing.T) {
	cases := []struct {
		s  Sharding
		ok bool
	}{
		{Sharding{}, true},
		{Sharding{Shards: 1, ReplicasPerShard: 6}, true},
		{Sharding{Shards: 4, ReplicasPerShard: 6}, true},
		{Sharding{Shards: MaxShards}, true},
		{Sharding{Shards: -1}, false},
		{Sharding{Shards: MaxShards + 1}, false},
		{Sharding{Shards: 2, ReplicasPerShard: -3}, false},
	}
	for _, tc := range cases {
		if err := tc.s.Validate(); (err == nil) != tc.ok {
			t.Errorf("%+v: Validate() = %v, want ok=%v", tc.s, err, tc.ok)
		}
	}
	if (Sharding{}).Enabled() || (Sharding{Shards: 1}).Enabled() {
		t.Error("single group reports sharded")
	}
	if !(Sharding{Shards: 2}).Enabled() {
		t.Error("2 shards reports unsharded")
	}
	if got := (Sharding{}).Normalized().Shards; got != 1 {
		t.Errorf("Normalized zero value has %d shards, want 1", got)
	}
}

func TestShardingArithmetic(t *testing.T) {
	s := Sharding{Shards: 3, ReplicasPerShard: 6}
	if g := s.GroupOf(0); g != 0 {
		t.Errorf("GroupOf(0) = %v", g)
	}
	if g := s.GroupOf(11); g != 1 {
		t.Errorf("GroupOf(11) = %v", g)
	}
	if id := s.GlobalID(2, 3); id != 15 {
		t.Errorf("GlobalID(2, 3) = %d", id)
	}
	lo, hi := s.Range(1)
	if lo != 6 || hi != 12 {
		t.Errorf("Range(1) = [%d, %d)", lo, hi)
	}
	// Round trip: every global index maps back to its group.
	for global := 0; global < 18; global++ {
		g := s.GroupOf(global)
		glo, ghi := s.Range(g)
		if global < glo || global >= ghi {
			t.Errorf("global %d: GroupOf = %v but Range(%v) = [%d, %d)", global, g, g, glo, ghi)
		}
	}
}

func TestClientValidateAndNormalize(t *testing.T) {
	cases := []struct {
		c  Client
		ok bool
	}{
		{Client{}, true},
		{Client{MaxRetries: 5, RetryTimeout: time.Second, Backoff: 2}, true},
		{Client{MaxRetries: -1}, false},
		{Client{RetryTimeout: -time.Second}, false},
		{Client{Backoff: -0.5}, false},
	}
	for _, tc := range cases {
		if err := tc.c.Validate(); (err == nil) != tc.ok {
			t.Errorf("%+v: Validate() = %v, want ok=%v", tc.c, err, tc.ok)
		}
	}
	// The zero value resolves to the historical behavior exactly.
	timing := DefaultTiming()
	n := Client{}.Normalized(timing)
	if n.MaxRetries != DefaultMaxRetries {
		t.Errorf("default MaxRetries = %d, want %d", n.MaxRetries, DefaultMaxRetries)
	}
	if n.RetryTimeout != timing.ClientRetry {
		t.Errorf("default RetryTimeout = %v, want %v", n.RetryTimeout, timing.ClientRetry)
	}
	if n.Backoff != 1 {
		t.Errorf("default Backoff = %v, want 1 (fixed timeout)", n.Backoff)
	}
	// Explicit values pass through untouched.
	n = Client{MaxRetries: 3, RetryTimeout: time.Second, Backoff: 1.5}.Normalized(timing)
	if n.MaxRetries != 3 || n.RetryTimeout != time.Second || n.Backoff != 1.5 {
		t.Errorf("explicit knobs rewritten: %+v", n)
	}
}
