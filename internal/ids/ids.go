// Package ids defines replica identity and the view arithmetic used by
// every SeeMoRe mode and by the baseline protocols.
//
// Replicas are numbered 0..N-1. Replicas in the private cloud (trusted,
// crash-only) hold identifiers 0..S-1; replicas in the public cloud
// (untrusted, possibly Byzantine) hold identifiers S..N-1, exactly as in
// Section 5 of the paper. All primary/proxy/transferer selection rules
// live here so that the protocol packages share one audited copy.
package ids

import "fmt"

// ReplicaID identifies a replica within a cluster. IDs are dense integers
// in [0, N). The ordering is significant: the private cloud occupies the
// prefix [0, S).
type ReplicaID int

// ClientID identifies a client. Client IDs live in a separate namespace
// from replica IDs and are only used for reply routing and the
// exactly-once table.
type ClientID int64

// Nobody is the sentinel for "no replica" (for example, the transferer of
// a view in a mode that has no transferer).
const Nobody ReplicaID = -1

// GroupID identifies one consensus group (shard) in a sharded
// deployment. A deployment is S independent groups, each a full hybrid
// cluster with its own primary, views and checkpoints; the keyspace is
// partitioned across groups (internal/placement) and clients route each
// operation to its owner group (client.Router). Group 0 is the only
// group of an unsharded deployment, so every pre-sharding identifier is
// implicitly group-0-qualified.
type GroupID int

// String implements fmt.Stringer.
func (g GroupID) String() string { return fmt.Sprintf("group:%d", int(g)) }

// Valid reports whether g is a usable group identifier.
func (g GroupID) Valid() bool { return g >= 0 }

// Mode enumerates the three operating modes of SeeMoRe (Section 5). The
// zero value is Lion so that a fresh cluster starts in the cheapest mode.
type Mode int

const (
	// Lion keeps the primary in the private cloud and runs agreement in
	// two phases across the whole receiving network of 3m+2c+1 nodes
	// with quorums of 2m+c+1 (Section 5.1).
	Lion Mode = iota
	// Dog keeps a trusted primary but delegates agreement to 3m+1 public
	// proxies with quorums of 2m+1 (Section 5.2).
	Dog
	// Peacock runs PBFT among 3m+1 public proxies with an untrusted
	// primary; view changes are driven by a trusted transferer
	// (Section 5.3).
	Peacock
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Lion:
		return "Lion"
	case Dog:
		return "Dog"
	case Peacock:
		return "Peacock"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Valid reports whether m is one of the three defined modes.
func (m Mode) Valid() bool { return m >= Lion && m <= Peacock }

// View is a monotonically increasing configuration number. Within a view
// one replica is the primary and the rest are backups (Section 5).
type View uint64

// Membership captures the static composition of a hybrid cluster: the
// private cloud size S, the public cloud size P, and the failure bounds
// c (crashes in the private cloud) and m (Byzantine nodes in the public
// cloud). Membership is immutable after construction.
type Membership struct {
	s, p int // cloud sizes
	c, m int // failure bounds
}

// NewMembership validates and builds a Membership. It enforces the
// structural constraints from Sections 3 and 5:
//
//   - c ≥ 0, m ≥ 0, S ≥ c (the private cloud can hold its own crashes),
//   - S ≥ 1 (Lion and Dog need at least one trusted primary; a cluster
//     with S = 0 should run plain PBFT instead, as Section 4 observes),
//   - P ≥ m,
//   - N = S+P ≥ 3m+2c+1 (Equation 1, the minimum hybrid network size).
//
// Dog and Peacock additionally need P ≥ 3m+1 proxies; that is checked by
// SupportsMode because a Lion-only deployment may legitimately run with a
// smaller public cloud.
func NewMembership(s, p, c, m int) (Membership, error) {
	switch {
	case c < 0 || m < 0:
		return Membership{}, fmt.Errorf("ids: negative failure bound (c=%d, m=%d)", c, m)
	case s < 1:
		return Membership{}, fmt.Errorf("ids: private cloud must hold at least one trusted node (S=%d)", s)
	case s <= c:
		return Membership{}, fmt.Errorf("ids: private cloud of %d nodes cannot survive %d crashes with a live trusted primary", s, c)
	case p < m:
		return Membership{}, fmt.Errorf("ids: public cloud of %d nodes cannot contain %d Byzantine nodes", p, m)
	case s+p < 3*m+2*c+1:
		return Membership{}, fmt.Errorf("ids: network size %d below hybrid minimum 3m+2c+1 = %d", s+p, 3*m+2*c+1)
	}
	return Membership{s: s, p: p, c: c, m: m}, nil
}

// MustMembership is NewMembership that panics on error; intended for
// tests and examples with hand-checked constants.
func MustMembership(s, p, c, m int) Membership {
	mb, err := NewMembership(s, p, c, m)
	if err != nil {
		panic(err)
	}
	return mb
}

// S returns the private-cloud size.
func (mb Membership) S() int { return mb.s }

// P returns the public-cloud size.
func (mb Membership) P() int { return mb.p }

// C returns the bound on crash failures in the private cloud.
func (mb Membership) C() int { return mb.c }

// M returns the bound on Byzantine failures in the public cloud.
func (mb Membership) M() int { return mb.m }

// N returns the total network size S+P.
func (mb Membership) N() int { return mb.s + mb.p }

// String implements fmt.Stringer.
func (mb Membership) String() string {
	return fmt.Sprintf("Membership{S=%d P=%d c=%d m=%d}", mb.s, mb.p, mb.c, mb.m)
}

// IsTrusted reports whether r lives in the private cloud.
func (mb Membership) IsTrusted(r ReplicaID) bool {
	return r >= 0 && int(r) < mb.s
}

// IsUntrusted reports whether r lives in the public cloud.
func (mb Membership) IsUntrusted(r ReplicaID) bool {
	return int(r) >= mb.s && int(r) < mb.N()
}

// Contains reports whether r is a member of the cluster at all.
func (mb Membership) Contains(r ReplicaID) bool {
	return r >= 0 && int(r) < mb.N()
}

// All returns every replica ID in ascending order. The result is freshly
// allocated and may be mutated by the caller.
func (mb Membership) All() []ReplicaID {
	out := make([]ReplicaID, mb.N())
	for i := range out {
		out[i] = ReplicaID(i)
	}
	return out
}

// Trusted returns the private-cloud replica IDs.
func (mb Membership) Trusted() []ReplicaID {
	out := make([]ReplicaID, mb.s)
	for i := range out {
		out[i] = ReplicaID(i)
	}
	return out
}

// Untrusted returns the public-cloud replica IDs.
func (mb Membership) Untrusted() []ReplicaID {
	out := make([]ReplicaID, mb.p)
	for i := range out {
		out[i] = ReplicaID(mb.s + i)
	}
	return out
}

// ProxyCount returns 3m+1, the number of public-cloud proxies used by the
// Dog and Peacock modes.
func (mb Membership) ProxyCount() int { return 3*mb.m + 1 }

// SupportsMode reports whether the cluster is large enough to run mode md
// and, if not, explains why.
func (mb Membership) SupportsMode(md Mode) error {
	switch md {
	case Lion:
		return nil // NewMembership already guarantees N ≥ 3m+2c+1 and S > c.
	case Dog, Peacock:
		if mb.p < mb.ProxyCount() {
			return fmt.Errorf("ids: mode %s needs 3m+1 = %d public proxies but the public cloud has %d nodes",
				md, mb.ProxyCount(), mb.p)
		}
		return nil
	default:
		return fmt.Errorf("ids: unknown mode %d", int(md))
	}
}

// Primary returns the primary of view v in mode md.
//
// Lion and Dog place the primary in the private cloud: p = v mod S
// (Algorithms 1 and 2). Peacock places it in the public cloud:
// p = (v mod P) + S (Section 5.3), which by construction is also the
// first proxy of the view.
func (mb Membership) Primary(md Mode, v View) ReplicaID {
	switch md {
	case Lion, Dog:
		return ReplicaID(int(v % View(mb.s)))
	case Peacock:
		return ReplicaID(int(v%View(mb.p)) + mb.s)
	default:
		return Nobody
	}
}

// Transferer returns the trusted node that drives the view change *into*
// view v when the cluster is (or is becoming) Peacock: t = v mod S
// (Section 5.3). For Lion and Dog the new primary plays that role, so the
// transferer equals the primary.
func (mb Membership) Transferer(md Mode, v View) ReplicaID {
	switch md {
	case Peacock:
		return ReplicaID(int(v % View(mb.s)))
	case Lion, Dog:
		return mb.Primary(md, v)
	default:
		return Nobody
	}
}

// IsProxy reports whether r is one of the 3m+1 proxies of view v. The
// paper states the rule as r − (v mod P) ∈ [S, S+3m]; we evaluate it with
// wraparound inside the public segment so that every view has exactly
// 3m+1 proxies regardless of the offset. Lion has no proxies: every
// replica participates, so IsProxy returns false.
func (mb Membership) IsProxy(md Mode, v View, r ReplicaID) bool {
	if md == Lion || !mb.IsUntrusted(r) {
		return false
	}
	off := int(v % View(mb.p))               // rotation within the public segment
	k := (int(r) - mb.s - off + mb.p) % mb.p // position of r relative to the rotation
	return k < mb.ProxyCount()
}

// Proxies returns the 3m+1 proxies of view v in ascending rotation order
// (the first element is the Peacock primary of the view). For Lion it
// returns nil.
func (mb Membership) Proxies(md Mode, v View) []ReplicaID {
	if md == Lion {
		return nil
	}
	off := int(v % View(mb.p))
	out := make([]ReplicaID, mb.ProxyCount())
	for k := range out {
		out[k] = ReplicaID(mb.s + (off+k)%mb.p)
	}
	return out
}

// Participants returns the replicas that actively vote in the agreement
// of view v: everyone in Lion, the proxies in Dog and Peacock.
func (mb Membership) Participants(md Mode, v View) []ReplicaID {
	if md == Lion {
		return mb.All()
	}
	return mb.Proxies(md, v)
}

// AgreementQuorum returns the number of matching votes needed to commit a
// request in mode md.
//
// Dog and Peacock always run among exactly 3m+1 proxies, so their quorum
// is the paper's 2m+1. Lion runs over the whole network; at the paper's
// minimum network size N = 3m+2c+1 its quorum is the paper's 2m+c+1, but
// if the cluster is over-provisioned (N larger than the minimum, e.g.
// extra rented nodes for load balancing, Section 4) the quorum must grow
// to ceil((N+m+1)/2) so that any two quorums still intersect in at least
// m+1 nodes — the safety core of Section 5.1's correctness argument.
func (mb Membership) AgreementQuorum(md Mode) int {
	if md == Lion {
		n := mb.N()
		return (n + mb.m + 2) / 2 // ceil((N+m+1)/2)
	}
	return 2*mb.m + 1
}

// ViewChangeQuorum returns the number of VIEW-CHANGE messages the new
// primary (or transferer) must collect: one less than the agreement
// quorum for Lion (the new primary counts itself, Section 5.1), 2m+1 for
// Dog and Peacock (Sections 5.2–5.3).
func (mb Membership) ViewChangeQuorum(md Mode) int {
	if md == Lion {
		return mb.AgreementQuorum(Lion) - 1
	}
	return 2*mb.m + 1
}

// InformQuorum returns the number of matching INFORM messages a non-proxy
// needs before executing: 2m+1 when it also holds the matching PREPARE
// from the trusted primary (Dog), m+1 otherwise (Peacock, and the
// Dog COMMIT-observer path). The paper uses both thresholds; callers pick
// via the havePrimaryPrepare flag.
func (mb Membership) InformQuorum(havePrimaryPrepare bool) int {
	if havePrimaryPrepare {
		return 2*mb.m + 1
	}
	return mb.m + 1
}

// ReplyQuorum returns how many matching REPLY messages a client must
// collect in mode md during normal operation: 1 from the trusted primary
// in Lion, 2m+1 from proxies in Dog and Peacock.
func (mb Membership) ReplyQuorum(md Mode) int {
	if md == Lion {
		return 1
	}
	return 2*mb.m + 1
}

// RetryReplyQuorum returns the reply quorum after a client retransmit:
// one private-cloud reply or m+1 matching public-cloud replies (Lion),
// m+1 proxy replies (Dog and Peacock).
func (mb Membership) RetryReplyQuorum() int { return mb.m + 1 }
