// Package placement makes the key→group mapping of a sharded deployment
// a replicated, epoch-versioned decision instead of a deployment-time
// constant. A placement Map assigns contiguous 64-bit hash ranges to
// consensus groups and carries a per-group replica count; every change —
// shard split, merge, range move, replica-count change — is a Cmd
// applied to the Map by the designated meta group's state machine, so
// reconfiguration is an agreed-upon event in a replicated log, exactly
// the trick the paper plays for mode changes.
//
// Epochs fence the transition: the Map's epoch bumps on every command,
// replicas stamp their current epoch on replies and reject operations
// for keys they no longer (or do not yet) own with the current Map
// attached, and clients (client.Router) cache the newest Map they have
// seen and reroute. The Controller in this package drives a live range
// migration — seal at the old owner, paged export, digest-verified
// install at the new owner, purge — with every step idempotent, so a
// crashed controller (or a crashed owner) resumes instead of stranding
// the range.
package placement

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"repro/internal/ids"
	"repro/internal/wire"
)

// Hash maps a key onto the 64-bit ring placement ranges cover: FNV-1a
// followed by the 64-bit murmur3 finalizer, because FNV-1a alone
// diffuses short keys poorly into the high bits and range ownership is
// decided by exactly those bits. It is the only key hash in the tree.
func Hash(key string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(key))
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Range is a half-open hash interval [Lo, Hi). Hi = 0 means the top of
// the hash space, so the whole space is {0, 0}.
type Range struct {
	Lo, Hi uint64
}

// Contains reports whether hash h falls inside the range.
func (r Range) Contains(h uint64) bool {
	return h >= r.Lo && (r.Hi == 0 || h < r.Hi)
}

// Empty reports whether the range covers no hashes.
func (r Range) Empty() bool { return r.Hi != 0 && r.Lo >= r.Hi }

// String implements fmt.Stringer (hex bounds, matching seemore-plan).
func (r Range) String() string {
	if r.Hi == 0 {
		return fmt.Sprintf("[%016x, 2^64)", r.Lo)
	}
	return fmt.Sprintf("[%016x, %016x)", r.Lo, r.Hi)
}

// Entry assigns one hash range to its owner group.
type Entry struct {
	Range Range
	Group ids.GroupID
}

// GroupSpec records one provisioned consensus group and its intended
// replica count. Groups owning no ranges are spares: provisioned,
// running, and empty — the targets of future splits.
type GroupSpec struct {
	Group    ids.GroupID
	Replicas int
}

// Migration is the in-flight range handoff a Map carries between the
// command that decided it and the completion that retires it. Epoch is
// the epoch the move commits at (the Map's own epoch).
type Migration struct {
	Epoch    uint64
	Range    Range
	From, To ids.GroupID
}

// Map is one epoch of placement: a partition of the whole hash space
// into owned ranges, the provisioned group set, and at most one pending
// migration. Maps are immutable by convention — Apply and
// CompletePending return fresh copies — so cached pointers are safe to
// share.
type Map struct {
	Epoch   uint64
	Ranges  []Entry     // sorted by Range.Lo; exactly partitions the hash space
	Groups  []GroupSpec // sorted by Group; every provisioned group, spares included
	Pending *Migration
}

// Bootstrap builds the initial placement: the first `owners` groups
// split the hash space into equal contiguous ranges — group g owns
// [g·w, (g+1)·w) with w = ⌈2⁶⁴/owners⌉, the last range closing at the
// top of the space — and groups [owners, groups) are provisioned
// spares. Every deployment routes through it: a static one simply
// never leaves epoch 1.
func Bootstrap(owners, groups, replicas int) (*Map, error) {
	if owners < 1 || groups < owners {
		return nil, fmt.Errorf("placement: %d owner groups of %d provisioned", owners, groups)
	}
	width := uint64(math.MaxUint64)/uint64(owners) + 1
	m := &Map{Epoch: 1}
	for g := 0; g < owners; g++ {
		lo := uint64(g) * width
		hi := uint64(g+1) * width
		if g == owners-1 {
			hi = 0
		}
		m.Ranges = append(m.Ranges, Entry{Range: Range{Lo: lo, Hi: hi}, Group: ids.GroupID(g)})
	}
	for g := 0; g < groups; g++ {
		m.Groups = append(m.Groups, GroupSpec{Group: ids.GroupID(g), Replicas: replicas})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Clone deep-copies the map.
func (m *Map) Clone() *Map {
	out := &Map{Epoch: m.Epoch}
	out.Ranges = append([]Entry(nil), m.Ranges...)
	out.Groups = append([]GroupSpec(nil), m.Groups...)
	if m.Pending != nil {
		p := *m.Pending
		out.Pending = &p
	}
	return out
}

// Validate checks the structural invariants: ranges sorted, non-empty,
// and exactly partitioning the hash space; groups sorted, unique, with
// positive replica counts; every range owner provisioned; a pending
// migration consistent with the epoch and the range table.
func (m *Map) Validate() error {
	if m.Epoch == 0 {
		return errors.New("placement: epoch 0 is reserved for unplaced deployments")
	}
	if len(m.Ranges) == 0 {
		return errors.New("placement: map with no ranges")
	}
	if m.Ranges[0].Range.Lo != 0 {
		return fmt.Errorf("placement: first range starts at %#x, not 0", m.Ranges[0].Range.Lo)
	}
	for i, e := range m.Ranges {
		if e.Range.Empty() {
			return fmt.Errorf("placement: empty range %v", e.Range)
		}
		last := i == len(m.Ranges)-1
		if last != (e.Range.Hi == 0) {
			return fmt.Errorf("placement: range %v %s the top of the hash space", e.Range,
				map[bool]string{true: "must close at", false: "closes early at"}[last])
		}
		if !last && m.Ranges[i+1].Range.Lo != e.Range.Hi {
			return fmt.Errorf("placement: gap between %v and %v", e.Range, m.Ranges[i+1].Range)
		}
		if !m.provisioned(e.Group) {
			return fmt.Errorf("placement: range %v owned by unprovisioned %v", e.Range, e.Group)
		}
	}
	if len(m.Groups) == 0 {
		return errors.New("placement: map with no groups")
	}
	for i, g := range m.Groups {
		if !g.Group.Valid() {
			return fmt.Errorf("placement: invalid group id %d", int(g.Group))
		}
		if g.Replicas < 1 {
			return fmt.Errorf("placement: %v with %d replicas", g.Group, g.Replicas)
		}
		if i > 0 && m.Groups[i-1].Group >= g.Group {
			return errors.New("placement: group list not strictly sorted")
		}
	}
	if p := m.Pending; p != nil {
		if p.Epoch != m.Epoch {
			return fmt.Errorf("placement: pending migration at epoch %d inside epoch %d", p.Epoch, m.Epoch)
		}
		if p.From == p.To {
			return fmt.Errorf("placement: migration from %v to itself", p.From)
		}
		if p.Range.Empty() {
			return errors.New("placement: migration of an empty range")
		}
		if !m.provisioned(p.From) || !m.provisioned(p.To) {
			return errors.New("placement: migration names an unprovisioned group")
		}
		// The moved range must already be owned by To: commands reassign
		// first, the migration then moves the bytes.
		if m.OwnerHash(p.Range.Lo) != p.To {
			return fmt.Errorf("placement: pending range %v not assigned to %v", p.Range, p.To)
		}
	}
	return nil
}

func (m *Map) provisioned(g ids.GroupID) bool {
	for _, s := range m.Groups {
		if s.Group == g {
			return true
		}
	}
	return false
}

// ReplicasOf returns the intended replica count of group g (0 when
// unprovisioned).
func (m *Map) ReplicasOf(g ids.GroupID) int {
	for _, s := range m.Groups {
		if s.Group == g {
			return s.Replicas
		}
	}
	return 0
}

// Shards returns the number of provisioned groups, spares included; it
// is the size of the per-group client set a router must hold.
func (m *Map) Shards() int { return len(m.Groups) }

// Owner returns the group owning key's hash range.
func (m *Map) Owner(key string) ids.GroupID { return m.OwnerHash(Hash(key)) }

// OwnerHash returns the group owning hash h.
func (m *Map) OwnerHash(h uint64) ids.GroupID {
	// Binary search for the last range with Lo <= h; the partition
	// invariant makes it the unique container.
	i := sort.Search(len(m.Ranges), func(i int) bool { return m.Ranges[i].Range.Lo > h }) - 1
	if i < 0 {
		return 0 // unreachable on a valid map (first Lo is 0)
	}
	return m.Ranges[i].Group
}

// OwnedRanges returns the ranges group g owns, in ring order.
func (m *Map) OwnedRanges(g ids.GroupID) []Range {
	var out []Range
	for _, e := range m.Ranges {
		if e.Group == g {
			out = append(out, e.Range)
		}
	}
	return out
}

// CompletePending returns a copy with the pending migration retired.
// Completing an epoch that is already complete returns the map
// unchanged (idempotent); completing the wrong epoch is an error.
func (m *Map) CompletePending(epoch uint64) (*Map, error) {
	if m.Pending == nil {
		if epoch <= m.Epoch {
			return m, nil
		}
		return nil, fmt.Errorf("placement: complete of future epoch %d (at %d)", epoch, m.Epoch)
	}
	if m.Pending.Epoch != epoch {
		return nil, fmt.Errorf("placement: complete of epoch %d, pending is %d", epoch, m.Pending.Epoch)
	}
	out := m.Clone()
	out.Pending = nil
	return out, nil
}

// ---------------------------------------------------------------------------
// Commands

// CmdKind enumerates the placement reconfiguration commands.
type CmdKind uint8

const (
	// CmdSplit cuts a group's range at a hash boundary and hands the
	// upper part to another (typically spare) group.
	CmdSplit CmdKind = iota + 1
	// CmdMerge drains a group's single range into another group,
	// returning the drained group to the spare pool.
	CmdMerge
	// CmdMove hands an explicit hash range to another group.
	CmdMove
	// CmdSetReplicas changes a group's intended replica count (the
	// membership-change command; the harness executes the resize).
	CmdSetReplicas
)

// String implements fmt.Stringer.
func (k CmdKind) String() string {
	switch k {
	case CmdSplit:
		return "split"
	case CmdMerge:
		return "merge"
	case CmdMove:
		return "move"
	case CmdSetReplicas:
		return "set-replicas"
	default:
		return fmt.Sprintf("CmdKind(%d)", uint8(k))
	}
}

// Cmd is one placement reconfiguration command, applied to the meta
// group's authoritative Map through its consensus.
type Cmd struct {
	Kind CmdKind
	// Group is the subject: the group being split (CmdSplit), drained
	// (CmdMerge) or resized (CmdSetReplicas).
	Group ids.GroupID
	// At is the split hash boundary (CmdSplit); 0 means the midpoint of
	// the group's first range.
	At uint64
	// To receives the moved range (CmdSplit, CmdMerge, CmdMove).
	To ids.GroupID
	// Range is the explicit range to move (CmdMove).
	Range Range
	// Replicas is the new replica count (CmdSetReplicas).
	Replicas int
}

// Apply executes the command against m and returns the successor map
// (epoch+1). Commands that move data leave a Pending migration for the
// Controller to execute; at most one migration may be in flight, so
// Apply refuses any command while one is pending.
func (c Cmd) Apply(m *Map) (*Map, error) {
	if m.Pending != nil {
		return nil, fmt.Errorf("placement: migration to %v pending at epoch %d", m.Pending.To, m.Pending.Epoch)
	}
	out := m.Clone()
	out.Epoch++
	switch c.Kind {
	case CmdSplit:
		return out.applySplit(c)
	case CmdMerge:
		return out.applyMerge(c)
	case CmdMove:
		return out.applyMove(c.Range, c.To)
	case CmdSetReplicas:
		if c.Replicas < 1 {
			return nil, fmt.Errorf("placement: set-replicas of %v to %d", c.Group, c.Replicas)
		}
		for i := range out.Groups {
			if out.Groups[i].Group == c.Group {
				out.Groups[i].Replicas = c.Replicas
				return out, out.Validate()
			}
		}
		return nil, fmt.Errorf("placement: set-replicas of unprovisioned %v", c.Group)
	default:
		return nil, fmt.Errorf("placement: unknown command kind %d", uint8(c.Kind))
	}
}

// applySplit cuts c.Group's range containing At (or its first range's
// midpoint when At is 0) and moves the upper part to c.To.
func (out *Map) applySplit(c Cmd) (*Map, error) {
	owned := out.OwnedRanges(c.Group)
	if len(owned) == 0 {
		return nil, fmt.Errorf("placement: split of %v, which owns nothing", c.Group)
	}
	at := c.At
	if at == 0 {
		r := owned[0]
		hi := r.Hi
		if hi == 0 {
			hi = math.MaxUint64 // midpoint arithmetic; the top sentinel is not a real bound
		}
		at = r.Lo + (hi-r.Lo)/2
	}
	var host *Range
	for i := range owned {
		if owned[i].Contains(at) {
			host = &owned[i]
			break
		}
	}
	if host == nil {
		return nil, fmt.Errorf("placement: split point %#x outside %v's ranges", at, c.Group)
	}
	if at == host.Lo {
		return nil, fmt.Errorf("placement: split point %#x is the range boundary", at)
	}
	return out.applyMove(Range{Lo: at, Hi: host.Hi}, c.To)
}

// applyMerge drains c.Group (which must own exactly one range — the
// one-migration-at-a-time rule) into c.To.
func (out *Map) applyMerge(c Cmd) (*Map, error) {
	owned := out.OwnedRanges(c.Group)
	if len(owned) != 1 {
		return nil, fmt.Errorf("placement: merge of %v, which owns %d ranges (want exactly 1)", c.Group, len(owned))
	}
	if c.To == c.Group {
		return nil, fmt.Errorf("placement: merge of %v into itself", c.Group)
	}
	return out.applyMove(owned[0], c.To)
}

// applyMove reassigns r (which must lie inside a single current owner's
// range) to group to, recording the migration. The receiver is the
// already-epoch-bumped successor map.
func (out *Map) applyMove(r Range, to ids.GroupID) (*Map, error) {
	if r.Empty() {
		return nil, errors.New("placement: move of an empty range")
	}
	if !out.provisioned(to) {
		return nil, fmt.Errorf("placement: move to unprovisioned %v", to)
	}
	idx := -1
	for i, e := range out.Ranges {
		if e.Range.Contains(r.Lo) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("placement: no range contains %#x", r.Lo)
	}
	host := out.Ranges[idx]
	if host.Range.Hi != 0 && (r.Hi == 0 || r.Hi > host.Range.Hi) {
		return nil, fmt.Errorf("placement: range %v crosses the owner boundary %v", r, host.Range)
	}
	from := host.Group
	if from == to {
		return nil, fmt.Errorf("placement: %v already owns %v", to, r)
	}
	// Replace the host entry with up to three: [host.Lo, r.Lo) stays,
	// [r.Lo, r.Hi) moves, [r.Hi, host.Hi) stays.
	repl := make([]Entry, 0, 3)
	if r.Lo > host.Range.Lo {
		repl = append(repl, Entry{Range: Range{Lo: host.Range.Lo, Hi: r.Lo}, Group: from})
	}
	repl = append(repl, Entry{Range: r, Group: to})
	if r.Hi != 0 && (host.Range.Hi == 0 || r.Hi < host.Range.Hi) {
		repl = append(repl, Entry{Range: Range{Lo: r.Hi, Hi: host.Range.Hi}, Group: from})
	}
	out.Ranges = append(out.Ranges[:idx], append(repl, out.Ranges[idx+1:]...)...)
	out.Pending = &Migration{Epoch: out.Epoch, Range: r, From: from, To: to}
	return out, out.Validate()
}

// ---------------------------------------------------------------------------
// Canonical encoding

// Encoding versions; a map or command frame leads with one.
const (
	mapWireVersion = 1
	cmdWireVersion = 1
)

// maxWireEntries bounds decoded counts: hostile input (wrong-epoch
// payloads travel inside replies from possibly-Byzantine replicas) must
// not demand huge allocations from a short frame.
const maxWireEntries = 1 << 16

// Encode serializes the map canonically: equal maps produce equal
// bytes, so the encoding is safe to embed in replicated operations and
// snapshots.
func (m *Map) Encode() []byte {
	out := wire.AppendU64([]byte{mapWireVersion}, m.Epoch)
	out = wire.AppendU32(out, uint32(len(m.Ranges)))
	for _, e := range m.Ranges {
		out = wire.AppendU64(out, e.Range.Lo)
		out = wire.AppendU64(out, e.Range.Hi)
		out = wire.AppendU32(out, uint32(e.Group))
	}
	out = wire.AppendU32(out, uint32(len(m.Groups)))
	for _, g := range m.Groups {
		out = wire.AppendU32(out, uint32(g.Group))
		out = wire.AppendU32(out, uint32(g.Replicas))
	}
	if p := m.Pending; p != nil {
		out = wire.AppendU64(append(out, 1), p.Epoch)
		out = wire.AppendU64(out, p.Range.Lo)
		out = wire.AppendU64(out, p.Range.Hi)
		out = wire.AppendU32(out, uint32(p.From))
		return wire.AppendU32(out, uint32(p.To))
	}
	return append(out, 0)
}

// DecodeMap parses an Encode frame. It never panics on hostile input,
// and every decoded map satisfies Validate.
func DecodeMap(b []byte) (*Map, error) {
	r := wire.NewReader(b)
	if v := r.U8(); r.Err() == nil && v != mapWireVersion {
		return nil, fmt.Errorf("placement: unsupported map version %d", v)
	}
	m := &Map{Epoch: r.U64()}
	nr := r.Count(20)
	if nr > maxWireEntries {
		return nil, errors.New("placement: range count exceeds frame")
	}
	for i := 0; i < nr && r.Err() == nil; i++ {
		e := Entry{Range: Range{Lo: r.U64(), Hi: r.U64()}, Group: ids.GroupID(r.U32())}
		m.Ranges = append(m.Ranges, e)
	}
	ng := r.Count(8)
	if ng > maxWireEntries {
		return nil, errors.New("placement: group count exceeds frame")
	}
	for i := 0; i < ng && r.Err() == nil; i++ {
		m.Groups = append(m.Groups, GroupSpec{Group: ids.GroupID(r.U32()), Replicas: int(r.U32())})
	}
	switch r.U8() {
	case 0:
	case 1:
		m.Pending = &Migration{
			Epoch: r.U64(),
			Range: Range{Lo: r.U64(), Hi: r.U64()},
			From:  ids.GroupID(r.U32()),
			To:    ids.GroupID(r.U32()),
		}
	default:
		r.Fail(errors.New("placement: invalid pending presence byte"))
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("placement: map: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// EncodeCmd serializes a command canonically.
func EncodeCmd(c Cmd) []byte {
	out := wire.AppendU32([]byte{cmdWireVersion, uint8(c.Kind)}, uint32(c.Group))
	out = wire.AppendU64(out, c.At)
	out = wire.AppendU32(out, uint32(c.To))
	out = wire.AppendU64(out, c.Range.Lo)
	out = wire.AppendU64(out, c.Range.Hi)
	return wire.AppendU32(out, uint32(c.Replicas))
}

// DecodeCmd parses an EncodeCmd frame. Structural validity only; the
// meta state machine validates the command against its current map.
func DecodeCmd(b []byte) (Cmd, error) {
	r := wire.NewReader(b)
	if v := r.U8(); r.Err() == nil && v != cmdWireVersion {
		return Cmd{}, fmt.Errorf("placement: unsupported command version %d", v)
	}
	c := Cmd{
		Kind:  CmdKind(r.U8()),
		Group: ids.GroupID(r.U32()),
		At:    r.U64(),
		To:    ids.GroupID(r.U32()),
	}
	c.Range = Range{Lo: r.U64(), Hi: r.U64()}
	c.Replicas = int(r.U32())
	if err := r.Done(); err != nil {
		return Cmd{}, fmt.Errorf("placement: command: %w", err)
	}
	if c.Kind < CmdSplit || c.Kind > CmdSetReplicas {
		return Cmd{}, fmt.Errorf("placement: unknown command kind %d", uint8(c.Kind))
	}
	return c, nil
}

// ---------------------------------------------------------------------------
// Cache

// Cache is the client-side placement view: the newest Map observed,
// refreshed from wrong-epoch rejections (which attach the rejecting
// replica's current map) and from the meta group. Unlike the Router
// that owns it, the Cache is safe for concurrent use, because fan-out
// legs consult it from their own goroutines.
type Cache struct {
	mu sync.RWMutex
	m  *Map
}

// NewCache seeds a cache with the bootstrap map.
func NewCache(m *Map) *Cache { return &Cache{m: m} }

// Current returns the cached map (never nil; callers must not mutate).
func (c *Cache) Current() *Map {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.m
}

// Epoch returns the cached epoch.
func (c *Cache) Epoch() uint64 { return c.Current().Epoch }

// Update adopts m when it is strictly newer than the cached map and
// reports whether it did. Stale maps are ignored — a late rejection
// from a slow replica must not roll the view back.
func (c *Cache) Update(m *Map) bool {
	if m == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.Epoch <= c.m.Epoch {
		return false
	}
	c.m = m
	return true
}

// Shards returns the cached map's provisioned group count.
func (c *Cache) Shards() int { return c.Current().Shards() }

// Owner returns the group owning key under the cached map.
func (c *Cache) Owner(key string) ids.GroupID { return c.Current().Owner(key) }
