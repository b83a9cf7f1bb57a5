package statemachine

import (
	"errors"
	"fmt"
	"maps"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/placement"
	"repro/internal/wire"
)

// Placement opcodes. They continue the KV opcode namespace (values are
// pinned, not iota-chained, because they are wire format). The place*
// ops run on every data group and maintain its local fence state; the
// meta* ops run on the designated meta group and maintain the
// authoritative epoch-versioned map. All of them are ordered through
// consensus like any other operation, which is the whole point: a
// placement change is an agreed-upon event in the replicated log, so
// WAL recovery, snapshots and state transfer cover it with zero new
// machinery. Value 12 is reserved: it was a fence-state read nothing
// called.
const (
	kvOpPlaceInit     byte = 11 // adopt the bootstrap placement map
	kvOpPlaceSeal     byte = 13 // freeze the outgoing range (old owner)
	kvOpPlaceExport   byte = 14 // page the frozen range out (old owner)
	kvOpPlaceInstall  byte = 15 // stage / merge the incoming range (new owner)
	kvOpPlaceComplete byte = 16 // purge the shipped range (old owner)
	kvOpMetaInit      byte = 17 // seed the authoritative map (meta group)
	kvOpMetaApply     byte = 18 // apply a reconfiguration command (meta group)
	kvOpMetaDone      byte = 19 // retire a finished migration (meta group)
	kvOpMetaGet       byte = 20 // read the authoritative map (meta group)
)

// KVWrongEpoch rejects an operation addressed to a group that does not
// (or does not yet) own the key under the current placement epoch. The
// payload is the rejecting replica's current placement map, so the
// client reroutes from authoritative state instead of guessing — a
// stale-epoch request is always rejected-with-directions, never
// silently misrouted. The value pins the wire namespace after TxVoteNo.
const KVWrongEpoch byte = 7

// placeState is one data group's placement fence: the newest map it
// has adopted plus the in-flight handoff records. It lives inside the
// replicated KVStore on purpose — every mutation happens in Apply, so
// all replicas of the group fence identically and the state survives
// kill -9 through the ordinary WAL/snapshot path.
type placeState struct {
	self ids.GroupID
	mp   *placement.Map
	// installedEpoch is the newest migration epoch whose incoming range
	// finished installing here; doneEpoch the newest whose outgoing
	// range was purged. Both make the handoff steps idempotent.
	installedEpoch uint64
	doneEpoch      uint64
	seal           *sealRec
	importing      *importRec
}

// sealRec freezes an outgoing range on the old owner: from the seal's
// commit point every write into the range is fenced, so the export
// pages a stable set whose manifest (count + digest) the new owner can
// verify.
type sealRec struct {
	epoch  uint64
	rng    placement.Range
	count  uint64
	digest crypto.Digest
}

// importRec stages an incoming range on the new owner. Staged pairs are
// invisible to reads — the group keeps fencing requests for the range
// until the final page's digest verifies and the merge commits, which
// is the "new owner serves only after the epoch bump commits" half of
// the fence.
type importRec struct {
	epoch  uint64
	rng    placement.Range
	staged map[string][]byte
}

// ---------------------------------------------------------------------------
// Op encoders / decoders (client side)

func encodeWithMap(op byte, m *placement.Map) []byte {
	enc := m.Encode()
	out := make([]byte, 0, 1+4+len(enc))
	out = append(out, op)
	return wire.AppendBytes(out, enc)
}

// readMap reads a u32-length-prefixed encoded map, recording a decode
// failure on r.
func readMap(r *wire.Reader) *placement.Map {
	b := r.Bytes()
	if r.Err() != nil {
		return nil
	}
	m, err := placement.DecodeMap(b)
	if err != nil {
		r.Fail(err)
	}
	return m
}

// EncodePlaceInit builds the bootstrap op adopting map m as group g's
// initial placement.
func EncodePlaceInit(g ids.GroupID, m *placement.Map) []byte {
	out := wire.AppendU32([]byte{kvOpPlaceInit}, uint32(g))
	return wire.AppendBytes(out, m.Encode())
}

// EncodePlaceSeal builds the seal op carrying the successor map (whose
// Pending migration names this group as the source).
func EncodePlaceSeal(m *placement.Map) []byte { return encodeWithMap(kvOpPlaceSeal, m) }

// EncodePlaceExport builds one export page request: frozen-range keys
// >= start, at most limit pairs.
func EncodePlaceExport(epoch uint64, start string, limit int) []byte {
	out := wire.AppendU64([]byte{kvOpPlaceExport}, epoch)
	out = wire.AppendBytes(out, start)
	return wire.AppendU32(out, uint32(limit))
}

// EncodePlaceInstall builds one install page: pairs to stage under map
// m's pending migration; done marks the final page and carries the seal
// digest the target must verify before merging.
func EncodePlaceInstall(m *placement.Map, pairs []placement.Pair, done bool, digest crypto.Digest) []byte {
	out := encodeWithMap(kvOpPlaceInstall, m)
	if done {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = append(out, digest[:]...)
	return appendPairs(out, len(pairs), func(i int) (string, []byte) { return pairs[i].Key, pairs[i].Value })
}

// EncodePlaceComplete builds the purge op retiring migration epoch on
// the old owner.
func EncodePlaceComplete(epoch uint64) []byte {
	return wire.AppendU64([]byte{kvOpPlaceComplete}, epoch)
}

// EncodeMetaInit builds the op seeding the meta group's authoritative
// map.
func EncodeMetaInit(m *placement.Map) []byte { return encodeWithMap(kvOpMetaInit, m) }

// EncodeMetaApply builds the op applying a reconfiguration command to
// the authoritative map.
func EncodeMetaApply(c placement.Cmd) []byte {
	enc := placement.EncodeCmd(c)
	out := make([]byte, 0, 1+len(enc))
	out = append(out, kvOpMetaApply)
	return append(out, enc...)
}

// EncodeMetaDone builds the op retiring migration epoch.
func EncodeMetaDone(epoch uint64) []byte {
	return wire.AppendU64([]byte{kvOpMetaDone}, epoch)
}

// EncodeMetaGet builds the authoritative-map read.
func EncodeMetaGet() []byte { return []byte{kvOpMetaGet} }

// DecodeMapResult parses a result whose KVOK payload is an encoded
// placement map (MetaInit/MetaApply/MetaDone/MetaGet) — and, for
// convenience, the map attached to a KVWrongEpoch rejection.
func DecodeMapResult(res []byte) (*placement.Map, error) {
	status, payload := DecodeResult(res)
	if status != KVOK && status != KVWrongEpoch {
		return nil, fmt.Errorf("statemachine: placement result status %d", status)
	}
	return placement.DecodeMap(payload)
}

// DecodeSealResult parses a seal op's KVOK payload.
func DecodeSealResult(res []byte) (placement.SealResult, error) {
	status, b := DecodeResult(res)
	if status != KVOK {
		return placement.SealResult{}, fmt.Errorf("statemachine: seal result status %d", status)
	}
	r := wire.NewReader(b)
	sr := placement.SealResult{Done: r.U8() != 0, Count: r.U64()}
	copy(sr.Digest[:], r.Fixed(crypto.DigestSize))
	if r.Done() != nil {
		return placement.SealResult{}, fmt.Errorf("statemachine: seal payload of %d bytes", len(b))
	}
	return sr, nil
}

// Install result codes (the single payload byte of a KVOK install
// result).
const (
	// PlaceInstallStaged: page staged, more to come.
	PlaceInstallStaged byte = iota
	// PlaceInstallDone: final page verified and merged; the range serves
	// here from the next committed operation on.
	PlaceInstallDone
	// PlaceInstallAlready: this epoch already finished installing (a
	// resumed controller re-sending pages).
	PlaceInstallAlready
)

// DecodeInstallResult parses an install op's KVOK payload.
func DecodeInstallResult(res []byte) (byte, error) {
	status, b := DecodeResult(res)
	if status != KVOK {
		return 0, fmt.Errorf("statemachine: install result status %d", status)
	}
	if len(b) != 1 || b[0] > PlaceInstallAlready {
		return 0, errors.New("statemachine: malformed install result")
	}
	return b[0], nil
}

// ---------------------------------------------------------------------------
// Fence

// PlacementEpoch reports the epoch of the placement map this store has
// adopted, 0 when the deployment is not elastic. Routers do not read
// it: they follow the map a KVWrongEpoch rejection carries.
func (kv *KVStore) PlacementEpoch() uint64 {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	if kv.place == nil {
		return 0
	}
	return kv.place.mp.Epoch
}

// wrongEpoch builds the KVWrongEpoch rejection carrying the current
// map: the requester is told both that it is stale and what current
// looks like.
func wrongEpoch(m *placement.Map) []byte {
	return append([]byte{KVWrongEpoch}, m.Encode()...)
}

// sealResult encodes a seal's KVOK result: the done flag, then the
// range manifest.
func sealResult(done byte, count uint64, digest crypto.Digest) []byte {
	out := wire.AppendU64([]byte{KVOK, done}, count)
	return append(out, digest[:]...)
}

// fenceReject answers non-nil when this group must refuse to serve key
// under the current placement: either the key's range is owned
// elsewhere (it moved, or never lived here), or it is mid-import and
// not yet serveable. Nil when the deployment is not elastic — the
// static single-epoch world pays nothing.
func (kv *KVStore) fenceReject(key string) []byte {
	p := kv.place
	if p == nil {
		return nil
	}
	h := placement.Hash(key)
	if p.mp.OwnerHash(h) != p.self {
		return wrongEpoch(p.mp)
	}
	if imp := p.importing; imp != nil && imp.rng.Contains(h) {
		return wrongEpoch(p.mp)
	}
	return nil
}

// sealedOut reports whether key sits in the currently sealed outgoing
// range: scans skip such keys so a scan overlapping the
// seal→install window never returns a pair the new owner will also
// return (no duplicates; the brief miss window is the moving range's
// bounded unavailability, same as for point reads).
func (kv *KVStore) sealedOut(key string) bool {
	p := kv.place
	return p != nil && p.seal != nil && p.seal.rng.Contains(placement.Hash(key))
}

// ---------------------------------------------------------------------------
// Data-group handlers (old/new owner sides of a handoff)

// rangeManifest computes the canonical manifest of the in-range pairs:
// count plus a digest over the sorted key/value listing. Both sides
// derive it the same way, so a lost or corrupted export page cannot
// merge silently.
func rangeManifest(data map[string][]byte, rng placement.Range) (uint64, crypto.Digest) {
	keys := sortedKeys(data, func(k string) bool { return rng.Contains(placement.Hash(k)) })
	return uint64(len(keys)), crypto.Sum(appendKeyed(nil, keys, data))
}

// placeInit adopts the bootstrap map. Idempotent; on an already-placed
// group it answers with the (possibly newer) current map and changes
// nothing, so replayed bootstraps cannot roll the fence back.
func (kv *KVStore) placeInit(b []byte) []byte {
	r := wire.NewReader(b)
	g := ids.GroupID(r.U32())
	m := readMap(r)
	if r.Done() != nil || !g.Valid() {
		return []byte{KVBadOp}
	}
	if kv.place == nil {
		kv.place = &placeState{self: g, mp: m}
	}
	return append([]byte{KVOK}, kv.place.mp.Encode()...)
}

// placeSeal freezes the outgoing range under the successor map nm. The
// seal is refused with KVLocked while a prepared transaction holds any
// in-range key — two-phase commit finishes first, which guarantees a
// cross-shard transaction straddling the migration lands entirely on
// the old owner or is entirely fenced to the new one. From the seal's
// commit point the group stops serving the range (adopting nm routes
// rejections at the new owner), so the export below reads a stable
// set.
func (kv *KVStore) placeSeal(b []byte) []byte {
	r := wire.NewReader(b)
	nm := readMap(r)
	if r.Done() != nil {
		return []byte{KVBadOp}
	}
	p := kv.place
	if p == nil || nm.Pending == nil || nm.Pending.From != p.self {
		return []byte{KVBadOp}
	}
	pend := nm.Pending
	// Handoff already finished here (a resumed controller re-sealing):
	// answer Done so it skips straight to retiring the epoch.
	if pend.Epoch <= p.doneEpoch {
		return sealResult(1, 0, crypto.Digest{})
	}
	// Idempotent re-seal of the active epoch: return the cached
	// manifest (the range is already frozen; recomputing could only
	// agree).
	if p.seal != nil && p.seal.epoch == pend.Epoch {
		return sealResult(0, p.seal.count, p.seal.digest)
	}
	if p.seal != nil || p.importing != nil {
		return []byte{KVBadOp} // a different handoff is mid-flight here
	}
	if nm.Epoch <= p.mp.Epoch {
		return wrongEpoch(p.mp) // seal for an epoch this group moved past
	}
	// Name the holder of the smallest locked key in range, so every
	// replica in this state answers with the same bytes.
	var lockedKey string
	var lockedBy TxID
	locked := false
	for key, holder := range kv.locks {
		if pend.Range.Contains(placement.Hash(key)) && (!locked || key < lockedKey) {
			lockedKey, lockedBy, locked = key, holder, true
		}
	}
	if locked {
		return append([]byte{KVLocked}, appendTxID(nil, lockedBy)...)
	}
	count, digest := rangeManifest(kv.data, pend.Range)
	p.seal = &sealRec{epoch: pend.Epoch, rng: pend.Range, count: count, digest: digest}
	p.mp = nm
	return sealResult(0, count, digest)
}

// placeExport pages the frozen range: keys >= start in ascending
// order, at most limit pairs, scan-shaped result. Reads only — the
// page can be re-requested forever.
func (kv *KVStore) placeExport(b []byte) []byte {
	r := wire.NewReader(b)
	epoch, start, limit := r.U64(), string(r.Bytes()), int(r.U32())
	if r.Done() != nil {
		return []byte{KVBadOp}
	}
	if limit <= 0 || limit > MaxScanLimit {
		limit = MaxScanLimit
	}
	p := kv.place
	if p == nil || p.seal == nil || p.seal.epoch != epoch {
		if p != nil {
			return wrongEpoch(p.mp)
		}
		return []byte{KVBadOp}
	}
	return pageResult(sortedKeys(kv.data, func(k string) bool {
		return k >= start && p.seal.rng.Contains(placement.Hash(k))
	}), kv.data, limit)
}

// placeInstall stages one page of the incoming range on the new owner
// and, on the final page, verifies the seal digest before merging the
// staged pairs into live data. Until that merge commits the group
// keeps rejecting requests for the range (fenceReject's importing
// check), so a write can never land on both owners: the old one fenced
// it at the seal, the new one refuses it until the bytes verifiably
// arrived.
func (kv *KVStore) placeInstall(b []byte) []byte {
	r := wire.NewReader(b)
	nm := readMap(r)
	done := r.U8() != 0
	var digest crypto.Digest
	copy(digest[:], r.Fixed(crypto.DigestSize))
	np := r.Count(8)
	if r.Err() != nil {
		return []byte{KVBadOp}
	}
	p := kv.place
	if p == nil || nm.Pending == nil || nm.Pending.To != p.self {
		return []byte{KVBadOp}
	}
	pend := nm.Pending
	if pend.Epoch <= p.installedEpoch {
		return []byte{KVOK, PlaceInstallAlready}
	}
	if p.seal != nil {
		return []byte{KVBadOp} // this group is mid-export of another range
	}
	if p.importing == nil {
		if nm.Epoch > p.mp.Epoch {
			p.mp = nm // adopt the successor map; importing fences the range
		}
		p.importing = &importRec{epoch: pend.Epoch, rng: pend.Range, staged: make(map[string][]byte)}
	}
	imp := p.importing
	if imp.epoch != pend.Epoch {
		return []byte{KVBadOp}
	}
	readPairs(r, np, func(k, v []byte) {
		if !imp.rng.Contains(placement.Hash(string(k))) {
			r.Fail(errors.New("statemachine: install pair outside the migrating range"))
			return
		}
		imp.staged[string(k)] = append([]byte(nil), v...)
	})
	if r.Done() != nil {
		return []byte{KVBadOp}
	}
	if !done {
		return []byte{KVOK, PlaceInstallStaged}
	}
	if _, got := rangeManifest(imp.staged, imp.rng); got != digest {
		// A page was lost or re-ordered; drop the staging area so the
		// controller restarts the copy from the first page.
		imp.staged = make(map[string][]byte)
		return []byte{KVBadOp}
	}
	maps.Copy(kv.data, imp.staged)
	p.importing = nil
	p.installedEpoch = pend.Epoch
	return []byte{KVOK, PlaceInstallDone}
}

// placeComplete purges the sealed range on the old owner — the bytes
// verifiably live at the new owner, so this group drops them and keeps
// only the fence (its adopted map already routes the range away).
func (kv *KVStore) placeComplete(b []byte) []byte {
	r := wire.NewReader(b)
	epoch := r.U64()
	if r.Done() != nil {
		return []byte{KVBadOp}
	}
	p := kv.place
	if p == nil {
		return []byte{KVBadOp}
	}
	if epoch <= p.doneEpoch {
		return []byte{KVOK} // resumed controller; already purged
	}
	if p.seal == nil || p.seal.epoch != epoch {
		return []byte{KVBadOp}
	}
	for k := range kv.data {
		if p.seal.rng.Contains(placement.Hash(k)) {
			delete(kv.data, k)
		}
	}
	p.seal = nil
	p.doneEpoch = epoch
	return []byte{KVOK}
}

// ---------------------------------------------------------------------------
// Meta-group handlers

// metaInit seeds the authoritative map. Idempotent: a second init (or
// a replayed one) answers the current map unchanged.
func (kv *KVStore) metaInit(b []byte) []byte {
	r := wire.NewReader(b)
	m := readMap(r)
	if r.Done() != nil {
		return []byte{KVBadOp}
	}
	if kv.meta == nil {
		kv.meta = m
	}
	return append([]byte{KVOK}, kv.meta.Encode()...)
}

// metaApply runs one reconfiguration command against the authoritative
// map — the consensus-ordered decision point of every reshard. While a
// migration is pending every further command is refused with the
// current map attached (KVWrongEpoch doubles as "here is current"), so
// there is never more than one handoff in flight.
func (kv *KVStore) metaApply(b []byte) []byte {
	cmd, err := placement.DecodeCmd(b)
	if err != nil || kv.meta == nil {
		return []byte{KVBadOp}
	}
	if kv.meta.Pending != nil {
		return wrongEpoch(kv.meta)
	}
	next, err := cmd.Apply(kv.meta)
	if err != nil {
		return []byte{KVBadOp}
	}
	kv.meta = next
	return append([]byte{KVOK}, next.Encode()...)
}

// metaDone retires a finished migration. Idempotent for epochs already
// retired.
func (kv *KVStore) metaDone(b []byte) []byte {
	r := wire.NewReader(b)
	epoch := r.U64()
	if r.Done() != nil || kv.meta == nil {
		return []byte{KVBadOp}
	}
	next, err := kv.meta.CompletePending(epoch)
	if err != nil {
		return []byte{KVBadOp}
	}
	kv.meta = next
	return append([]byte{KVOK}, next.Encode()...)
}

// metaGet reads the authoritative map through consensus (a linearized
// read: routers refreshing their cache must not resurrect a stale map
// from a lagging replica).
func (kv *KVStore) metaGet() []byte {
	if kv.meta == nil {
		return []byte{KVNotFound}
	}
	return append([]byte{KVOK}, kv.meta.Encode()...)
}

// applyPlacement dispatches the placement opcodes; called from Apply
// under kv.mu.
func (kv *KVStore) applyPlacement(op []byte) []byte {
	switch op[0] {
	case kvOpPlaceInit:
		return kv.placeInit(op[1:])
	case kvOpPlaceSeal:
		return kv.placeSeal(op[1:])
	case kvOpPlaceExport:
		return kv.placeExport(op[1:])
	case kvOpPlaceInstall:
		return kv.placeInstall(op[1:])
	case kvOpPlaceComplete:
		return kv.placeComplete(op[1:])
	case kvOpMetaInit:
		return kv.metaInit(op[1:])
	case kvOpMetaApply:
		return kv.metaApply(op[1:])
	case kvOpMetaDone:
		return kv.metaDone(op[1:])
	case kvOpMetaGet:
		return kv.metaGet()
	default:
		return []byte{KVBadOp}
	}
}

// ---------------------------------------------------------------------------
// Snapshot section

// appendPlacementSnapshot serializes the placement section (canonical:
// maps encode canonically, staged pairs key-sorted). Written only when
// placement state exists, so non-elastic deployments' snapshots stay
// byte-identical to every earlier release.
func (kv *KVStore) appendPlacementSnapshot(out []byte) []byte {
	if kv.place == nil && kv.meta == nil {
		return out
	}
	if p := kv.place; p != nil {
		out = wire.AppendU32(append(out, 1), uint32(p.self))
		out = wire.AppendBytes(out, p.mp.Encode())
		out = wire.AppendU64(out, p.installedEpoch)
		out = wire.AppendU64(out, p.doneEpoch)
		if s := p.seal; s != nil {
			out = appendRange(append(out, 1), s.epoch, s.rng)
			out = wire.AppendU64(out, s.count)
			out = append(out, s.digest[:]...)
		} else {
			out = append(out, 0)
		}
		if imp := p.importing; imp != nil {
			out = appendRange(append(out, 1), imp.epoch, imp.rng)
			out = appendKeyed(out, sortedKeys(imp.staged, nil), imp.staged)
		} else {
			out = append(out, 0)
		}
	} else {
		out = append(out, 0)
	}
	if kv.meta != nil {
		return wire.AppendBytes(append(out, 1), kv.meta.Encode())
	}
	return append(out, 0)
}

// appendRange appends a handoff record's epoch and hash range.
func appendRange(out []byte, epoch uint64, rng placement.Range) []byte {
	out = wire.AppendU64(out, epoch)
	out = wire.AppendU64(out, rng.Lo)
	return wire.AppendU64(out, rng.Hi)
}

// readRange reads appendRange's fields.
func readRange(r *wire.Reader) (uint64, placement.Range) {
	return r.U64(), placement.Range{Lo: r.U64(), Hi: r.U64()}
}

// present reads a section's presence byte: 0 absent, 1 present,
// anything else a failure recorded on r.
func present(r *wire.Reader, section string) bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(fmt.Errorf("statemachine: invalid %s presence byte", section))
		return false
	}
}

// restorePlacement parses the optional placement section that ends a
// snapshot. An exhausted reader means the section is absent (a
// snapshot from a non-elastic store or an older writer) and leaves
// placement state empty; errors are recorded on r.
func restorePlacement(r *wire.Reader) (*placeState, *placement.Map) {
	if r.Len() == 0 {
		return nil, nil
	}
	var place *placeState
	if present(r, "placement") {
		place = &placeState{self: ids.GroupID(r.U32()), mp: readMap(r)}
		place.installedEpoch, place.doneEpoch = r.U64(), r.U64()
		if present(r, "seal") {
			s := &sealRec{}
			s.epoch, s.rng = readRange(r)
			s.count = r.U64()
			copy(s.digest[:], r.Fixed(crypto.DigestSize))
			place.seal = s
		}
		if present(r, "importing") {
			imp := &importRec{staged: make(map[string][]byte)}
			imp.epoch, imp.rng = readRange(r)
			readPairs(r, r.Count(8), func(k, v []byte) { imp.staged[string(k)] = append([]byte(nil), v...) })
			place.importing = imp
		}
	}
	var meta *placement.Map
	if present(r, "meta") {
		meta = readMap(r)
	}
	if place == nil && meta == nil {
		r.Fail(errors.New("statemachine: empty placement section"))
	}
	return place, meta
}
