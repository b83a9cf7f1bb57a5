package statemachine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/placement"
)

// Placement opcodes. They continue the KV opcode namespace (values are
// pinned, not iota-chained, because they are wire format). The place*
// ops run on every data group and maintain its local fence state; the
// meta* ops run on the designated meta group and maintain the
// authoritative epoch-versioned map. All of them are ordered through
// consensus like any other operation, which is the whole point: a
// placement change is an agreed-upon event in the replicated log, so
// WAL recovery, snapshots and state transfer cover it with zero new
// machinery.
const (
	kvOpPlaceInit     byte = 11 // adopt the bootstrap placement map
	kvOpPlaceStatus   byte = 12 // read this group's fence state
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
	out = binary.BigEndian.AppendUint32(out, uint32(len(enc)))
	return append(out, enc...)
}

func decodeOpMap(b []byte) (*placement.Map, []byte, error) {
	if len(b) < 4 {
		return nil, nil, errors.New("statemachine: truncated placement op")
	}
	n := int(binary.BigEndian.Uint32(b))
	if n < 0 || 4+n > len(b) {
		return nil, nil, errors.New("statemachine: truncated placement map")
	}
	m, err := placement.DecodeMap(b[4 : 4+n])
	if err != nil {
		return nil, nil, err
	}
	return m, b[4+n:], nil
}

// EncodePlaceInit builds the bootstrap op adopting map m as group g's
// initial placement.
func EncodePlaceInit(g ids.GroupID, m *placement.Map) []byte {
	out := []byte{kvOpPlaceInit}
	out = binary.BigEndian.AppendUint32(out, uint32(g))
	enc := m.Encode()
	out = binary.BigEndian.AppendUint32(out, uint32(len(enc)))
	return append(out, enc...)
}

// EncodePlaceStatus builds the fence-state read.
func EncodePlaceStatus() []byte { return []byte{kvOpPlaceStatus} }

// EncodePlaceSeal builds the seal op carrying the successor map (whose
// Pending migration names this group as the source).
func EncodePlaceSeal(m *placement.Map) []byte { return encodeWithMap(kvOpPlaceSeal, m) }

// EncodePlaceExport builds one export page request: frozen-range keys
// >= start, at most limit pairs.
func EncodePlaceExport(epoch uint64, start string, limit int) []byte {
	out := []byte{kvOpPlaceExport}
	out = binary.BigEndian.AppendUint64(out, epoch)
	out = binary.BigEndian.AppendUint32(out, uint32(len(start)))
	out = append(out, start...)
	return binary.BigEndian.AppendUint32(out, uint32(limit))
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
	out = binary.BigEndian.AppendUint32(out, uint32(len(pairs)))
	for _, p := range pairs {
		out = binary.BigEndian.AppendUint32(out, uint32(len(p.Key)))
		out = append(out, p.Key...)
		out = binary.BigEndian.AppendUint32(out, uint32(len(p.Value)))
		out = append(out, p.Value...)
	}
	return out
}

// EncodePlaceComplete builds the purge op retiring migration epoch on
// the old owner.
func EncodePlaceComplete(epoch uint64) []byte {
	out := []byte{kvOpPlaceComplete}
	return binary.BigEndian.AppendUint64(out, epoch)
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
	out := []byte{kvOpMetaDone}
	return binary.BigEndian.AppendUint64(out, epoch)
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
	if len(b) != 1+8+crypto.DigestSize {
		return placement.SealResult{}, fmt.Errorf("statemachine: seal payload of %d bytes", len(b))
	}
	sr := placement.SealResult{Done: b[0] != 0, Count: binary.BigEndian.Uint64(b[1:])}
	copy(sr.Digest[:], b[9:])
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
	keys := make([]string, 0, 64)
	for k := range data {
		if rng.Contains(placement.Hash(k)) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var buf []byte
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(keys)))
	for _, k := range keys {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(k)))
		buf = append(buf, k...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(data[k])))
		buf = append(buf, data[k]...)
	}
	return uint64(len(keys)), crypto.Sum(buf)
}

// placeInit adopts the bootstrap map. Idempotent; on an already-placed
// group it answers with the (possibly newer) current map and changes
// nothing, so replayed bootstraps cannot roll the fence back.
func (kv *KVStore) placeInit(b []byte) []byte {
	if len(b) < 4 {
		return []byte{KVBadOp}
	}
	g := ids.GroupID(binary.BigEndian.Uint32(b))
	m, rest, err := decodeOpMap(b[4:])
	if err != nil || len(rest) != 0 || !g.Valid() {
		return []byte{KVBadOp}
	}
	if kv.place == nil {
		kv.place = &placeState{self: g, mp: m}
	}
	return append([]byte{KVOK}, kv.place.mp.Encode()...)
}

// placeStatus reports the fence state (current map plus progress
// epochs); the CLI and tests read it.
func (kv *KVStore) placeStatus() []byte {
	p := kv.place
	if p == nil {
		return []byte{KVNotFound}
	}
	out := []byte{KVOK}
	out = binary.BigEndian.AppendUint32(out, uint32(p.self))
	var flags byte
	if p.seal != nil {
		flags |= 1
	}
	if p.importing != nil {
		flags |= 2
	}
	out = append(out, flags)
	out = binary.BigEndian.AppendUint64(out, p.installedEpoch)
	out = binary.BigEndian.AppendUint64(out, p.doneEpoch)
	return append(out, p.mp.Encode()...)
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
	nm, rest, err := decodeOpMap(b)
	if err != nil || len(rest) != 0 {
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
		out := []byte{KVOK, 1}
		out = binary.BigEndian.AppendUint64(out, 0)
		return append(out, make([]byte, crypto.DigestSize)...)
	}
	// Idempotent re-seal of the active epoch: return the cached
	// manifest (the range is already frozen; recomputing could only
	// agree).
	if p.seal != nil && p.seal.epoch == pend.Epoch {
		out := []byte{KVOK, 0}
		out = binary.BigEndian.AppendUint64(out, p.seal.count)
		return append(out, p.seal.digest[:]...)
	}
	if p.seal != nil || p.importing != nil {
		return []byte{KVBadOp} // a different handoff is mid-flight here
	}
	if nm.Epoch <= p.mp.Epoch {
		return wrongEpoch(p.mp) // seal for an epoch this group moved past
	}
	for key, holder := range kv.locks {
		if pend.Range.Contains(placement.Hash(key)) {
			return append([]byte{KVLocked}, appendTxID(nil, holder)...)
		}
	}
	count, digest := rangeManifest(kv.data, pend.Range)
	p.seal = &sealRec{epoch: pend.Epoch, rng: pend.Range, count: count, digest: digest}
	p.mp = nm
	out := []byte{KVOK, 0}
	out = binary.BigEndian.AppendUint64(out, count)
	return append(out, digest[:]...)
}

// placeExport pages the frozen range: keys >= start in ascending
// order, at most limit pairs, scan-shaped result. Reads only — the
// page can be re-requested forever.
func (kv *KVStore) placeExport(b []byte) []byte {
	if len(b) < 12 {
		return []byte{KVBadOp}
	}
	epoch := binary.BigEndian.Uint64(b)
	n := int(binary.BigEndian.Uint32(b[8:]))
	if n < 0 || 12+n+4 != len(b) {
		return []byte{KVBadOp}
	}
	start := string(b[12 : 12+n])
	limit := int(binary.BigEndian.Uint32(b[12+n:]))
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
	keys := make([]string, 0, 64)
	for k := range kv.data {
		if k >= start && p.seal.rng.Contains(placement.Hash(k)) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	more := len(keys) > limit
	if more {
		keys = keys[:limit]
	}
	out := []byte{KVOK}
	out = binary.BigEndian.AppendUint32(out, uint32(len(keys)))
	for _, k := range keys {
		out = binary.BigEndian.AppendUint32(out, uint32(len(k)))
		out = append(out, k...)
		v := kv.data[k]
		out = binary.BigEndian.AppendUint32(out, uint32(len(v)))
		out = append(out, v...)
	}
	if more {
		return append(out, 1)
	}
	return append(out, 0)
}

// placeInstall stages one page of the incoming range on the new owner
// and, on the final page, verifies the seal digest before merging the
// staged pairs into live data. Until that merge commits the group
// keeps rejecting requests for the range (fenceReject's importing
// check), so a write can never land on both owners: the old one fenced
// it at the seal, the new one refuses it until the bytes verifiably
// arrived.
func (kv *KVStore) placeInstall(b []byte) []byte {
	nm, rest, err := decodeOpMap(b)
	if err != nil || len(rest) < 1+crypto.DigestSize+4 {
		return []byte{KVBadOp}
	}
	done := rest[0] != 0
	var digest crypto.Digest
	copy(digest[:], rest[1:])
	rest = rest[1+crypto.DigestSize:]
	np := int(binary.BigEndian.Uint32(rest))
	rest = rest[4:]
	if np < 0 || 8*np > len(rest) {
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
	off := 0
	for i := 0; i < np; i++ {
		k, next, err := readChunk(rest, off)
		if err != nil {
			return []byte{KVBadOp}
		}
		v, next2, err := readChunk(rest, next)
		if err != nil {
			return []byte{KVBadOp}
		}
		if !imp.rng.Contains(placement.Hash(string(k))) {
			return []byte{KVBadOp} // a pair outside the migrating range
		}
		imp.staged[string(k)] = append([]byte(nil), v...)
		off = next2
	}
	if off != len(rest) {
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
	for k, v := range imp.staged {
		kv.data[k] = v
	}
	p.importing = nil
	p.installedEpoch = pend.Epoch
	return []byte{KVOK, PlaceInstallDone}
}

// placeComplete purges the sealed range on the old owner — the bytes
// verifiably live at the new owner, so this group drops them and keeps
// only the fence (its adopted map already routes the range away).
func (kv *KVStore) placeComplete(b []byte) []byte {
	if len(b) != 8 {
		return []byte{KVBadOp}
	}
	epoch := binary.BigEndian.Uint64(b)
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
	m, rest, err := decodeOpMap(b)
	if err != nil || len(rest) != 0 {
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
	if len(b) != 8 || kv.meta == nil {
		return []byte{KVBadOp}
	}
	next, err := kv.meta.CompletePending(binary.BigEndian.Uint64(b))
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
	case kvOpPlaceStatus:
		return kv.placeStatus()
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
		out = append(out, 1)
		out = binary.BigEndian.AppendUint32(out, uint32(p.self))
		enc := p.mp.Encode()
		out = binary.BigEndian.AppendUint32(out, uint32(len(enc)))
		out = append(out, enc...)
		out = binary.BigEndian.AppendUint64(out, p.installedEpoch)
		out = binary.BigEndian.AppendUint64(out, p.doneEpoch)
		if s := p.seal; s != nil {
			out = append(out, 1)
			out = binary.BigEndian.AppendUint64(out, s.epoch)
			out = binary.BigEndian.AppendUint64(out, s.rng.Lo)
			out = binary.BigEndian.AppendUint64(out, s.rng.Hi)
			out = binary.BigEndian.AppendUint64(out, s.count)
			out = append(out, s.digest[:]...)
		} else {
			out = append(out, 0)
		}
		if imp := p.importing; imp != nil {
			out = append(out, 1)
			out = binary.BigEndian.AppendUint64(out, imp.epoch)
			out = binary.BigEndian.AppendUint64(out, imp.rng.Lo)
			out = binary.BigEndian.AppendUint64(out, imp.rng.Hi)
			keys := make([]string, 0, len(imp.staged))
			for k := range imp.staged {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			out = binary.BigEndian.AppendUint32(out, uint32(len(keys)))
			for _, k := range keys {
				out = binary.BigEndian.AppendUint32(out, uint32(len(k)))
				out = append(out, k...)
				v := imp.staged[k]
				out = binary.BigEndian.AppendUint32(out, uint32(len(v)))
				out = append(out, v...)
			}
		} else {
			out = append(out, 0)
		}
	} else {
		out = append(out, 0)
	}
	if kv.meta != nil {
		out = append(out, 1)
		enc := kv.meta.Encode()
		out = binary.BigEndian.AppendUint32(out, uint32(len(enc)))
		out = append(out, enc...)
	} else {
		out = append(out, 0)
	}
	return out
}

// restorePlacement parses the optional placement section starting at
// off. off == len(snapshot) means the section is absent (a snapshot
// from a non-elastic store or an older writer) and leaves placement
// state empty.
func (kv *KVStore) restorePlacement(snapshot []byte, off int) (*placeState, *placement.Map, error) {
	if off == len(snapshot) {
		return nil, nil, nil
	}
	r := snapshot[off:]
	u8 := func() (byte, error) {
		if len(r) < 1 {
			return 0, errors.New("statemachine: truncated placement section")
		}
		v := r[0]
		r = r[1:]
		return v, nil
	}
	u32 := func() (uint32, error) {
		if len(r) < 4 {
			return 0, errors.New("statemachine: truncated placement section")
		}
		v := binary.BigEndian.Uint32(r)
		r = r[4:]
		return v, nil
	}
	u64 := func() (uint64, error) {
		if len(r) < 8 {
			return 0, errors.New("statemachine: truncated placement section")
		}
		v := binary.BigEndian.Uint64(r)
		r = r[8:]
		return v, nil
	}
	chunk := func() ([]byte, error) {
		n, err := u32()
		if err != nil {
			return nil, err
		}
		if int(n) > len(r) {
			return nil, errors.New("statemachine: truncated placement chunk")
		}
		v := r[:n]
		r = r[n:]
		return v, nil
	}
	readMap := func() (*placement.Map, error) {
		b, err := chunk()
		if err != nil {
			return nil, err
		}
		return placement.DecodeMap(b)
	}

	var place *placeState
	hasPlace, err := u8()
	if err != nil {
		return nil, nil, err
	}
	if hasPlace == 1 {
		place = &placeState{}
		self, err := u32()
		if err != nil {
			return nil, nil, err
		}
		place.self = ids.GroupID(self)
		if place.mp, err = readMap(); err != nil {
			return nil, nil, err
		}
		if place.installedEpoch, err = u64(); err != nil {
			return nil, nil, err
		}
		if place.doneEpoch, err = u64(); err != nil {
			return nil, nil, err
		}
		hasSeal, err := u8()
		if err != nil {
			return nil, nil, err
		}
		if hasSeal == 1 {
			s := &sealRec{}
			if s.epoch, err = u64(); err != nil {
				return nil, nil, err
			}
			if s.rng.Lo, err = u64(); err != nil {
				return nil, nil, err
			}
			if s.rng.Hi, err = u64(); err != nil {
				return nil, nil, err
			}
			if s.count, err = u64(); err != nil {
				return nil, nil, err
			}
			if len(r) < crypto.DigestSize {
				return nil, nil, errors.New("statemachine: truncated seal digest")
			}
			copy(s.digest[:], r)
			r = r[crypto.DigestSize:]
			place.seal = s
		} else if hasSeal != 0 {
			return nil, nil, errors.New("statemachine: invalid seal presence byte")
		}
		hasImp, err := u8()
		if err != nil {
			return nil, nil, err
		}
		if hasImp == 1 {
			imp := &importRec{staged: make(map[string][]byte)}
			if imp.epoch, err = u64(); err != nil {
				return nil, nil, err
			}
			if imp.rng.Lo, err = u64(); err != nil {
				return nil, nil, err
			}
			if imp.rng.Hi, err = u64(); err != nil {
				return nil, nil, err
			}
			ns, err := u32()
			if err != nil {
				return nil, nil, err
			}
			if int(ns)*8 > len(r) {
				return nil, nil, errors.New("statemachine: staged count exceeds snapshot")
			}
			for i := 0; i < int(ns); i++ {
				k, err := chunk()
				if err != nil {
					return nil, nil, err
				}
				v, err := chunk()
				if err != nil {
					return nil, nil, err
				}
				imp.staged[string(k)] = append([]byte(nil), v...)
			}
			place.importing = imp
		} else if hasImp != 0 {
			return nil, nil, errors.New("statemachine: invalid importing presence byte")
		}
	} else if hasPlace != 0 {
		return nil, nil, errors.New("statemachine: invalid placement presence byte")
	}

	var meta *placement.Map
	hasMeta, err := u8()
	if err != nil {
		return nil, nil, err
	}
	if hasMeta == 1 {
		if meta, err = readMap(); err != nil {
			return nil, nil, err
		}
	} else if hasMeta != 0 {
		return nil, nil, errors.New("statemachine: invalid meta presence byte")
	}
	if len(r) != 0 {
		return nil, nil, fmt.Errorf("statemachine: %d trailing snapshot bytes", len(r))
	}
	if place == nil && meta == nil {
		return nil, nil, errors.New("statemachine: empty placement section")
	}
	return place, meta, nil
}
