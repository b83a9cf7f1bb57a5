// Package statemachine provides the replicated service layer: the
// deterministic state machines that SeeMoRe (and the baselines) order
// operations for, plus the client table that gives exactly-once
// semantics. Operations must be atomic and deterministic (Section 5 of
// the paper): the same operation applied to the same state produces the
// same result on every replica.
package statemachine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/placement"
	"repro/internal/wire"
)

// StateMachine is the deterministic service replicated by the protocols.
// Implementations need not be goroutine-safe: each replica applies
// operations from a single execution goroutine in sequence order.
type StateMachine interface {
	// Apply executes one operation and returns its result. Apply must be
	// deterministic and must not fail: invalid operations return an
	// encoded error result rather than an error, because every replica
	// must make the same decision.
	Apply(op []byte) []byte
	// Snapshot serializes the full state for checkpointing and state
	// transfer. The encoding must be canonical: equal states produce
	// equal bytes, so digests are comparable across replicas.
	Snapshot() []byte
	// Restore replaces the state with a previously taken snapshot.
	Restore(snapshot []byte) error
}

// Digest hashes a snapshot; the protocols exchange this as the checkpoint
// state digest d (Section 5.1, State Transfer).
func Digest(sm StateMachine) crypto.Digest {
	return crypto.Sum(sm.Snapshot())
}

// ---------------------------------------------------------------------------
// KVStore

// KV opcodes. A KV operation is opcode byte + length-prefixed key
// (+ length-prefixed value for Put). The Tx opcodes carry a
// transaction id instead of a key; they are the per-shard legs of the
// two-phase commit protocol internal/txn runs across consensus groups.
const (
	kvOpGet byte = iota + 1
	kvOpPut
	kvOpDelete
	kvOpAdd       // arithmetic add to a uint64-encoded value; used by the bank example
	kvOpTxPrepare // acquire per-key locks and buffer the shard's writes, vote
	kvOpTxCommit  // apply the buffered writes, release locks
	kvOpTxAbort   // drop the buffered writes, release locks
	kvOpTxDecide  // durably record the commit/abort decision (coordinator shard)
	kvOpTxStatus  // query a transaction's fate (recovery path)
	kvOpScan      // ordered iteration over a key range with a result cap
)

// MaxScanLimit caps how many pairs one Scan returns. A request asking
// for more (or for 0, i.e. "no preference") is clamped here; the
// continuation flag tells the caller to come back for the rest.
const MaxScanLimit = 4096

// KV result status bytes.
const (
	// KVOK prefixes a successful result; the value (possibly empty)
	// follows.
	KVOK byte = iota + 1
	// KVNotFound is returned by Get/Delete/Add on a missing key, and by
	// TxCommit for a transaction this shard never prepared.
	KVNotFound
	// KVBadOp is returned for a malformed operation.
	KVBadOp
	// KVLocked is returned by a write whose key is locked by a prepared
	// transaction; the 16-byte holder TxID follows so the caller can
	// drive recovery of an abandoned transaction.
	KVLocked
	// TxVoteYes is TxPrepare's yes vote: locks acquired, writes buffered.
	TxVoteYes
	// TxVoteNo is TxPrepare's no vote; the 16-byte TxID of the blocking
	// (or already-decided) transaction follows.
	TxVoteNo
)

// Transaction fate bytes, reported by TxStatus and recorded by TxDecide.
// They are a separate namespace from the result status bytes above:
// results carry one of these in their payload, never as the leading
// status byte.
const (
	// TxUnknown: this shard has neither a prepared portion nor a recorded
	// decision — under presumed abort the transaction counts as aborted.
	TxUnknown byte = iota
	// TxPrepared: locks held and writes buffered, decision unknown here
	// (the in-doubt state).
	TxPrepared
	// TxCommitted and TxAborted are recorded decisions.
	TxCommitted
	TxAborted
)

// ---------------------------------------------------------------------------
// Transaction ids and the Tx op codec

// TxID names one cross-shard transaction: the coordinating client plus
// a per-coordinator sequence number. Coordinators that may restart must
// seed Seq from a monotonic source (the client's initial timestamp) so
// ids never repeat against a durable deployment.
type TxID struct {
	Client ids.ClientID
	Seq    uint64
}

// String implements fmt.Stringer.
func (id TxID) String() string { return fmt.Sprintf("tx:%d.%d", int64(id.Client), id.Seq) }

const txIDLen = 16

func appendTxID(out []byte, id TxID) []byte {
	out = wire.AppendU64(out, uint64(id.Client))
	return wire.AppendU64(out, id.Seq)
}

func readTxID(r *wire.Reader) TxID {
	return TxID{Client: ids.ClientID(r.U64()), Seq: r.U64()}
}

// DecodeLockHolder extracts the blocking transaction from a KVLocked or
// TxVoteNo result payload.
func DecodeLockHolder(payload []byte) (TxID, bool) {
	r := wire.NewReader(payload)
	id := readTxID(r)
	return id, r.Done() == nil
}

// EncodeTxPrepare builds the prepare leg for one shard: the transaction
// id, the full participant group list (every shard stores it, so any
// in-doubt shard can name the coordinator group during recovery), and
// this shard's buffered writes (well-formed KV write ops).
func EncodeTxPrepare(id TxID, participants []ids.GroupID, writes [][]byte) []byte {
	size := 1 + txIDLen + 4 + 4*len(participants) + 4
	for _, w := range writes {
		size += 4 + len(w)
	}
	out := make([]byte, 0, size)
	out = append(out, kvOpTxPrepare)
	out = appendTxID(out, id)
	return appendTxBody(out, participants, writes)
}

// appendTxBody appends a prepared portion as both the prepare op and
// the snapshot carry it: the participant list, then the writes.
func appendTxBody(out []byte, participants []ids.GroupID, writes [][]byte) []byte {
	out = appendParticipants(out, participants)
	out = wire.AppendU32(out, uint32(len(writes)))
	for _, w := range writes {
		out = wire.AppendBytes(out, w)
	}
	return out
}

// appendParticipants appends a u32-counted group list.
func appendParticipants(out []byte, participants []ids.GroupID) []byte {
	out = wire.AppendU32(out, uint32(len(participants)))
	for _, g := range participants {
		out = wire.AppendU32(out, uint32(g))
	}
	return out
}

// readParticipants reads appendParticipants' list.
func readParticipants(r *wire.Reader) []ids.GroupID {
	participants := make([]ids.GroupID, r.Count(4))
	for i := range participants {
		participants[i] = ids.GroupID(r.U32())
	}
	return participants
}

// EncodeTxCommit builds the commit leg: apply buffered writes, release
// locks.
func EncodeTxCommit(id TxID) []byte {
	return appendTxID([]byte{kvOpTxCommit}, id)
}

// EncodeTxAbort builds the abort leg: drop buffered writes, release
// locks. Aborting a transaction this shard never saw records the abort,
// so a late prepare cannot resurrect it.
func EncodeTxAbort(id TxID) []byte {
	return appendTxID([]byte{kvOpTxAbort}, id)
}

// EncodeTxDecide builds the decision record for the coordinator shard.
// The first decision ordered through that shard's consensus wins; the
// result echoes the recorded decision, so a coordinator and a recovery
// client racing each other always converge on the same outcome.
func EncodeTxDecide(id TxID, commit bool) []byte {
	out := appendTxID([]byte{kvOpTxDecide}, id)
	if commit {
		return append(out, TxCommitted)
	}
	return append(out, TxAborted)
}

// EncodeTxStatus builds the fate query recovery uses.
func EncodeTxStatus(id TxID) []byte {
	return appendTxID([]byte{kvOpTxStatus}, id)
}

// DecodeTxStatusReply splits a TxStatus result payload into the fate
// byte and, for TxPrepared, the participant group list.
func DecodeTxStatusReply(payload []byte) (fate byte, participants []ids.GroupID, ok bool) {
	r := wire.NewReader(payload)
	fate = r.U8()
	if r.Err() == nil && fate != TxPrepared {
		return fate, nil, r.Done() == nil
	}
	participants = readParticipants(r)
	if r.Done() != nil {
		return 0, nil, false
	}
	return fate, participants, true
}

// KVStore is an in-memory replicated key/value store with canonical
// snapshots. It is the workhorse state machine for the examples and the
// integration tests. Beyond plain KV ops it executes the per-shard legs
// of cross-shard transactions (internal/txn): prepared transactions
// hold per-key write locks and buffered writes until the coordinator's
// commit or abort arrives, and that in-doubt state is part of the
// snapshot, so durability and state transfer cover mid-2PC crashes.
//
// The mutex is not for Apply — replicas apply from a single execution
// goroutine — but for the direct read accessors (Get, Len, Fate) the
// test harnesses call while the engine is running.
type KVStore struct {
	mu      sync.RWMutex
	data    map[string][]byte
	locks   map[string]TxID    // key → prepared transaction holding it
	pending map[TxID]pendingTx // prepared, in-doubt transactions
	decided map[TxID]byte      // TxCommitted or TxAborted outcomes
	// abortOrder is the abort ledger's insertion order. Abort records
	// are FIFO-bounded at txAbortLedgerCap (eviction is driven purely
	// by Apply order, so every replica evicts identically). Commit
	// records are NOT evictable — a participant can sit in doubt for
	// unbounded wall-clock time after its coordinator dies, and
	// recovery must still find the recorded commit to roll it forward;
	// reclaiming them would take participant acknowledgments, which
	// this protocol deliberately leaves out.
	abortOrder []TxID
	// abortHorizon fences evicted abort records: per client, the
	// highest transaction sequence number whose abort was evicted.
	// Without it, evicting an abort recorded at the decision point
	// would re-open the decision — a stalled coordinator's late
	// TxDecide(commit) could then record a commit for a transaction
	// recovery already settled as aborted. With the fence, any
	// decision, prepare or finish for (client, seq ≤ horizon) with no
	// surviving record is answered as aborted. Transaction sequence
	// numbers are monotonic per client (they share the client's request
	// timestamp counter), so the fence never blocks a fresh
	// transaction. Bounded by the number of distinct clients, like the
	// client table itself.
	abortHorizon map[ids.ClientID]uint64
	// place is this group's elastic-placement fence, meta the
	// authoritative placement map (meta group only); both nil on
	// non-elastic deployments, whose behavior and snapshot bytes are
	// unchanged. See placement.go.
	place *placeState
	meta  *placement.Map
}

// txAbortLedgerCap bounds the abort ledger: an abort record only
// sharpens error reporting for late legs (a refused resurrect-prepare
// names itself instead of voting on unknown), it is never needed for
// safety.
const txAbortLedgerCap = 4096

// pendingTx is one shard's prepared portion of a cross-shard
// transaction: the buffered writes (applied in order on commit) and the
// full participant list (so recovery can find the coordinator shard
// from any in-doubt participant).
type pendingTx struct {
	participants []ids.GroupID
	writes       [][]byte
}

// NewKVStore returns an empty store.
func NewKVStore() *KVStore {
	return &KVStore{
		data:         make(map[string][]byte),
		locks:        make(map[string]TxID),
		pending:      make(map[TxID]pendingTx),
		decided:      make(map[TxID]byte),
		abortHorizon: make(map[ids.ClientID]uint64),
	}
}

// Len returns the number of keys; handy for tests.
func (kv *KVStore) Len() int {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return len(kv.data)
}

// Get reads a key directly (local, not through consensus); examples use
// it to inspect replica state. Reads see committed state only: a
// prepared transaction's buffered writes are invisible until commit.
func (kv *KVStore) Get(key string) ([]byte, bool) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	v, ok := kv.data[key]
	return v, ok
}

// Fate reports a transaction's fate as this shard knows it (a local
// read, not through consensus); tests use it to assert 2PC outcomes.
func (kv *KVStore) Fate(id TxID) byte {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	if _, ok := kv.pending[id]; ok {
		return TxPrepared
	}
	if d, ok := kv.decided[id]; ok {
		return d
	}
	if kv.belowAbortHorizon(id) {
		return TxAborted
	}
	return TxUnknown
}

// belowAbortHorizon reports whether id's abort record may have been
// evicted: everything at or below the fence counts as aborted.
func (kv *KVStore) belowAbortHorizon(id TxID) bool {
	return id.Seq <= kv.abortHorizon[id.Client]
}

// EncodeGet builds a GET operation.
func EncodeGet(key string) []byte { return encodeKV(kvOpGet, key, nil) }

// EncodePut builds a PUT operation.
func EncodePut(key string, value []byte) []byte { return encodeKV(kvOpPut, key, value) }

// EncodeDelete builds a DELETE operation.
func EncodeDelete(key string) []byte { return encodeKV(kvOpDelete, key, nil) }

// EncodeAdd builds an ADD operation: interprets the stored value as a
// big-endian uint64 and adds delta (two's-complement wrap). The bank
// example uses it for balance transfers.
func EncodeAdd(key string, delta int64) []byte {
	var buf [8]byte
	return encodeKV(kvOpAdd, key, wire.AppendU64(buf[:0], uint64(delta)))
}

// EncodeScan builds a SCAN operation over the half-open key range
// [lo, hi), returning at most limit pairs in ascending key order. An
// empty hi means "no upper bound"; limit <= 0 asks for the maximum.
func EncodeScan(lo, hi string, limit int) []byte {
	if limit < 0 {
		limit = 0
	}
	out := make([]byte, 0, 1+4+len(lo)+4+len(hi)+4)
	out = append(out, kvOpScan)
	out = wire.AppendBytes(out, lo)
	out = wire.AppendBytes(out, hi)
	return wire.AppendU32(out, uint32(limit))
}

// decodeScan splits a SCAN operation into its range and limit. It is
// the inverse of EncodeScan; ok is false for anything else.
func decodeScan(op []byte) (lo, hi string, limit int, ok bool) {
	r := wire.NewReader(op)
	if r.U8() != kvOpScan {
		return "", "", 0, false
	}
	l, h, n := r.Bytes(), r.Bytes(), r.U32()
	if r.Done() != nil {
		return "", "", 0, false
	}
	return string(l), string(h), int(n), true
}

// DecodeScanResult parses a Scan (or placement export) result: the
// ordered pairs plus a continuation flag — more=true means the range
// holds further keys past the last returned one (the caller resumes
// from its successor).
func DecodeScanResult(res []byte) (pairs []placement.Pair, more bool, err error) {
	status, b := DecodeResult(res)
	if status != KVOK {
		return nil, false, fmt.Errorf("statemachine: scan failed with status %d", status)
	}
	r := wire.NewReader(b)
	n := r.Count(8)
	if n > MaxScanLimit {
		return nil, false, fmt.Errorf("statemachine: scan result count %d out of range", n)
	}
	pairs = make([]placement.Pair, 0, n)
	readPairs(r, n, func(k, v []byte) {
		pairs = append(pairs, placement.Pair{Key: string(k), Value: append([]byte(nil), v...)})
	})
	more = r.U8() != 0
	if err := r.Done(); err != nil {
		return nil, false, fmt.Errorf("statemachine: malformed scan result: %w", err)
	}
	return pairs, more, nil
}

// sortedKeys lists the keys of data that keep accepts (every key when
// keep is nil) in ascending order.
func sortedKeys(data map[string][]byte, keep func(key string) bool) []string {
	keys := make([]string, 0, len(data))
	for k := range data {
		if keep == nil || keep(k) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// appendPairs appends the one pair-list encoding every section uses: a
// u32 count n, then each u32-length key and u32-length value, the i-th
// pair being pair(i).
func appendPairs(out []byte, n int, pair func(i int) (string, []byte)) []byte {
	out = wire.AppendU32(out, uint32(n))
	for i := 0; i < n; i++ {
		k, v := pair(i)
		out = wire.AppendBytes(out, k)
		out = wire.AppendBytes(out, v)
	}
	return out
}

// appendKeyed appends appendPairs' encoding of data's pairs under keys,
// in keys' order.
func appendKeyed(out []byte, keys []string, data map[string][]byte) []byte {
	return appendPairs(out, len(keys), func(i int) (string, []byte) { return keys[i], data[keys[i]] })
}

// readPairs reads n pairs of appendPairs' encoding (the caller has
// read the count), handing each to put until the input runs short or
// put calls r.Fail. Key and value alias the input.
func readPairs(r *wire.Reader, n int, put func(k, v []byte)) {
	for i := 0; i < n && r.Err() == nil; i++ {
		k, v := r.Bytes(), r.Bytes()
		if r.Err() == nil {
			put(k, v)
		}
	}
}

func encodeKV(op byte, key string, value []byte) []byte {
	out := make([]byte, 0, 1+4+len(key)+4+len(value))
	out = append(out, op)
	out = wire.AppendBytes(out, key)
	if op == kvOpPut || op == kvOpAdd {
		out = wire.AppendBytes(out, value)
	}
	return out
}

// kvHeader splits a KV operation into its opcode, its u32-length key
// and the bytes after the key, whatever the opcode; ok is false when op
// is shorter than the 5-byte header or the key runs past its end.
// KVOpKey, IsKVWrite, IsKVRead and applyKV all parse through it.
func kvHeader(op []byte) (code byte, key, rest []byte, ok bool) {
	r := wire.NewReader(op)
	code = r.U8()
	key = r.Bytes()
	rest = r.Rest()
	return code, key, rest, r.Err() == nil
}

// decodeValue reads a value that must fill rest exactly: a u32 length
// and that many bytes.
func decodeValue(rest []byte) ([]byte, bool) {
	r := wire.NewReader(rest)
	v := r.Bytes()
	return v, r.Done() == nil
}

// KVOpKey extracts the key a KV operation addresses, without applying
// it. Sharded deployments partition the keyspace across consensus
// groups, and the client router needs the key before the operation is
// ordered anywhere; this is that extraction point. It returns false for
// operations that are not well-formed KV ops (the router falls back to
// a deterministic default group, and the owner replica will answer
// KVBadOp exactly as an unsharded one would).
func KVOpKey(op []byte) (string, bool) {
	code, key, _, ok := kvHeader(op)
	if ok && (code == kvOpGet || code == kvOpPut || code == kvOpDelete || code == kvOpAdd) {
		return string(key), true
	}
	return "", false
}

// IsKVWrite reports whether op is a well-formed KV write (Put, Delete
// or Add) — the only operations a transaction may buffer. Prepare
// votes reject anything else; combined with commit-time upsert
// semantics (Delete of a missing key ensures absence, Add of a missing
// key starts from zero) a buffered write always applies with a
// well-defined effect.
func IsKVWrite(op []byte) bool {
	code, _, rest, ok := kvHeader(op)
	if !ok {
		return false
	}
	switch code {
	case kvOpDelete:
		return len(rest) == 0
	case kvOpPut:
		_, ok := decodeValue(rest)
		return ok
	case kvOpAdd:
		v, ok := decodeValue(rest)
		return ok && len(v) == 8
	default:
		return false
	}
}

// DecodeCounter parses the uint64 payload an Add result carries.
func DecodeCounter(payload []byte) (uint64, error) {
	r := wire.NewReader(payload)
	v := r.U64()
	if r.Done() != nil {
		return 0, fmt.Errorf("statemachine: counter payload of %d bytes", len(payload))
	}
	return v, nil
}

// DecodeResult splits a KV result into status and payload.
func DecodeResult(res []byte) (status byte, value []byte) {
	if len(res) == 0 {
		return KVBadOp, nil
	}
	return res[0], res[1:]
}

// Apply implements StateMachine.
func (kv *KVStore) Apply(op []byte) []byte {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if len(op) == 0 {
		return []byte{KVBadOp}
	}
	switch op[0] {
	case kvOpTxPrepare:
		return kv.txPrepare(op[1:])
	case kvOpTxCommit:
		return kv.txFinish(op[1:], true)
	case kvOpTxAbort:
		return kv.txFinish(op[1:], false)
	case kvOpTxDecide:
		return kv.txDecide(op[1:])
	case kvOpTxStatus:
		return kv.txStatus(op[1:])
	case kvOpScan:
		return kv.scan(op)
	case kvOpPlaceInit, kvOpPlaceSeal, kvOpPlaceExport,
		kvOpPlaceInstall, kvOpPlaceComplete,
		kvOpMetaInit, kvOpMetaApply, kvOpMetaDone, kvOpMetaGet:
		return kv.applyPlacement(op)
	}
	return kv.applyKV(op, false)
}

// Query serves a read-only operation (Get or Scan) against committed
// state without going through consensus — the serving path for leased
// and bounded-staleness reads. ok is false for any op with a write (or
// malformed) shape, which callers must order normally instead.
func (kv *KVStore) Query(op []byte) (result []byte, ok bool) {
	if !IsKVRead(op) {
		return nil, false
	}
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	if op[0] == kvOpScan {
		return kv.scan(op), true
	}
	return kv.applyKV(op, false), true
}

// IsKVRead reports whether op is a well-formed read-only KV operation:
// a Get or a Scan. Only these may bypass consensus ordering; everything
// else (including malformed frames, whose KVBadOp answer is itself a
// deterministic state-machine result) takes the ordered path.
func IsKVRead(op []byte) bool {
	if code, _, rest, ok := kvHeader(op); ok && code == kvOpGet {
		return len(rest) == 0
	}
	_, _, _, ok := decodeScan(op)
	return ok
}

// scan executes a SCAN op: ascending key order over [lo, hi), clamped
// to MaxScanLimit pairs, with a continuation flag when the range holds
// more. Callers hold kv.mu (either mode — scan never mutates).
func (kv *KVStore) scan(op []byte) []byte {
	lo, hi, limit, ok := decodeScan(op)
	if !ok {
		return []byte{KVBadOp}
	}
	if limit <= 0 || limit > MaxScanLimit {
		limit = MaxScanLimit
	}
	// Keys in a sealed outgoing range are omitted: the new owner will
	// serve them once installed, and a scan overlapping the handoff must
	// never see a pair from both sides.
	return pageResult(sortedKeys(kv.data, func(k string) bool {
		return k >= lo && (hi == "" || k < hi) && !kv.sealedOut(k)
	}), kv.data, limit)
}

// pageResult encodes the scan-shaped result of Scan and placement
// export: data's pairs under the first limit keys, then a continuation
// flag set when keys were left out.
func pageResult(keys []string, data map[string][]byte, limit int) []byte {
	more := len(keys) > limit
	if more {
		keys = keys[:limit]
	}
	out := appendKeyed([]byte{KVOK}, keys, data)
	if more {
		return append(out, 1)
	}
	return append(out, 0)
}

// applyKV executes one plain KV operation. inTx marks the commit-time
// replay of a transaction's buffered writes: the lock check is skipped
// (the writes own their locks) and Add upserts from zero on a missing
// or non-numeric key — a committed transaction must apply every one of
// its writes with a well-defined effect, it cannot half-fail the way a
// standalone Add returning KVNotFound does.
func (kv *KVStore) applyKV(op []byte, inTx bool) []byte {
	code, k, rest, ok := kvHeader(op)
	if !ok {
		return []byte{KVBadOp}
	}
	key := string(k)
	// Placement fence: a key this group no longer (or does not yet) own
	// is rejected with the current map attached. Commit-time replay of
	// buffered transaction writes is exempt — a seal cannot commit while
	// a prepared transaction holds an in-range lock, so the replay's
	// keys are always still owned here.
	if !inTx {
		if rej := kv.fenceReject(key); rej != nil {
			return rej
		}
	}
	if !inTx && code != kvOpGet {
		if holder, held := kv.locks[key]; held {
			return append([]byte{KVLocked}, appendTxID(nil, holder)...)
		}
	}
	switch code {
	case kvOpGet:
		v, ok := kv.data[key]
		if !ok {
			return []byte{KVNotFound}
		}
		return append([]byte{KVOK}, v...)
	case kvOpPut:
		v, ok := decodeValue(rest)
		if !ok {
			return []byte{KVBadOp}
		}
		kv.data[key] = append([]byte(nil), v...)
		return []byte{KVOK}
	case kvOpDelete:
		if _, ok := kv.data[key]; !ok {
			return []byte{KVNotFound}
		}
		delete(kv.data, key)
		return []byte{KVOK}
	case kvOpAdd:
		v, ok := decodeValue(rest)
		if !ok || len(v) != 8 {
			return []byte{KVBadOp}
		}
		cur, ok := kv.data[key]
		switch {
		case ok && len(cur) == 8:
		case inTx:
			cur = make([]byte, 8) // transactional Add upserts from zero
		case !ok:
			return []byte{KVNotFound}
		default:
			return []byte{KVBadOp}
		}
		sum := wire.NewReader(cur).U64() + wire.NewReader(v).U64()
		out := wire.AppendU64(make([]byte, 0, 8), sum)
		kv.data[key] = out
		return append([]byte{KVOK}, out...)
	default:
		return []byte{KVBadOp}
	}
}

// txPrepare validates and buffers one shard's portion of a cross-shard
// transaction, locking every written key. All-or-nothing: a single
// conflicting key votes the whole shard no and acquires nothing.
func (kv *KVStore) txPrepare(b []byte) []byte {
	r := wire.NewReader(b)
	id := readTxID(r)
	participants := readParticipants(r)
	// An empty participant list is malformed: recovery derives the
	// coordinator shard from it, so accepting the prepare would create
	// locks nothing could ever release.
	if r.Err() != nil || len(participants) == 0 {
		return []byte{KVBadOp}
	}
	nw := r.Count(4) // every write costs at least its length prefix
	writes := make([][]byte, 0, nw)
	keys := make([]string, 0, nw)
	for i := 0; i < nw; i++ {
		w := r.Bytes()
		if r.Err() != nil || !IsKVWrite(w) {
			return []byte{KVBadOp}
		}
		key, _ := KVOpKey(w)
		writes = append(writes, append([]byte(nil), w...))
		keys = append(keys, key)
	}
	if r.Done() != nil {
		return []byte{KVBadOp}
	}

	// Epoch fence, checked before anything is acquired: a prepare
	// touching a key this group does not currently own (it sealed away,
	// or is still importing) is rejected with the current placement, so
	// a cross-shard transaction straddling a migration sees the old
	// owner or the new one, never both. Checked ahead of the
	// idempotency cases below on purpose — a still-pending transaction
	// holding in-range locks blocks the seal itself, so a fenced
	// re-prepare can only be for a transaction this group never
	// prepared.
	for _, key := range keys {
		if rej := kv.fenceReject(key); rej != nil {
			return rej
		}
	}

	// Idempotent re-prepare of a still-pending transaction.
	if _, ok := kv.pending[id]; ok {
		return []byte{TxVoteYes}
	}
	// A decided (or horizon-fenced) transaction can never be
	// re-prepared: under presumed abort a late prepare arriving after
	// recovery aborted the transaction must not re-acquire locks. (The
	// decided transaction itself is the "blocker" the payload names.)
	if _, ok := kv.decided[id]; ok || kv.belowAbortHorizon(id) {
		return append([]byte{TxVoteNo}, appendTxID(nil, id)...)
	}
	for _, key := range keys {
		if holder, held := kv.locks[key]; held && holder != id {
			return append([]byte{TxVoteNo}, appendTxID(nil, holder)...)
		}
	}
	for _, key := range keys {
		kv.locks[key] = id
	}
	kv.pending[id] = pendingTx{participants: participants, writes: writes}
	return []byte{TxVoteYes}
}

// txFinish resolves a prepared transaction: commit applies the buffered
// writes in order, abort drops them; both release the locks and record
// the outcome. Finishing an already-finished transaction the same way
// is idempotent; the opposite way is a protocol violation and returns
// KVBadOp without touching state. Aborting a transaction this shard
// never prepared records the abort (presumed abort: the late prepare
// must then vote no); committing one returns KVNotFound, because a
// correct coordinator only sends commit after this shard voted yes.
func (kv *KVStore) txFinish(b []byte, commit bool) []byte {
	r := wire.NewReader(b)
	id := readTxID(r)
	if r.Done() != nil {
		return []byte{KVBadOp}
	}
	if p, ok := kv.pending[id]; ok {
		// A recorded decision binds even while the portion is pending
		// (this shard may be the coordinator shard): a finish leg
		// contradicting it is refused without touching state, so a
		// client sending opposite legs to different shards cannot split
		// its own transaction's outcome.
		if d, ok := kv.decided[id]; ok && (d == TxCommitted) != commit {
			return []byte{KVBadOp}
		}
		outcome := TxAborted
		if commit {
			outcome = TxCommitted
			for _, w := range p.writes {
				kv.applyKV(w, true)
			}
		}
		for _, w := range p.writes {
			if key, ok := KVOpKey(w); ok && kv.locks[key] == id {
				delete(kv.locks, key)
			}
		}
		delete(kv.pending, id)
		kv.recordDecision(id, outcome)
		return []byte{KVOK, outcome}
	}
	if d, ok := kv.decided[id]; ok {
		if (d == TxCommitted) == commit {
			return []byte{KVOK, d}
		}
		return []byte{KVBadOp}
	}
	if kv.belowAbortHorizon(id) {
		if commit {
			return []byte{KVBadOp} // fenced as aborted; a commit leg contradicts it
		}
		return []byte{KVOK, TxAborted} // already covered by the fence, no new record
	}
	if commit {
		return []byte{KVNotFound}
	}
	kv.recordDecision(id, TxAborted)
	return []byte{KVOK, TxAborted}
}

// recordDecision stores an outcome. Aborts enter the bounded FIFO
// ledger; commits are permanent (see the abortOrder field comment for
// why the asymmetry is forced).
func (kv *KVStore) recordDecision(id TxID, outcome byte) {
	if _, ok := kv.decided[id]; !ok && outcome == TxAborted {
		kv.abortOrder = append(kv.abortOrder, id)
		for len(kv.abortOrder) > txAbortLedgerCap {
			old := kv.abortOrder[0]
			// Raise the fence before forgetting the record, so the
			// evicted abort stays binding (see abortHorizon).
			if old.Seq > kv.abortHorizon[old.Client] {
				kv.abortHorizon[old.Client] = old.Seq
			}
			delete(kv.decided, old)
			kv.abortOrder = kv.abortOrder[1:]
		}
	}
	kv.decided[id] = outcome
}

// txDecide records the transaction's fate on the coordinator shard —
// the single linearization point of the whole cross-shard protocol.
// First decision ordered through consensus wins; every later decide
// (the original coordinator racing a recovery client, or vice versa)
// gets the recorded one back and must follow it.
func (kv *KVStore) txDecide(b []byte) []byte {
	r := wire.NewReader(b)
	id, d := readTxID(r), r.U8()
	if r.Done() != nil || (d != TxCommitted && d != TxAborted) {
		return []byte{KVBadOp}
	}
	if prev, ok := kv.decided[id]; ok {
		return []byte{KVOK, prev}
	}
	// The horizon stands in for evicted abort records: a late decide for
	// a fenced transaction gets the abort back and must follow it — the
	// linearization point cannot re-open.
	if kv.belowAbortHorizon(id) {
		return []byte{KVOK, TxAborted}
	}
	kv.recordDecision(id, d)
	return []byte{KVOK, d}
}

// txStatus reports a transaction's fate. A pending (in-doubt) portion
// answers TxPrepared plus the participant list even when a decision
// record also exists, so recovery keeps driving the commit/abort legs
// until the locks are actually released.
func (kv *KVStore) txStatus(b []byte) []byte {
	r := wire.NewReader(b)
	id := readTxID(r)
	if r.Done() != nil {
		return []byte{KVBadOp}
	}
	if p, ok := kv.pending[id]; ok {
		return appendParticipants([]byte{KVOK, TxPrepared}, p.participants)
	}
	if d, ok := kv.decided[id]; ok {
		return []byte{KVOK, d}
	}
	if kv.belowAbortHorizon(id) {
		return []byte{KVOK, TxAborted}
	}
	return []byte{KVOK, TxUnknown}
}

// sortTxIDs orders transaction ids canonically (client, then seq).
func sortTxIDs(ts []TxID) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Client != ts[j].Client {
			return ts[i].Client < ts[j].Client
		}
		return ts[i].Seq < ts[j].Seq
	})
}

// Snapshot implements StateMachine with a canonical (sorted) encoding.
// The transactional sections — lock table, prepared (in-doubt)
// transactions with their buffered writes, and decided outcomes — are
// part of replicated state: two replicas differing only in a prepared
// transaction are divergent, and a replica restarting mid-2PC must come
// back still holding its locks.
func (kv *KVStore) Snapshot() []byte {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	out := appendKeyed(nil, sortedKeys(kv.data, nil), kv.data)

	// Lock table, key-sorted.
	lkeys := make([]string, 0, len(kv.locks))
	for k := range kv.locks {
		lkeys = append(lkeys, k)
	}
	sort.Strings(lkeys)
	out = wire.AppendU32(out, uint32(len(lkeys)))
	for _, k := range lkeys {
		out = wire.AppendBytes(out, k)
		out = appendTxID(out, kv.locks[k])
	}

	// Prepared transactions, id-sorted; writes keep prepare order.
	pids := make([]TxID, 0, len(kv.pending))
	for id := range kv.pending {
		pids = append(pids, id)
	}
	sortTxIDs(pids)
	out = wire.AppendU32(out, uint32(len(pids)))
	for _, id := range pids {
		p := kv.pending[id]
		out = appendTxID(out, id)
		out = appendTxBody(out, p.participants, p.writes)
	}

	// Decided outcomes: commits id-sorted (they are a plain permanent
	// set), then aborts in ledger (insertion) order — the abort order
	// is a pure function of Apply order, identical on every replica,
	// and FIFO eviction depends on it, so it is canonical state.
	out = wire.AppendU32(out, uint32(len(kv.decided)))
	nc := len(kv.decided) - len(kv.abortOrder)
	if nc < 0 {
		nc = 0
	}
	commits := make([]TxID, 0, nc)
	for id, d := range kv.decided {
		if d != TxAborted {
			commits = append(commits, id)
		}
	}
	sortTxIDs(commits)
	for _, id := range commits {
		out = appendTxID(out, id)
		out = append(out, kv.decided[id])
	}
	for _, id := range kv.abortOrder {
		out = appendTxID(out, id)
		out = append(out, TxAborted)
	}

	// Abort horizon, client-sorted.
	hcs := make([]ids.ClientID, 0, len(kv.abortHorizon))
	for c := range kv.abortHorizon {
		hcs = append(hcs, c)
	}
	sort.Slice(hcs, func(i, j int) bool { return hcs[i] < hcs[j] })
	out = wire.AppendU32(out, uint32(len(hcs)))
	for _, c := range hcs {
		out = wire.AppendU64(out, uint64(c))
		out = wire.AppendU64(out, kv.abortHorizon[c])
	}
	// Placement section, appended only on elastic deployments so every
	// pre-placement snapshot stays byte-identical.
	return kv.appendPlacementSnapshot(out)
}

// Restore implements StateMachine. Every count is untrusted input (state
// transfer ships snapshots from possibly-Byzantine peers), so each is
// capped by what the remaining bytes could hold before it sizes an
// allocation: a short hostile snapshot cannot demand a multi-gigabyte
// map before the truncation checks reject it.
func (kv *KVStore) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	n := r.Count(8) // every pair costs at least its two length prefixes
	data := make(map[string][]byte, n)
	readPairs(r, n, func(k, v []byte) { data[string(k)] = append([]byte(nil), v...) })

	// Lock table.
	nl := r.Count(4 + txIDLen)
	locks := make(map[string]TxID, nl)
	for i := 0; i < nl && r.Err() == nil; i++ {
		k := r.Bytes()
		locks[string(k)] = readTxID(r)
	}

	// Prepared transactions.
	np := r.Count(txIDLen + 8)
	pending := make(map[TxID]pendingTx, np)
	for i := 0; i < np && r.Err() == nil; i++ {
		id := readTxID(r)
		participants := readParticipants(r)
		nw := r.Count(4)
		writes := make([][]byte, 0, nw)
		for j := 0; j < nw; j++ {
			writes = append(writes, append([]byte(nil), r.Bytes()...))
		}
		pending[id] = pendingTx{participants: participants, writes: writes}
	}

	// Decided outcomes: aborts rebuild the FIFO ledger in serialized
	// order; everything else is the permanent (commit) set. Duplicate
	// ids (possible only in hostile input) keep their first occurrence,
	// matching what the maps can hold.
	nd := r.Count(txIDLen + 1)
	decided := make(map[TxID]byte, nd)
	var abortOrder []TxID
	for i := 0; i < nd && r.Err() == nil; i++ {
		id, d := readTxID(r), r.U8()
		// The fate byte is an enum; anything else is a corrupt or
		// hostile snapshot (the maps only ever hold these two values).
		if d != TxCommitted && d != TxAborted {
			r.Fail(fmt.Errorf("statemachine: invalid decision fate %d", d))
		} else if _, dup := decided[id]; !dup {
			decided[id] = d
			if d == TxAborted {
				abortOrder = append(abortOrder, id)
			}
		}
	}
	for len(abortOrder) > txAbortLedgerCap {
		delete(decided, abortOrder[0])
		abortOrder = abortOrder[1:]
	}

	// Abort horizon.
	nh := r.Count(16)
	abortHorizon := make(map[ids.ClientID]uint64, nh)
	for i := 0; i < nh && r.Err() == nil; i++ {
		c := ids.ClientID(r.U64())
		abortHorizon[c] = r.U64()
	}

	// A non-elastic store's snapshot ends here; anything further is the
	// optional placement section.
	place, meta := restorePlacement(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("statemachine: snapshot: %w", err)
	}
	kv.mu.Lock()
	defer kv.mu.Unlock()
	kv.data = data
	kv.locks = locks
	kv.pending = pending
	kv.decided = decided
	kv.abortOrder = abortOrder
	kv.abortHorizon = abortHorizon
	kv.place = place
	kv.meta = meta
	return nil
}

// ---------------------------------------------------------------------------
// Counter

// Counter is the minimal deterministic state machine: every operation
// increments it and returns the new value. The micro-benchmarks (0/0
// payloads, Section 6.1) use it so that execution cost is negligible.
// The count is atomic so harness code can read Value while the engine
// goroutine applies operations.
type Counter struct {
	n atomic.Uint64
}

// NewCounter returns a zeroed counter.
func NewCounter() *Counter { return &Counter{} }

// Value returns the current count. Safe to call concurrently with Apply.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Apply implements StateMachine.
func (c *Counter) Apply(op []byte) []byte {
	return wire.AppendU64(make([]byte, 0, 8), c.n.Add(1))
}

// Snapshot implements StateMachine.
func (c *Counter) Snapshot() []byte {
	return wire.AppendU64(make([]byte, 0, 8), c.n.Load())
}

// Restore implements StateMachine.
func (c *Counter) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	n := r.U64()
	if r.Done() != nil {
		return errors.New("statemachine: counter snapshot must be 8 bytes")
	}
	c.n.Store(n)
	return nil
}

// ---------------------------------------------------------------------------
// Echo

// Echo returns a reply of a configured size regardless of the request,
// letting the 0/4 micro-benchmark (4 KB replies) drive reply-payload cost
// without a real workload.
type Echo struct {
	replySize int
	applied   uint64
}

// NewEcho builds an echo machine producing replies of replySize bytes.
func NewEcho(replySize int) *Echo { return &Echo{replySize: replySize} }

// Apply implements StateMachine.
func (e *Echo) Apply(op []byte) []byte {
	e.applied++
	return make([]byte, e.replySize)
}

// Snapshot implements StateMachine.
func (e *Echo) Snapshot() []byte {
	out := wire.AppendU64(make([]byte, 0, 16), uint64(e.replySize))
	return wire.AppendU64(out, e.applied)
}

// Restore implements StateMachine.
func (e *Echo) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	size, applied := r.U64(), r.U64()
	if r.Done() != nil {
		return errors.New("statemachine: echo snapshot must be 16 bytes")
	}
	e.replySize, e.applied = int(size), applied
	return nil
}

// ---------------------------------------------------------------------------
// ClientTable

// ClientTable records, per client, the timestamp and reply of the last
// executed request. It provides the exactly-once semantics of
// Section 5.1: a replica re-sends the cached reply for a retransmitted
// request instead of re-executing it, and discards stale timestamps.
// The table is part of replicated state and participates in snapshots.
type ClientTable struct {
	last map[ids.ClientID]clientRecord
}

type clientRecord struct {
	timestamp uint64
	reply     []byte
}

// NewClientTable returns an empty table.
func NewClientTable() *ClientTable {
	return &ClientTable{last: make(map[ids.ClientID]clientRecord)}
}

// Fresh reports whether a request with the given timestamp from client c
// has not been executed yet (strictly newer than the last executed one).
func (t *ClientTable) Fresh(c ids.ClientID, timestamp uint64) bool {
	rec, ok := t.last[c]
	return !ok || timestamp > rec.timestamp
}

// CachedReply returns the stored reply if the timestamp matches the last
// executed request exactly (a retransmission).
func (t *ClientTable) CachedReply(c ids.ClientID, timestamp uint64) ([]byte, bool) {
	rec, ok := t.last[c]
	if !ok || rec.timestamp != timestamp {
		return nil, false
	}
	return rec.reply, true
}

// Record stores the reply for the client's latest executed request.
func (t *ClientTable) Record(c ids.ClientID, timestamp uint64, reply []byte) {
	t.last[c] = clientRecord{timestamp: timestamp, reply: append([]byte(nil), reply...)}
}

// Snapshot serializes the table canonically (client-ID sorted).
func (t *ClientTable) Snapshot() []byte {
	cs := make([]ids.ClientID, 0, len(t.last))
	for c := range t.last {
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	out := wire.AppendU32(nil, uint32(len(cs)))
	for _, c := range cs {
		rec := t.last[c]
		out = wire.AppendU64(out, uint64(c))
		out = wire.AppendU64(out, rec.timestamp)
		out = wire.AppendBytes(out, rec.reply)
	}
	return out
}

// Restore replaces the table from a snapshot. The record count is
// untrusted, so it is capped by the bytes available (each record is at
// least 20 bytes of fixed header) before it sizes the table.
func (t *ClientTable) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	n := r.Count(20)
	last := make(map[ids.ClientID]clientRecord, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		c, ts := ids.ClientID(r.U64()), r.U64()
		last[c] = clientRecord{timestamp: ts, reply: append([]byte(nil), r.Bytes()...)}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("statemachine: client-table snapshot: %w", err)
	}
	t.last = last
	return nil
}
