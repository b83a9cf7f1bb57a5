package client

import (
	"fmt"

	"repro/internal/placement"
	"repro/internal/statemachine"
)

// Invoker is the protocol-invocation surface the single-group Client
// and the sharded Router both provide. Everything that used to
// special-case "one shard vs many" — the cluster harness, the bench
// driver, the 2PC coordinator — programs against this instead.
type Invoker interface {
	// Invoke orders one operation and blocks for its reply quorum.
	Invoke(op []byte) ([]byte, error)
	// InvokeCancel is Invoke with an early-exit signal (see
	// Client.InvokeCancel).
	InvokeCancel(op []byte, cancel <-chan struct{}) ([]byte, error)
	// Close releases the underlying endpoint(s).
	Close()
}

// Reader is the optional fast-read capability of an Invoker.
type Reader interface {
	Read(op []byte, opts ReadOptions) ([]byte, error)
}

// Scanner is the optional range-scan capability of an Invoker; the
// Router implements it by streaming per-shard continuations into one
// ordered result.
type Scanner interface {
	Scan(lo, hi string, limit int, opts ReadOptions) ([]placement.Pair, bool, error)
}

// Compile-time checks: both client shapes satisfy the unified surface.
var (
	_ Invoker = (*Client)(nil)
	_ Invoker = (*Router)(nil)
	_ Reader  = (*Client)(nil)
	_ Reader  = (*Router)(nil)
)

// KV is the typed facade over the replicated KV store: callers say what
// they want (a key, a range, a consistency level) instead of
// hand-rolling op bytes and decoding status bytes at every call site.
// It is exactly as concurrency-safe as the Invoker underneath — run one
// per goroutine.
type KV struct {
	inv Invoker
}

// NewKV wraps an Invoker (a Client or a Router).
func NewKV(inv Invoker) *KV { return &KV{inv: inv} }

// LockedError reports a write rejected because its key is locked by a
// prepared cross-shard transaction (statemachine.KVLocked). Holder is
// the blocking transaction; retrying after it commits or aborts — or
// issuing a transaction that touches the key, triggering presumed-abort
// recovery — clears it.
type LockedError struct {
	Key    string
	Holder statemachine.TxID
}

func (e *LockedError) Error() string {
	return fmt.Sprintf("client: key %q locked by transaction %v", e.Key, e.Holder)
}

// writeErr turns a non-OK write status into a typed error.
func writeErr(verb, key string, status byte, payload []byte) error {
	if status == statemachine.KVLocked {
		if holder, ok := statemachine.DecodeLockHolder(payload); ok {
			return &LockedError{Key: key, Holder: holder}
		}
	}
	return fmt.Errorf("client: %s %q failed with status %d", verb, key, status)
}

// read dispatches a read-only op per the requested consistency,
// degrading to ordered invocation when the Invoker cannot serve fast
// reads (a baseline protocol's client, a Linearizable request).
func (kv *KV) read(op []byte, opts ReadOptions) ([]byte, error) {
	if r, ok := kv.inv.(Reader); ok && opts.Consistency != Linearizable {
		return r.Read(op, opts)
	}
	return kv.inv.Invoke(op)
}

// Get reads one key. found reports whether the key exists.
func (kv *KV) Get(key string, opts ReadOptions) (value []byte, found bool, err error) {
	res, err := kv.read(statemachine.EncodeGet(key), opts)
	if err != nil {
		return nil, false, err
	}
	status, v := statemachine.DecodeResult(res)
	switch status {
	case statemachine.KVOK:
		return v, true, nil
	case statemachine.KVNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("client: get %q failed with status %d", key, status)
	}
}

// Put writes one key.
func (kv *KV) Put(key string, value []byte) error {
	res, err := kv.inv.Invoke(statemachine.EncodePut(key, value))
	if err != nil {
		return err
	}
	if status, payload := statemachine.DecodeResult(res); status != statemachine.KVOK {
		return writeErr("put", key, status, payload)
	}
	return nil
}

// Delete removes one key; found reports whether it existed.
func (kv *KV) Delete(key string) (found bool, err error) {
	res, err := kv.inv.Invoke(statemachine.EncodeDelete(key))
	if err != nil {
		return false, err
	}
	switch status, payload := statemachine.DecodeResult(res); status {
	case statemachine.KVOK:
		return true, nil
	case statemachine.KVNotFound:
		return false, nil
	default:
		return false, writeErr("delete", key, status, payload)
	}
}

// Add atomically adds delta to a uint64-encoded value and returns the
// new sum (see statemachine.EncodeAdd).
func (kv *KV) Add(key string, delta int64) (uint64, error) {
	res, err := kv.inv.Invoke(statemachine.EncodeAdd(key, delta))
	if err != nil {
		return 0, err
	}
	status, v := statemachine.DecodeResult(res)
	if status != statemachine.KVOK {
		return 0, writeErr("add", key, status, v)
	}
	return statemachine.DecodeCounter(v)
}

// Scan returns up to limit pairs of the half-open key range [lo, hi) in
// ascending key order (hi == "" means no upper bound; limit <= 0 means
// the protocol maximum). more reports that the range holds further keys
// past the last returned one — resume from its successor. Against a
// sharded Router the scan streams per-shard continuations and
// merge-sorts them; against a single group it pages through the owner's
// continuation flag.
func (kv *KV) Scan(lo, hi string, limit int, opts ReadOptions) (pairs []placement.Pair, more bool, err error) {
	if limit <= 0 || limit > statemachine.MaxScanLimit {
		limit = statemachine.MaxScanLimit
	}
	if s, ok := kv.inv.(Scanner); ok {
		return s.Scan(lo, hi, limit, opts)
	}
	cursor := lo
	for {
		res, err := kv.read(statemachine.EncodeScan(cursor, hi, limit-len(pairs)), opts)
		if err != nil {
			return nil, false, err
		}
		page, pageMore, err := statemachine.DecodeScanResult(res)
		if err != nil {
			return nil, false, err
		}
		pairs = append(pairs, page...)
		if !pageMore {
			return pairs, false, nil
		}
		if len(pairs) >= limit {
			return pairs, true, nil
		}
		if len(page) == 0 {
			return nil, false, fmt.Errorf("client: scan stalled at %q with a continuation but no results", cursor)
		}
		cursor = page[len(page)-1].Key + "\x00"
	}
}
