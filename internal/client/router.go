package client

//lint:file-allow clockcheck epoch-fence retry pacing is a client-side real-time wait, not protocol time

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/placement"
	"repro/internal/statemachine"
	"repro/internal/txn"
)

// ErrUnroutable reports an operation the router cannot map to an owner
// group: no routing key is extractable from it. Malformed frames used
// to fall through to group 0 silently, which hid client-side encoding
// bugs behind a KVBadOp from an arbitrary shard.
var ErrUnroutable = errors.New("client: operation has no routing key")

// Router is the shard-aware client of a sharded deployment: one
// underlying Client (with its own Policy tracking that group's mode,
// view and primary) per consensus group. Single-key operations route to
// their owner group; multi-key reads fan out across groups in parallel.
// Like Client, a Router is not safe for concurrent use — run one per
// goroutine.
type Router struct {
	clients []*Client // indexed by GroupID
	// place is the newest placement map observed, refreshed from
	// KVWrongEpoch rejections and meta-group reads.
	place *placement.Cache
	keyOf func(op []byte) (string, bool)
	coord *txn.Coordinator // lazily built by Txn/MultiPut/ResolveTx
	// OnWrongEpoch, when set, observes every epoch rejection the router
	// absorbs (the CLI's -v wiring; tests count reroutes through it).
	OnWrongEpoch func(g ids.GroupID, m *placement.Map)
}

// Epoch-rejection retry budget. A rejection normally resolves in one
// hop (the attached map points at the new owner); the longer tail is a
// key inside a range that is mid-handoff, where the new owner keeps
// fencing until the final install page commits — that is the moving
// range's bounded unavailability, and the budget must ride it out.
const (
	maxEpochRetries = 400
	epochRetryWait  = 25 * time.Millisecond
)

// NewRouter assembles a router over a placement cache: routing follows
// the newest map the cache holds, and stale-epoch rejections refresh it
// and reroute. clients covers every provisioned group (index g serves
// group g) — spares included, since a split can make any of them an
// owner while this router is running. keyOf extracts the routing key
// from an operation; nil uses the KV codec (statemachine.KVOpKey).
// Operations without an extractable key fail with ErrUnroutable.
func NewRouter(clients []*Client, place *placement.Cache, keyOf func(op []byte) (string, bool)) (*Router, error) {
	if place == nil {
		return nil, fmt.Errorf("client: router needs a placement cache")
	}
	if len(clients) != place.Shards() {
		return nil, fmt.Errorf("client: router has %d clients for %d shards", len(clients), place.Shards())
	}
	for g, cl := range clients {
		if cl == nil {
			return nil, fmt.Errorf("client: router missing the client for group %d", g)
		}
	}
	if keyOf == nil {
		keyOf = statemachine.KVOpKey
	}
	return &Router{clients: clients, place: place, keyOf: keyOf}, nil
}

// Shards returns the number of groups the router spans.
func (r *Router) Shards() int { return len(r.clients) }

// OwnerOf returns the group an operation routes to, or ErrUnroutable
// when no key is extractable from it (a malformed op, or a range scan —
// which addresses every group; use Scan).
func (r *Router) OwnerOf(op []byte) (ids.GroupID, error) {
	key, ok := r.keyOf(op)
	if !ok {
		return 0, fmt.Errorf("%w (op of %d bytes)", ErrUnroutable, len(op))
	}
	return r.place.Owner(key), nil
}

// noteWrongEpoch absorbs one KVWrongEpoch rejection from group g:
// adopt the attached (authoritative, consensus-ordered) map when it is
// newer, tell the observer, and report whether the caller should retry
// and whether the routing actually changed (when it did not, the key is
// mid-handoff and the retry should back off instead of spinning).
func (r *Router) noteWrongEpoch(g ids.GroupID, payload []byte) (updated bool, err error) {
	m, err := placement.DecodeMap(payload)
	if err != nil {
		return false, fmt.Errorf("client: malformed placement map in epoch rejection from %v: %w", g, err)
	}
	updated = r.place.Update(m)
	if r.OnWrongEpoch != nil {
		r.OnWrongEpoch(g, m)
	}
	return updated, nil
}

// invokeRouted runs op against its owner group, absorbing stale-epoch
// rejections: each one refreshes the placement cache from the attached
// map and reroutes. Every attempt is a fresh request (new timestamp) to
// the then-current owner; the rejected attempt executed as a pure
// rejection on the old owner, so rerouting never duplicates an effect.
func (r *Router) invokeRouted(key string, op []byte, cancel <-chan struct{}, do func(g ids.GroupID) ([]byte, error)) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		g := r.place.Owner(key)
		res, err := do(g)
		if err != nil {
			return nil, err
		}
		status, payload := statemachine.DecodeResult(res)
		if status != statemachine.KVWrongEpoch {
			return res, nil
		}
		updated, err := r.noteWrongEpoch(g, payload)
		if err != nil {
			return nil, err
		}
		if attempt >= maxEpochRetries {
			return nil, fmt.Errorf("client: key %q still fenced after %d epoch retries", key, attempt)
		}
		if !updated && r.place.Owner(key) == g {
			// Same owner, same map: the range is mid-handoff (sealed at
			// the source or still installing at the target). Wait out a
			// slice of the handoff window.
			select {
			case <-cancel:
				return nil, ErrCanceled
			case <-time.After(epochRetryWait):
			}
		}
	}
}

// Invoke routes one operation to its owner group and blocks for that
// group's reply quorum, exactly as Client.Invoke does against an
// unsharded cluster. Stale-epoch rejections (only a resharding
// deployment emits them) are absorbed: the router refreshes its
// placement cache from the rejection and reroutes, so callers never see
// a misrouted result.
func (r *Router) Invoke(op []byte) ([]byte, error) {
	return r.InvokeCancel(op, nil)
}

// InvokeCancel is Invoke with an early-exit signal, completing the
// Invoker surface (the 2PC coordinator cancels sibling legs through
// it).
func (r *Router) InvokeCancel(op []byte, cancel <-chan struct{}) ([]byte, error) {
	key, ok := r.keyOf(op)
	if !ok {
		return nil, fmt.Errorf("%w (op of %d bytes)", ErrUnroutable, len(op))
	}
	return r.invokeRouted(key, op, cancel, func(g ids.GroupID) ([]byte, error) {
		return r.clients[g].InvokeCancel(op, cancel)
	})
}

// Read routes a single-key read to its owner group at the requested
// consistency level (see Client.Read), rerouting on stale-epoch
// rejections like Invoke. Range scans have no single owner; use Scan.
func (r *Router) Read(op []byte, opts ReadOptions) ([]byte, error) {
	key, ok := r.keyOf(op)
	if !ok {
		return nil, fmt.Errorf("%w (op of %d bytes)", ErrUnroutable, len(op))
	}
	return r.invokeRouted(key, op, nil, func(g ids.GroupID) ([]byte, error) {
		return r.clients[g].Read(op, opts)
	})
}

// Scan merge-streams the key range [lo, hi) across every provisioned
// group in ascending key order, up to limit pairs. Hash placement
// scatters any key interval over the whole ring, and scans are served
// from committed local state without an epoch fence, so the router asks
// every group (spares included) rather than the cached map's owners: a
// stale cache must not skip a freshly installed range, and an empty
// spare answers an empty page cheaply. Each group is read in pages
// through its own continuation token, so an arbitrarily large range
// never materializes anywhere at once; more reports that keys
// remain past the last returned one (resume from its successor). The
// consistency level applies per shard: a Stale merge is a union of
// per-shard bounded-staleness snapshots, not one cross-shard cut.
func (r *Router) Scan(lo, hi string, limit int, opts ReadOptions) (pairs []placement.Pair, more bool, err error) {
	if limit <= 0 || limit > statemachine.MaxScanLimit {
		limit = statemachine.MaxScanLimit
	}
	type shardStream struct {
		g    ids.GroupID
		buf  []placement.Pair
		next string // resume key of the shard's following page
		done bool   // shard exhausted (last page had no continuation)
	}
	// Per-shard page size: every group could in principle own the next
	// `limit` smallest keys, but paging keeps refills cheap.
	page := limit
	if page > 256 {
		page = 256
	}
	fill := func(s *shardStream) error {
		res, err := r.clients[s.g].Read(statemachine.EncodeScan(s.next, hi, page), opts)
		if err != nil {
			return fmt.Errorf("client: scan on group %v: %w", s.g, err)
		}
		buf, pageMore, err := statemachine.DecodeScanResult(res)
		if err != nil {
			return fmt.Errorf("client: scan on group %v: %w", s.g, err)
		}
		s.buf = buf
		if pageMore {
			if len(buf) == 0 {
				return fmt.Errorf("client: scan on group %v stalled with a continuation but no results", s.g)
			}
			s.next = buf[len(buf)-1].Key + "\x00"
		} else {
			s.done = true
		}
		return nil
	}
	streams := make([]*shardStream, len(r.clients))
	for g := range streams {
		s := &shardStream{g: ids.GroupID(g), next: lo}
		if err := fill(s); err != nil {
			return nil, false, err
		}
		streams[g] = s
	}
	for len(pairs) < limit {
		// Pick the stream holding the smallest next key.
		var min *shardStream
		for _, s := range streams {
			if len(s.buf) == 0 {
				continue
			}
			if min == nil || s.buf[0].Key < min.buf[0].Key {
				min = s
			}
		}
		if min == nil {
			return pairs, false, nil // every shard exhausted
		}
		pairs = append(pairs, min.buf[0])
		min.buf = min.buf[1:]
		if len(min.buf) == 0 && !min.done {
			if err := fill(min); err != nil {
				return nil, false, err
			}
		}
	}
	for _, s := range streams {
		if len(s.buf) > 0 || !s.done {
			return pairs, true, nil
		}
	}
	return pairs, false, nil
}

// MultiGet reads several keys in one call, fanning the GETs out across
// their owner groups in parallel (one goroutine per involved group;
// keys within a group are read sequentially through that group's
// client). Results are returned in key order; a missing key yields a
// nil value. The first group error aborts the whole read: the sibling
// goroutines are canceled, so the call returns as soon as the error is
// observed instead of waiting out every other group's retry budget.
func (r *Router) MultiGet(keys []string) ([][]byte, error) {
	// The whole fan-out retries when any leg hits the epoch fence: the
	// rejection refreshed the cache, so the next pass partitions the
	// keys under the newer map. Bounded like every epoch retry.
	for attempt := 0; ; attempt++ {
		out, err := r.multiGetOnce(keys)
		var stale *epochStaleError
		if !errors.As(err, &stale) {
			return out, err
		}
		if attempt >= maxEpochRetries {
			return nil, fmt.Errorf("client: multi-get still fenced after %d epoch retries", attempt)
		}
		if !stale.updated {
			time.Sleep(epochRetryWait) // mid-handoff; see invokeRouted
		}
	}
}

// epochStaleError aborts one multiGetOnce pass; updated mirrors
// noteWrongEpoch's report so the retry knows whether to back off.
type epochStaleError struct{ updated bool }

func (e *epochStaleError) Error() string { return "client: multi-get leg hit a stale placement epoch" }

func (r *Router) multiGetOnce(keys []string) ([][]byte, error) {
	type slot struct {
		idx int
		key string
	}
	byGroup := make(map[ids.GroupID][]slot)
	for i, k := range keys {
		g := r.place.Owner(k)
		byGroup[g] = append(byGroup[g], slot{idx: i, key: k})
	}

	groups := make([]ids.GroupID, 0, len(byGroup))
	for g := range byGroup {
		groups = append(groups, g)
	}
	out := make([][]byte, len(keys)) // each slot written by exactly one goroutine
	err := txn.FanOut(groups, true, func(g ids.GroupID, cancel <-chan struct{}) error {
		for _, s := range byGroup[g] {
			select {
			case <-cancel: // a sibling group already failed
				return txn.ErrLegCanceled
			default:
			}
			res, err := r.clients[g].InvokeCancel(statemachine.EncodeGet(s.key), cancel)
			if err != nil {
				// Cancellation is the consequence of the first error,
				// not an error of its own.
				if errors.Is(err, ErrCanceled) {
					return txn.ErrLegCanceled
				}
				return fmt.Errorf("client: multi-get %q from %v: %w", s.key, g, err)
			}
			status, value := statemachine.DecodeResult(res)
			if status == statemachine.KVWrongEpoch {
				updated, err := r.noteWrongEpoch(g, value)
				if err != nil {
					return err
				}
				return &epochStaleError{updated: updated}
			}
			if status == statemachine.KVOK {
				out[s.idx] = append([]byte(nil), value...)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// coordinator lazily assembles the 2PC coordinator over the per-group
// clients. Transaction ids are minted from the group-0 client's
// timestamp counter (AllocateTimestamp), so they live in the same
// monotonic domain as request timestamps: seeding a restarted client's
// InitialTimestamp above its previous run makes both its requests and
// its transaction ids collision-free, with no separate rule to follow.
func (r *Router) coordinator() (*txn.Coordinator, error) {
	if r.coord != nil {
		return r.coord, nil
	}
	groups := make([]txn.Invoker, len(r.clients))
	for g, cl := range r.clients {
		groups[g] = cl
	}
	co, err := txn.New(r.clients[0].ID(), groups, r.place, r.clients[0].AllocateTimestamp)
	if err != nil {
		return nil, err
	}
	r.coord = co
	return co, nil
}

// Txn atomically applies a set of KV writes (EncodePut / EncodeDelete /
// EncodeAdd) that may span any number of shards, running two-phase
// commit over the owner groups (internal/txn). Either every shard
// applies all of its writes or no shard applies any. Lock conflicts
// with an abandoned transaction are resolved (presumed abort) and the
// transaction retried under a fresh id; txn.ErrAborted reports a
// transaction that left no effects anywhere.
func (r *Router) Txn(writes [][]byte) error {
	co, err := r.coordinator()
	if err != nil {
		return err
	}
	// The coordinator partitions by r.place, so after an epoch-fence
	// rejection refreshes the cache the retry re-partitions the writes
	// under the new map. The fence guarantees the rejected attempt
	// acquired nothing on the rejecting shard and the abort legs
	// released the rest, so the fresh-id retry is effect-free.
	for attempt := 0; ; attempt++ {
		err := co.Exec(writes)
		var stale *txn.EpochError
		if !errors.As(err, &stale) {
			return err
		}
		updated, nerr := r.noteWrongEpoch(stale.Group, stale.Placement)
		if nerr != nil {
			return nerr
		}
		if attempt >= maxEpochRetries {
			return fmt.Errorf("client: transaction still fenced after %d epoch retries: %w", attempt, err)
		}
		if !updated {
			time.Sleep(epochRetryWait) // mid-handoff; see invokeRouted
		}
	}
}

// MultiPut atomically writes several key/value pairs across their owner
// shards — the cross-shard companion of MultiGet.
func (r *Router) MultiPut(keys []string, values [][]byte) error {
	writes, err := txn.MultiPut(keys, values)
	if err != nil {
		return err
	}
	return r.Txn(writes)
}

// ResolveTx settles a possibly-abandoned transaction observed on group
// g (the id arrives in a KVLocked result payload, see
// statemachine.DecodeLockHolder): presumed abort unless the coordinator
// shard recorded a commit, then the finish legs run so every lock is
// released. It reports the settled outcome.
func (r *Router) ResolveTx(g ids.GroupID, id statemachine.TxID) (committed bool, err error) {
	co, err := r.coordinator()
	if err != nil {
		return false, err
	}
	return co.Resolve(g, id)
}

// Close closes every per-group client.
func (r *Router) Close() {
	for _, cl := range r.clients {
		cl.Close()
	}
}
