// Package txn implements cross-shard atomic transactions: two-phase
// commit layered over the per-group consensus of a sharded deployment.
// Each shard's consensus group is treated as one reliable, totally
// ordered log (exactly the composition the paper uses for its modes):
// every 2PC leg — prepare, decide, commit/abort, status — is an
// ordinary state-machine operation ordered through the owner group's
// engine, whatever protocol and mode that group runs.
//
// The protocol is presumed abort with a linearized decision point:
//
//  1. Prepare fans out in parallel: each participant group orders a
//     TxPrepare carrying its own buffered writes plus the full
//     participant list, acquires per-key locks, and votes.
//  2. On unanimous yes the coordinator records the commit decision at
//     the coordinator shard — the lowest participant group — via
//     TxDecide, ordered through that group's consensus. The first
//     decision recorded wins; whoever loses the race (a crashed
//     coordinator's retry, or a recovery client presuming abort) gets
//     the recorded decision back and follows it.
//  3. Commit (or abort) fans out to every participant, applying or
//     dropping the buffered writes and releasing the locks.
//
// A coordinator is a plain client: it can crash between any two steps.
// Prepared participants then sit in doubt with locks held — their
// buffered writes and locks live in replicated state, surviving replica
// crash-restarts — until any other client trips over a lock (TxVoteNo
// or KVLocked names the blocking transaction) and runs Resolve: read
// the blocker's participant list from any in-doubt shard, force the
// decision at the coordinator shard (abort if none was recorded), and
// drive the finish legs. A transaction the coordinator shard never
// decided is aborted — presumed abort — so a dead coordinator can never
// leave locks held forever.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/statemachine"
)

// ErrAborted reports that the transaction did not commit and left no
// effects on any shard.
var ErrAborted = errors.New("txn: transaction aborted")

// ErrInDoubt reports that the coordinator lost contact before learning
// the recorded decision: the transaction may commit or abort, and
// recovery (another coordinator's Resolve) will settle it.
var ErrInDoubt = errors.New("txn: transaction outcome in doubt")

// ErrCommitIncomplete reports that the transaction IS durably committed
// (the decision is recorded at the coordinator shard) but one or more
// finish legs did not confirm: those shards apply the writes as soon as
// recovery trips their locks and reads the recorded commit. Callers
// may treat the transaction's writes as durable.
var ErrCommitIncomplete = errors.New("txn: committed, but not every shard confirmed applying")

// Invoker is one consensus group's client: it orders an operation
// through that group and returns the executed result. *client.Client
// implements it.
type Invoker interface {
	Invoke(op []byte) ([]byte, error)
}

// CancelInvoker is the optional fast-fail extension of Invoker: an
// invocation that can abandon its wait when cancel closes
// (client.Client implements it via InvokeCancel). The prepare fan-out
// uses it so one shard's refusal or failure stops the sibling waits
// instead of letting each run out its own retry budget — the same
// discipline Router.MultiGet applies.
type CancelInvoker interface {
	InvokeCancel(op []byte, cancel <-chan struct{}) ([]byte, error)
}

func invoke(inv Invoker, op []byte, cancel <-chan struct{}) ([]byte, error) {
	if ci, ok := inv.(CancelInvoker); ok && cancel != nil {
		return ci.InvokeCancel(op, cancel)
	}
	return inv.Invoke(op)
}

// Partitioner is the key→group mapping the coordinator partitions
// writes by. Routers pass their *placement.Cache; tests pass fakes.
type Partitioner interface {
	Shards() int
	Owner(key string) ids.GroupID
}

// ConflictError is Prepare's vote-no outcome: a participant refused
// because Blocker holds a lock (or the transaction was already decided
// against). Group is where the refusal happened — the shard to ask
// about the blocker.
type ConflictError struct {
	Group   ids.GroupID
	Blocker statemachine.TxID
}

// Error implements error.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("txn: prepare refused by %v, blocked on %v", e.Group, e.Blocker)
}

// EpochError is Prepare's placement-fence outcome: Group rejected a leg
// because the placement epoch moved and it no longer owns one of the
// leg's keys. Placement carries the rejecting shard's encoded current
// placement map (this package does not interpret it; the router layer
// refreshes its cache from it and re-partitions the transaction). The
// fence guarantees the rejected leg acquired nothing, so retrying with
// a fresh transaction id under the new placement is always safe.
type EpochError struct {
	Group     ids.GroupID
	Placement []byte
}

// Error implements error.
func (e *EpochError) Error() string {
	return fmt.Sprintf("txn: prepare refused by %v, placement epoch moved", e.Group)
}

// maxConflictRetries bounds how many times Exec retries after a lock
// conflict before giving up with ErrAborted.
const maxConflictRetries = 3

// conflictRetryWait is how long Exec waits after a lock conflict before
// retrying. A live blocker normally commits within one round trip, so
// waiting first — and force-resolving the blocker only when a retry
// finds the SAME transaction still holding the lock — keeps recovery
// from aborting healthy in-flight transactions.
const conflictRetryWait = 25 * time.Millisecond

// abortCleanupBudget caps the best-effort cleanup (decide-abort plus
// abort legs) after a failed prepare. The cleanup exists only to
// release locks promptly; presumed abort covers anything it misses, so
// it must not hold Exec hostage to an unreachable shard's full client
// retry budget — the failure that likely broke the prepare in the
// first place.
const abortCleanupBudget = time.Second

// Coordinator runs two-phase commits over a fixed set of consensus
// groups. Like the underlying clients it is not safe for concurrent
// use — run one coordinator per goroutine.
type Coordinator struct {
	client  ids.ClientID
	groups  []Invoker // indexed by GroupID
	part    Partitioner
	nextSeq func() uint64
	seq     uint64 // fallback counter when nextSeq is nil
}

// New assembles a coordinator. client must be the identity of the
// underlying group clients (it names the transactions). nextSeq mints
// the per-transaction sequence numbers; coordinators that may restart
// must draw them from a source the restart seeding rule covers —
// Router uses client.AllocateTimestamp, so transaction ids and request
// timestamps share one monotonic counter and can never repeat against
// a durable deployment once InitialTimestamp is seeded above the
// previous run. nil falls back to a zero-based in-process counter
// (fine for tests and single-run tools).
func New(client ids.ClientID, groups []Invoker, part Partitioner, nextSeq func() uint64) (*Coordinator, error) {
	if part == nil {
		return nil, errors.New("txn: coordinator needs a partitioner")
	}
	if len(groups) != part.Shards() {
		return nil, fmt.Errorf("txn: %d group invokers for %d shards", len(groups), part.Shards())
	}
	for g, inv := range groups {
		if inv == nil {
			return nil, fmt.Errorf("txn: missing the invoker for group %d", g)
		}
	}
	return &Coordinator{client: client, groups: groups, part: part, nextSeq: nextSeq}, nil
}

// Tx is one transaction attempt: its id, participant set and per-group
// write buffers. The phase methods are exposed individually so the
// fault-injection tests can kill the coordinator between any two of
// them; Exec composes them for normal use.
type Tx struct {
	ID           statemachine.TxID
	Participants []ids.GroupID // sorted ascending; [0] is the coordinator shard
	perGroup     map[ids.GroupID][][]byte
	co           *Coordinator
}

// Begin partitions the writes by owner group and assigns a fresh
// transaction id. Every write must be a well-formed KV write op
// (statemachine.EncodePut / EncodeDelete / EncodeAdd).
func (c *Coordinator) Begin(writes [][]byte) (*Tx, error) {
	if len(writes) == 0 {
		return nil, errors.New("txn: empty transaction")
	}
	perGroup := make(map[ids.GroupID][][]byte)
	for _, w := range writes {
		if !statemachine.IsKVWrite(w) {
			return nil, fmt.Errorf("txn: operation %x is not a KV write", w)
		}
		key, _ := statemachine.KVOpKey(w)
		g := c.part.Owner(key)
		perGroup[g] = append(perGroup[g], w)
	}
	parts := make([]ids.GroupID, 0, len(perGroup))
	for g := range perGroup {
		parts = append(parts, g)
	}
	for i := 1; i < len(parts); i++ { // insertion sort; participant sets are tiny
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	seq := uint64(0)
	if c.nextSeq != nil {
		seq = c.nextSeq()
	} else {
		c.seq++
		seq = c.seq
	}
	return &Tx{
		ID:           statemachine.TxID{Client: c.client, Seq: seq},
		Participants: parts,
		perGroup:     perGroup,
		co:           c,
	}, nil
}

// FanOut runs fn once per group in parallel (each group's client is
// touched by exactly one goroutine) and returns the first error. With
// failFast, the first error closes a cancel channel handed to every
// fn, so sibling waits abandon immediately; legs that fail because of
// that cancellation return ErrLegCanceled and are not reported as
// errors of their own. Exported because Router.MultiGet shares exactly
// this fail-fast discipline with the prepare fan-out.
func FanOut(groups []ids.GroupID, failFast bool, fn func(g ids.GroupID, cancel <-chan struct{}) error) error {
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		errs       []error
		cancel     chan struct{}
		cancelOnce sync.Once
	)
	if failFast {
		cancel = make(chan struct{})
	}
	for _, g := range groups {
		wg.Add(1)
		go func(g ids.GroupID) {
			defer wg.Done()
			if err := fn(g, cancel); err != nil {
				if !errors.Is(err, ErrLegCanceled) {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
				if failFast {
					cancelOnce.Do(func() { close(cancel) })
				}
			}
		}(g)
	}
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// ErrLegCanceled marks a leg abandoned because a sibling failed first;
// FanOut filters it out of the reported errors.
var ErrLegCanceled = errors.New("txn: leg canceled by a sibling's failure")

// Prepare fans the prepare legs out to every participant in parallel
// and returns nil only on unanimous yes votes. A vote-no surfaces as a
// *ConflictError; any other failure (an unreachable shard, a malformed
// write) as a plain error. The first failure cancels the sibling legs'
// waits — the transaction is aborting anyway, so nobody waits out an
// unreachable shard's retry budget. Prepare acquires locks on the
// yes-voting shards either way — the caller must follow up with
// Decide/Finish (or die and let recovery do it).
func (t *Tx) Prepare() error {
	return FanOut(t.Participants, true, func(g ids.GroupID, cancel <-chan struct{}) error {
		res, err := invoke(t.co.groups[g],
			statemachine.EncodeTxPrepare(t.ID, t.Participants, t.perGroup[g]), cancel)
		if err != nil {
			select {
			case <-cancel: // abandoned because a sibling failed first
				return ErrLegCanceled
			default:
			}
			return fmt.Errorf("txn: prepare on %v: %w", g, err)
		}
		switch status, payload := statemachine.DecodeResult(res); status {
		case statemachine.TxVoteYes:
			return nil
		case statemachine.TxVoteNo:
			blocker, ok := statemachine.DecodeLockHolder(payload)
			if !ok {
				return fmt.Errorf("txn: malformed vote-no payload from %v", g)
			}
			return &ConflictError{Group: g, Blocker: blocker}
		case statemachine.KVWrongEpoch:
			// The shard no longer owns one of the leg's keys: the
			// placement moved under the transaction. No lock was
			// acquired there; the caller refreshes its placement view
			// and re-partitions. The attached map travels up raw so
			// this package stays placement-agnostic.
			return &EpochError{Group: g, Placement: append([]byte(nil), payload...)}
		default:
			return fmt.Errorf("txn: prepare on %v rejected with status %d", g, status)
		}
	})
}

// Decide records the intended outcome at the coordinator shard and
// returns the outcome actually recorded — which differs from the
// intent exactly when a racing (recovery) coordinator got there first.
func (t *Tx) Decide(commit bool) (committed bool, err error) {
	return decideAt(t.co.groups[t.Participants[0]], t.ID, commit, nil)
}

func decideAt(inv Invoker, id statemachine.TxID, commit bool, cancel <-chan struct{}) (bool, error) {
	res, err := invoke(inv, statemachine.EncodeTxDecide(id, commit), cancel)
	if err != nil {
		return false, fmt.Errorf("txn: decide %v: %w", id, err)
	}
	status, payload := statemachine.DecodeResult(res)
	if status != statemachine.KVOK || len(payload) != 1 {
		return false, fmt.Errorf("txn: decide %v rejected with status %d", id, status)
	}
	return payload[0] == statemachine.TxCommitted, nil
}

// Finish fans the recorded outcome out to every participant, applying
// or dropping the buffered writes and releasing the locks. Unlike
// Prepare it does not fail fast: the outcome is already decided, so one
// straggling shard is no reason to stop releasing the others.
func (t *Tx) Finish(commit bool) error {
	return finishAll(t.co.groups, t.Participants, t.ID, commit, nil)
}

func finishAll(groups []Invoker, parts []ids.GroupID, id statemachine.TxID, commit bool, cancel <-chan struct{}) error {
	op := statemachine.EncodeTxAbort(id)
	if commit {
		op = statemachine.EncodeTxCommit(id)
	}
	return FanOut(parts, false, func(g ids.GroupID, _ <-chan struct{}) error {
		res, err := invoke(groups[g], op, cancel)
		if err != nil {
			return fmt.Errorf("txn: finish on %v: %w", g, err)
		}
		// KVNotFound (commit of a never-prepared portion) cannot happen
		// for a correct coordinator; KVBadOp would mean the shard recorded
		// the opposite outcome — surface both.
		if status, _ := statemachine.DecodeResult(res); status != statemachine.KVOK {
			return fmt.Errorf("txn: finish on %v rejected with status %d", g, status)
		}
		return nil
	})
}

// Exec runs one transaction end to end: prepare everywhere, decide at
// the coordinator shard, finish everywhere, retrying lock conflicts
// under fresh ids (bounded). A conflicting blocker gets one
// conflictRetryWait of grace to finish on its own — a live transaction
// normally commits within a round trip — and is force-resolved
// (presumed abort) only when a retry finds the same transaction still
// holding the lock, so recovery targets abandoned coordinators, not
// healthy concurrent ones. A nil return means every shard applied all
// of the transaction's writes; ErrAborted means no shard applied any;
// ErrCommitIncomplete means the commit is durably decided but a shard
// has yet to confirm applying it.
func (c *Coordinator) Exec(writes [][]byte) error {
	var lastErr error
	var prevBlocker statemachine.TxID
	havePrev := false
	for attempt := 0; attempt <= maxConflictRetries; attempt++ {
		t, err := c.Begin(writes)
		if err != nil {
			return err
		}
		perr := t.Prepare()
		if perr == nil {
			committed, err := t.Decide(true)
			if err != nil {
				// The decision may or may not have been recorded: the
				// transaction is in doubt, and its locks will be resolved
				// by whoever hits them next.
				return fmt.Errorf("%w: %v", ErrInDoubt, err)
			}
			if err := t.Finish(committed); err != nil {
				if committed {
					return fmt.Errorf("%w: %v", ErrCommitIncomplete, err)
				}
				return fmt.Errorf("%w: abort legs incomplete (recovery releases the stragglers): %v", ErrAborted, err)
			}
			if !committed {
				// A recovery client presumed abort before our decision
				// landed; the retry loop runs the transaction again fresh.
				lastErr = fmt.Errorf("txn: %v aborted by concurrent recovery", t.ID)
				havePrev = false
				continue
			}
			return nil
		}

		// Prepare failed. Release whatever this attempt locked: record
		// the abort and send the abort legs — best effort under a hard
		// time budget, because the unreachable shard that broke the
		// prepare may be the very one the cleanup would talk to, and
		// presumed abort covers whatever the budget cuts off.
		cleanupCancel := make(chan struct{})
		//lint:allow clockcheck the abort-cleanup budget bounds real elapsed time talking to a possibly dead shard
		cleanupTimer := time.AfterFunc(abortCleanupBudget, func() { close(cleanupCancel) })
		if _, err := decideAt(c.groups[t.Participants[0]], t.ID, false, cleanupCancel); err == nil {
			_ = finishAll(c.groups, t.Participants, t.ID, false, cleanupCancel)
		}
		cleanupTimer.Stop()
		lastErr = perr
		// A placement-fence rejection surfaces immediately: retrying
		// under the same stale partitioner view would hit the same
		// fence, so the caller (the router) must refresh first.
		var stale *EpochError
		if errors.As(perr, &stale) {
			return stale
		}
		var conflict *ConflictError
		if !errors.As(perr, &conflict) || conflict.Blocker == t.ID {
			break
		}
		if havePrev && conflict.Blocker == prevBlocker {
			// The blocker outlived a full grace period: presume its
			// coordinator dead and settle it.
			if _, err := c.Resolve(conflict.Group, conflict.Blocker); err != nil {
				return fmt.Errorf("%w: resolving blocker %v: %v", ErrAborted, conflict.Blocker, err)
			}
			havePrev = false
			continue
		}
		prevBlocker, havePrev = conflict.Blocker, true
		//lint:allow clockcheck conflict-retry pacing is a real-time client-side wait, not protocol time
		time.Sleep(conflictRetryWait)
	}
	return fmt.Errorf("%w: %v", ErrAborted, lastErr)
}

// Resolve settles a (possibly abandoned) transaction observed on group
// g: it reads the in-doubt participant list, forces a decision at the
// coordinator shard — abort, unless a commit was already recorded —
// and drives the finish legs so every lock is released. It reports the
// settled outcome. Resolving a transaction that is no longer pending on
// g is a no-op.
func (c *Coordinator) Resolve(g ids.GroupID, id statemachine.TxID) (committed bool, err error) {
	res, err := c.groups[g].Invoke(statemachine.EncodeTxStatus(id))
	if err != nil {
		return false, fmt.Errorf("txn: status of %v on %v: %w", id, g, err)
	}
	status, payload := statemachine.DecodeResult(res)
	if status != statemachine.KVOK {
		return false, fmt.Errorf("txn: status of %v rejected with status %d", id, status)
	}
	fate, participants, ok := statemachine.DecodeTxStatusReply(payload)
	if !ok {
		return false, fmt.Errorf("txn: malformed status reply for %v", id)
	}
	switch fate {
	case statemachine.TxCommitted:
		return true, nil
	case statemachine.TxAborted, statemachine.TxUnknown:
		// Unknown means never prepared here (or already aborted and
		// forgotten): under presumed abort there is nothing to release.
		return false, nil
	}
	// In doubt. Force the decision at the coordinator shard: presumed
	// abort, unless the original coordinator's commit got there first.
	// A participant list naming groups outside this deployment can only
	// come from a buggy or malicious coordinator sabotaging its own
	// transaction; such a transaction has no reachable coordinator
	// shard and therefore no legitimate commit path, so recovery keeps
	// the in-range participants (always including the shard the lock
	// was observed on) and settles those — the abort releases the locks
	// a bogus prepare would otherwise hold forever.
	valid := participants[:0]
	seen := false
	for _, p := range participants {
		if int(p) >= 0 && int(p) < len(c.groups) {
			valid = append(valid, p)
			seen = seen || p == g
		}
	}
	if !seen {
		valid = append(valid, g)
	}
	coord := valid[0]
	for _, p := range valid[1:] {
		if p < coord {
			coord = p
		}
	}
	committed, err = decideAt(c.groups[coord], id, false, nil)
	if err != nil {
		return false, err
	}
	if err := finishAll(c.groups, valid, id, committed, nil); err != nil {
		return committed, err
	}
	return committed, nil
}

// MultiPut builds the write set for a keys/values batch. Helper for
// Router.MultiPut and the CLI.
func MultiPut(keys []string, values [][]byte) ([][]byte, error) {
	if len(keys) == 0 || len(keys) != len(values) {
		return nil, fmt.Errorf("txn: %d keys for %d values", len(keys), len(values))
	}
	writes := make([][]byte, len(keys))
	for i, k := range keys {
		writes[i] = statemachine.EncodePut(k, values[i])
	}
	return writes, nil
}
