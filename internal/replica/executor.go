package replica

import (
	"fmt"
	"sync/atomic"

	"repro/internal/crypto"
	"repro/internal/message"
	"repro/internal/mlog"
	"repro/internal/statemachine"
	"repro/internal/wire"
)

// Executor applies committed requests to the state machine in sequence
// order, maintains the exactly-once client table, and caches snapshots at
// checkpoint boundaries so checkpoint certificates arriving later can be
// stabilized against the exact state they describe.
type Executor struct {
	sm      statemachine.StateMachine
	clients *statemachine.ClientTable

	period uint64
	// lastExecuted is written only from the engine goroutine but read as
	// a watermark by observers (the cluster harness waits on it instead
	// of sleeping), hence atomic.
	lastExecuted atomic.Uint64
	snapshots    map[uint64][]byte // composite snapshots at period boundaries
}

// NewExecutor wires a state machine with a checkpoint period.
func NewExecutor(sm statemachine.StateMachine, period uint64) *Executor {
	if period == 0 {
		panic("replica: zero checkpoint period")
	}
	return &Executor{
		sm:        sm,
		clients:   statemachine.NewClientTable(),
		period:    period,
		snapshots: map[uint64][]byte{0: compositeSnapshot(sm, statemachine.NewClientTable())},
	}
}

// LastExecuted returns the highest sequence number applied so far. Safe
// to call from outside the engine goroutine.
func (x *Executor) LastExecuted() uint64 { return x.lastExecuted.Load() }

// Period returns the checkpoint period.
func (x *Executor) Period() uint64 { return x.period }

// PlacementEpoch reports the state machine's placement epoch, 0 when
// the machine is not placement-aware (every non-elastic deployment).
// No replica reads it; the benchmark's traced state machine checks
// through it that its wrapper keeps the capability visible.
func (x *Executor) PlacementEpoch() uint64 {
	if pe, ok := x.sm.(interface{ PlacementEpoch() uint64 }); ok {
		return pe.PlacementEpoch()
	}
	return 0
}

// Fresh reports whether a client request is newer than the client's last
// executed one.
func (x *Executor) Fresh(req *message.Request) bool {
	return x.clients.Fresh(req.Client, req.Timestamp)
}

// CachedReply returns the stored reply for an exact retransmission.
func (x *Executor) CachedReply(req *message.Request) ([]byte, bool) {
	return x.clients.CachedReply(req.Client, req.Timestamp)
}

// ExecuteReady applies every consecutively committed slot above
// LastExecuted. A slot carries one request or a whole batch; every
// request in the slot is applied in batch order and onExec fires once
// per applied request (no-ops excluded). It returns how many slots were
// executed.
//
// Duplicate requests — a client timestamp at or below the last executed
// one — are not re-applied; the paper's client table semantics make the
// request a silent no-op while the cached reply remains available.
func (x *Executor) ExecuteReady(l *mlog.Log, onExec func(seq uint64, req *message.Request, result []byte)) int {
	n := 0
	for {
		seq := x.lastExecuted.Load() + 1
		entry := l.Peek(seq)
		if entry == nil || !entry.Committed() || entry.Executed() {
			// Either the next slot has not committed yet, or it was
			// garbage-collected below the stable checkpoint — in the
			// latter case execution catches up via state transfer.
			return n
		}
		reqs := entry.Requests()
		if len(reqs) == 0 {
			return n // committed but the request payload has not arrived yet
		}
		x.lastExecuted.Store(seq)
		for _, req := range reqs {
			x.applyOne(seq, req, onExec)
		}
		if seq%x.period == 0 {
			x.snapshots[seq] = compositeSnapshot(x.sm, x.clients)
		}
		entry.MarkExecuted()
		n++
	}
}

func (x *Executor) applyOne(seq uint64, req *message.Request, onExec func(uint64, *message.Request, []byte)) {
	switch {
	case req.Client < 0:
		// µ∅: transmitted like any request but leaves the state
		// unchanged (Section 5.1, view changes).
	case !x.clients.Fresh(req.Client, req.Timestamp):
		// Already executed for this client: exactly-once suppresses the
		// re-execution; the cached reply can still be re-sent.
	default:
		result := x.sm.Apply(req.Op)
		x.clients.Record(req.Client, req.Timestamp, result)
		if onExec != nil {
			onExec(seq, req, result)
		}
	}
}

// Query serves a read-only operation against the current state,
// outside consensus ordering — the serving path for leased and
// bounded-staleness reads. ok is false when the state machine does not
// support local queries (the capability below) or the op is not
// read-only; callers must order such operations normally.
func (x *Executor) Query(op []byte) ([]byte, bool) {
	q, ok := x.sm.(interface{ Query([]byte) ([]byte, bool) })
	if !ok {
		return nil, false
	}
	return q.Query(op)
}

// Backlog counts the committed slots parked behind the first gap: slots
// the pipeline committed out of order that cannot execute until the
// missing sequence numbers commit too. The message log is the reorder
// buffer; this is its occupancy, useful for tests and metrics.
func (x *Executor) Backlog(l *mlog.Log) int {
	n := 0
	for seq := x.lastExecuted.Load() + 1; seq <= l.High(); seq++ {
		e := l.Peek(seq)
		if e != nil && e.Committed() && !e.Executed() {
			n++
		}
	}
	return n
}

// AtCheckpoint reports whether seq is a checkpoint boundary.
func (x *Executor) AtCheckpoint(seq uint64) bool { return seq%x.period == 0 }

// SnapshotAt returns the cached composite snapshot taken right after
// executing seq (a checkpoint boundary).
func (x *Executor) SnapshotAt(seq uint64) ([]byte, bool) {
	s, ok := x.snapshots[seq]
	return s, ok
}

// DropSnapshotsBelow garbage-collects snapshot cache entries strictly
// below seq (called when a checkpoint stabilizes).
func (x *Executor) DropSnapshotsBelow(seq uint64) {
	for n := range x.snapshots {
		if n < seq {
			delete(x.snapshots, n)
		}
	}
}

// JumpTo installs a transferred snapshot for sequence number seq,
// replacing local state. It refuses to move backwards.
func (x *Executor) JumpTo(seq uint64, snapshot []byte) error {
	if last := x.lastExecuted.Load(); seq <= last {
		return fmt.Errorf("replica: state transfer to %d behind execution cursor %d", seq, last)
	}
	sm, ct, err := splitComposite(snapshot)
	if err != nil {
		return err
	}
	if err := x.sm.Restore(sm); err != nil {
		return err
	}
	fresh := statemachine.NewClientTable()
	if err := fresh.Restore(ct); err != nil {
		return err
	}
	x.clients = fresh
	x.lastExecuted.Store(seq)
	x.snapshots[seq] = append([]byte(nil), snapshot...)
	return nil
}

// StateDigest returns the digest of the current composite state; at a
// checkpoint boundary this is the digest the protocol puts in its
// CHECKPOINT message.
func (x *Executor) StateDigest() crypto.Digest {
	return crypto.Sum(compositeSnapshot(x.sm, x.clients))
}

// DigestOf hashes a cached snapshot.
func DigestOf(snapshot []byte) crypto.Digest { return crypto.Sum(snapshot) }

// compositeSnapshot binds service state and client table: both must
// match for two replicas to be in the same logical state (a reply cache
// divergence is a divergence).
func compositeSnapshot(sm statemachine.StateMachine, ct *statemachine.ClientTable) []byte {
	s := sm.Snapshot()
	c := ct.Snapshot()
	out := make([]byte, 0, 8+len(s)+len(c))
	out = wire.AppendBytes(out, s)
	return wire.AppendBytes(out, c)
}

// splitComposite is compositeSnapshot's inverse.
func splitComposite(snapshot []byte) (sm, ct []byte, err error) {
	r := wire.NewReader(snapshot)
	sm, ct = r.Bytes(), r.Bytes()
	if err := r.Done(); err != nil {
		return nil, nil, fmt.Errorf("replica: composite snapshot: %w", err)
	}
	return sm, ct, nil
}
