package storage

import (
	"errors"
	"sync"
)

// Mem is the in-memory Store. It gives tests and the simulated cluster
// the exact durability semantics of Disk — an append stays pending until
// a Sync, synced records survive the engine that wrote them and can be
// replayed into a rebuilt replica — while modeling "the disk" as a Go
// object shared across the simulated process restart. Engines keep
// their legacy fully-volatile behavior by passing a nil Store instead.
type Mem struct {
	mu     sync.Mutex
	recs   []Record
	synced int // recs[:synced] survive a crash; the rest are pending
	snap   *Snapshot
	closed bool

	// The scripted fault (FailNth): failIn more Syncs until it fires;
	// failed latches once it has.
	failIn int
	failed error
}

// ErrInjected is what a scripted fault returns.
var ErrInjected = errors.New("storage: injected fault")

// FailNth scripts a disk fault: the nth Sync from now on (n ≥ 1) fails
// with ErrInjected, and so does every Append and Sync after it — like a
// Disk whose fsync failed, the store cannot vouch for what it was given
// any more, and what that Sync should have covered stays pending.
func (m *Mem) FailNth(n int) {
	m.mu.Lock()
	m.failIn = n
	m.mu.Unlock()
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{} }

// Reopen models a restart of the process over the same "disk",
// mirroring Open on a Disk directory: it clears the closed flag and
// drops the appends no Sync or Close covered, as a crash does.
func (m *Mem) Reopen() *Mem {
	m.mu.Lock()
	m.recs = m.recs[:m.synced]
	m.closed = false
	m.mu.Unlock()
	return m
}

// Append implements Store: the record stays pending until a Sync.
func (m *Mem) Append(rec Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("storage: store closed")
	}
	if m.failed != nil {
		return m.failed
	}
	rec.Payload = append([]byte(nil), rec.Payload...)
	m.recs = append(m.recs, rec)
	return nil
}

// Sync implements Store: it makes every pending append durable, or
// fails as scripted.
func (m *Mem) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed == nil && m.failIn > 0 {
		if m.failIn--; m.failIn == 0 {
			m.failed = ErrInjected
		}
	}
	if m.failed != nil {
		return m.failed
	}
	m.synced = len(m.recs)
	return nil
}

// Replay implements Store: it yields only synced records.
func (m *Mem) Replay(fn func(rec Record) error) error {
	m.mu.Lock()
	recs := append([]Record(nil), m.recs[:m.synced]...)
	m.mu.Unlock()
	for _, rec := range recs {
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// SaveSnapshot implements Store.
func (m *Mem) SaveSnapshot(snap Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("storage: store closed")
	}
	cp := snap
	cp.Proof = append([]byte(nil), snap.Proof...)
	cp.Data = append([]byte(nil), snap.Data...)
	m.snap = &cp
	return nil
}

// LatestSnapshot implements Store.
func (m *Mem) LatestSnapshot() (*Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.snap == nil {
		return nil, nil
	}
	cp := *m.snap
	return &cp, nil
}

// Truncate implements Store: keep records above seq, with the epoch
// records as the new head. Like Disk's, it makes every record it keeps
// durable.
func (m *Mem) Truncate(seq uint64, epoch []Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("storage: store closed")
	}
	if m.failed != nil {
		return m.failed
	}
	kept := make([]Record, 0, len(epoch)+8)
	for _, rec := range epoch {
		rec.Payload = append([]byte(nil), rec.Payload...)
		kept = append(kept, rec)
	}
	for _, rec := range m.recs {
		if gcSeq(rec) > seq {
			kept = append(kept, rec)
		}
	}
	m.recs, m.synced = kept, len(kept)
	return nil
}

// Len reports the number of live records, pending ones included (GC
// assertions in tests).
func (m *Mem) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.recs)
}

// Close implements Store: like Disk's, it syncs the pending appends
// unless a fault has latched.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed == nil {
		m.synced = len(m.recs)
	}
	m.closed = true
	return m.failed
}
