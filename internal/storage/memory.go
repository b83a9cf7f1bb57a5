package storage

import (
	"errors"
	"sync"
)

// Mem is the in-memory Store. It gives tests and the simulated cluster
// the exact durability semantics of Disk — records survive the engine
// that wrote them and can be replayed into a rebuilt replica — while
// modeling "the disk" as a Go object shared across the simulated
// process restart. Engines keep their legacy fully-volatile behavior by
// passing a nil Store instead.
type Mem struct {
	mu     sync.Mutex
	recs   []Record
	snap   *Snapshot
	closed bool

	// The scripted fault (FailNth): failIn more calls of failOn until
	// it fires; failed latches once it has.
	failOn Fault
	failIn int
	failed error
}

// Fault names the Mem call a scripted fault hits.
type Fault uint8

const (
	FaultAppend Fault = iota + 1 // Mem.Append
	FaultSync                    // Mem.Sync
)

// ErrInjected is what a scripted fault returns.
var ErrInjected = errors.New("storage: injected fault")

// FailNth scripts a disk fault: the nth call of kind f from now on
// (n ≥ 1) fails with ErrInjected, and so does every Append and Sync
// after it — like a Disk whose fsync failed, the store cannot vouch for
// what it was given any more.
func (m *Mem) FailNth(f Fault, n int) {
	m.mu.Lock()
	m.failOn, m.failIn = f, n
	m.mu.Unlock()
}

// fault counts one call of kind f toward the scripted fault and returns
// the latched failure, if any. Caller holds m.mu.
func (m *Mem) fault(f Fault) error {
	if m.failed == nil && m.failOn == f {
		if m.failIn--; m.failIn == 0 {
			m.failed = ErrInjected
		}
	}
	return m.failed
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{} }

// Reopen clears the closed flag so the same "disk" can back a restarted
// replica, mirroring Open on a Disk directory.
func (m *Mem) Reopen() *Mem {
	m.mu.Lock()
	m.closed = false
	m.mu.Unlock()
	return m
}

// Append implements Store.
func (m *Mem) Append(rec Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("storage: store closed")
	}
	if err := m.fault(FaultAppend); err != nil {
		return err
	}
	rec.Payload = append([]byte(nil), rec.Payload...)
	m.recs = append(m.recs, rec)
	return nil
}

// Sync implements Store. Appends are durable the moment they land, so
// all it can do is fail as scripted.
func (m *Mem) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fault(FaultSync)
}

// Replay implements Store.
func (m *Mem) Replay(fn func(rec Record) error) error {
	m.mu.Lock()
	recs := append([]Record(nil), m.recs...)
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
// records as the new head.
func (m *Mem) Truncate(seq uint64, epoch []Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("storage: store closed")
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
	m.recs = kept
	return nil
}

// Len reports the number of live records (GC assertions in tests).
func (m *Mem) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.recs)
}

// Close implements Store.
func (m *Mem) Close() error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	return nil
}
