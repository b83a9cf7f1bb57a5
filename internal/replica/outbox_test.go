package replica

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/storage"
	"repro/internal/transport"
)

// wireEvent is one thing the replica did to its disk or its network, in
// the order it did them.
type wireEvent struct {
	op    string // "append", "sync" or "send"
	to    transport.Addr
	frame []byte // a copy of the frame, taken inside Send
	kept  []byte // the frame itself, exactly as Send received it
}

// wire records a replica's appends, syncs and sends on one timeline: it
// is both the Store under the Journal and the Endpoint under the Engine.
type wire struct {
	events     []wireEvent
	failAppend bool
	failSync   bool
}

var errDiskGone = errors.New("disk gone")

func (w *wire) Append(storage.Record) error {
	if w.failAppend {
		return errDiskGone
	}
	w.events = append(w.events, wireEvent{op: "append"})
	return nil
}

func (w *wire) Sync() error {
	if w.failSync {
		return errDiskGone
	}
	w.events = append(w.events, wireEvent{op: "sync"})
	return nil
}

func (w *wire) Replay(func(storage.Record) error) error    { return nil }
func (w *wire) SaveSnapshot(storage.Snapshot) error        { return nil }
func (w *wire) LatestSnapshot() (*storage.Snapshot, error) { return nil, nil }
func (w *wire) Truncate(uint64, []storage.Record) error    { return nil }
func (w *wire) Close() error                               { return nil }

// wireEnd is the Endpoint face of a wire (Store and Endpoint disagree on
// Close).
type wireEnd struct{ *wire }

func (wireEnd) Close()                           {}
func (w *wire) Addr() transport.Addr             { return transport.ReplicaAddr(0) }
func (w *wire) Inbox() <-chan transport.Envelope { return nil }
func (w *wire) Send(to transport.Addr, frame []byte) {
	w.events = append(w.events, wireEvent{op: "send", to: to, frame: append([]byte(nil), frame...), kept: frame})
}

// sends returns the Seq of every frame sent to each destination, in
// order, failing the test on a frame that does not decode.
func (w *wire) sends(t *testing.T) map[transport.Addr][]uint64 {
	t.Helper()
	out := make(map[transport.Addr][]uint64)
	for _, ev := range w.events {
		if ev.op != "send" {
			continue
		}
		m, err := message.Unmarshal(ev.frame)
		if err != nil {
			t.Fatalf("frame to %v does not decode (%d bytes): %v", ev.to, len(ev.frame), err)
		}
		out[ev.to] = append(out[ev.to], m.Seq)
	}
	return out
}

func (w *wire) count(op string) int {
	n := 0
	for _, ev := range w.events {
		if ev.op == op {
			n++
		}
	}
	return n
}

// drainOf runs script as one drain of the engine (a tick).
type drainOf func()

func (d drainOf) HandleMessage(*message.Message) { d() }
func (d drainOf) HandleTick(time.Time)           { d() }

func newOutboxEngine() (*Engine, *wire) {
	w := &wire{}
	return NewEngine(Config{ID: 0, Endpoint: wireEnd{w}, Journal: NewJournal(w)}), w
}

func probe(seq uint64) *message.Message {
	return &message.Message{Kind: message.KindCheckpoint, Seq: seq}
}

// TestOutbox pins the outbox's contract over a recording Store and
// Endpoint: no frame leaves before a sync covering every earlier append,
// order per destination survives holding, a clean journal holds nothing,
// a sent frame is never written again, and a crashed or fail-stopped
// replica sends nothing.
func TestOutbox(t *testing.T) {
	all := []ids.ReplicaID{0, 1, 2, 3}

	t.Run("sync precedes every send", func(t *testing.T) {
		e, w := newOutboxEngine()
		e.jr.View(1, ids.Lion) // boot: outside any drain
		e.Send(1, probe(1))
		e.StepTick(drainOf(func() {
			e.jr.View(2, ids.Lion)
			e.Send(1, probe(2))
			e.jr.View(3, ids.Lion)
			e.Multicast(all, probe(3))
			e.SendClient(5, probe(4))
			if n := w.count("send"); n != 1 {
				t.Fatalf("%d frames left mid-drain over a dirty journal, want only the boot one", n)
			}
		}), time.Time{})
		unsynced := 0
		for i, ev := range w.events {
			switch ev.op {
			case "append":
				unsynced++
			case "sync":
				unsynced = 0
			case "send":
				if unsynced > 0 {
					t.Fatalf("event %d: a frame left with %d appends unsynced", i, unsynced)
				}
			}
		}
		if got := w.count("sync"); got != 2 {
			t.Fatalf("%d syncs, want 2: one at boot, one for the whole drain", got)
		}
		if got := w.count("send"); got != 6 {
			t.Fatalf("%d frames sent, want 6", got)
		}
	})

	t.Run("FIFO per destination", func(t *testing.T) {
		e, w := newOutboxEngine()
		e.StepTick(drainOf(func() {
			e.Send(1, probe(1)) // clean: leaves at once
			e.jr.View(1, ids.Lion)
			e.Send(1, probe(2))
			e.Multicast([]ids.ReplicaID{1, 2}, probe(3))
			e.Send(2, probe(4))
		}), time.Time{})
		e.StepTick(drainOf(func() { e.Send(1, probe(5)) }), time.Time{})
		got := w.sends(t)
		want := map[transport.Addr][]uint64{1: {1, 2, 3, 5}, 2: {3, 4}}
		for to, seqs := range want {
			if !equalSeqs(got[to], seqs) {
				t.Fatalf("replica %v received %v, want %v", to, got[to], seqs)
			}
		}
	})

	t.Run("clean journal sends at once", func(t *testing.T) {
		e, w := newOutboxEngine()
		e.StepTick(drainOf(func() {
			e.Multicast(all, probe(1))
			if n := w.count("send"); n != 3 {
				t.Fatalf("%d of 3 frames left mid-drain over a clean journal", n)
			}
		}), time.Time{})
		if n := w.count("sync"); n != 0 {
			t.Fatalf("%d syncs with nothing appended", n)
		}
	})

	t.Run("a sent frame is never written again", func(t *testing.T) {
		e, w := newOutboxEngine()
		for d := uint64(1); d <= 8; d++ {
			e.StepTick(drainOf(func() {
				if d%2 == 0 {
					e.jr.View(ids.View(d), ids.Lion) // hold this drain's frames
				}
				e.Multicast(all, probe(d))
				if d%4 == 1 {
					e.jr.View(ids.View(d), ids.Lion) // hold only the direct send
				}
				e.Send(1, probe(100+d))
			}), time.Time{})
		}
		first := map[uint64][]byte{} // each multicast's frame, as its first destination got it
		sent, changed := 0, 0
		for _, ev := range w.events {
			if ev.op != "send" {
				continue
			}
			sent++
			if !bytes.Equal(ev.kept, ev.frame) {
				changed++
			}
			m, err := message.Unmarshal(ev.frame)
			if err != nil {
				t.Fatalf("frame to %v does not decode: %v", ev.to, err)
			}
			if m.Seq > 100 {
				continue
			}
			if f, ok := first[m.Seq]; !ok {
				first[m.Seq] = ev.kept
			} else if &f[0] != &ev.kept[0] {
				t.Fatalf("multicast %d reached %v in a frame of its own, not the shared one", m.Seq, ev.to)
			}
		}
		if sent != 32 {
			t.Fatalf("%d frames sent, want 32", sent)
		}
		if changed > 0 {
			t.Fatalf("%d of %d frames changed after Send returned", changed, sent)
		}
	})

	t.Run("crash mid-drain sends nothing", func(t *testing.T) {
		e, w := newOutboxEngine()
		e.StepTick(drainOf(func() {
			e.jr.View(1, ids.Lion)
			e.Multicast(all, probe(1))
			e.Crash()
		}), time.Time{})
		if n := w.count("send"); n != 0 {
			t.Fatalf("a replica that crashed mid-drain sent %d frames", n)
		}
		e.Recover()
		e.StepTick(drainOf(func() { e.Send(1, probe(2)) }), time.Time{})
		if got := w.sends(t); !equalSeqs(got[1], []uint64{2}) {
			t.Fatalf("after recovery replica 1 received %v, want only the new frame", got[1])
		}
		if n := w.count("sync"); n != 1 {
			t.Fatalf("%d syncs, want 1 before the first frame after recovery", n)
		}
	})

	t.Run("broken journal sends nothing", func(t *testing.T) {
		e, w := newOutboxEngine()
		w.failSync = true
		e.StepTick(drainOf(func() {
			e.jr.View(1, ids.Lion)
			e.Multicast(all, probe(1))
		}), time.Time{})
		w.failSync = false
		e.StepTick(drainOf(func() { e.Send(1, probe(2)) }), time.Time{})
		e.Send(1, probe(3))
		if n := w.count("send"); n != 0 {
			t.Fatalf("a replica whose sync failed sent %d frames", n)
		}
		if !e.jr.Broken() || e.jr.Failures() != 1 {
			t.Fatalf("journal broken = %v with %d failures, want broken after 1", e.jr.Broken(), e.jr.Failures())
		}

		e, w = newOutboxEngine()
		w.failAppend = true
		e.StepTick(drainOf(func() {
			e.jr.View(1, ids.Lion)
			e.Send(1, probe(1))
		}), time.Time{})
		if n := w.count("send"); n != 0 || !e.jr.Broken() {
			t.Fatalf("after a failed append: %d frames sent, broken = %v", n, e.jr.Broken())
		}
	})
}

func equalSeqs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
