package replica

import (
	"repro/internal/message"
	"repro/internal/transport"
)

// outbox is the one place frames leave an Engine, and so the one place
// the durability rule is enforced: no frame leaves before every journal
// record appended before it is durable.
//
// The engine works in drains: the envelopes already queued when it takes
// the first one, or one tick (in the simulation, one StepEnvelope or
// StepTick). While the journal holds unsynced records, frames are held
// here; when the drain ends, one Journal.Sync covers every record
// appended so far and the held frames go out in the order they were
// sent.
// A frame built while the journal is clean goes out at once, so a replica
// without storage never holds anything. A frame sent outside any drain
// (the boot-time STATE-REQUEST) is synced and sent on the spot.
//
// Engine-goroutine confined, like the Journal it syncs.
type outbox struct {
	ep       transport.Endpoint
	jr       *Journal
	draining bool
	held     []heldFrame
}

// heldFrame is one destination of a held frame. A multicast frame is
// held once per destination and released after the last of them.
type heldFrame struct {
	to   transport.Addr
	f    *message.Frame
	last bool
}

// hold takes ownership of f, to be sent to each of to, in order, once
// the journal is synced.
func (o *outbox) hold(f *message.Frame, to []transport.Addr) {
	for i, a := range to {
		o.held = append(o.held, heldFrame{to: a, f: f, last: i == len(to)-1})
	}
	if !o.draining {
		o.flush(false)
	}
}

// flush ends a drain: one Journal.Sync, then every held frame in order,
// each released after its last destination. Nothing is sent when drop is
// set (the replica crashed mid-drain) or the sync broke the journal.
func (o *outbox) flush(drop bool) {
	if len(o.held) == 0 {
		return
	}
	if !drop {
		o.jr.Sync()
		drop = o.jr.Broken()
	}
	for i, h := range o.held {
		if !drop {
			o.ep.Send(h.to, h.f.Bytes())
		}
		if h.last {
			h.f.Release()
		}
		o.held[i] = heldFrame{}
	}
	o.held = o.held[:0]
}
