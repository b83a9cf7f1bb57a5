package replica

import (
	"time"

	"repro/internal/clock"
)

// RelaySentinel is the pseudo-slot protocols use to arm the suspicion
// timer when a backup relays a client request to the primary: it tracks
// liveness ("the primary must make *some* progress") without occupying a
// real sequence number, so it never counts toward the proposal window.
const RelaySentinel = ^uint64(0)

// Pending tracks the slots a replica is waiting on — proposals accepted
// (or issued) but not yet committed — with one liveness timer per slot.
//
// Earlier revisions kept a single timer that restarted whenever any slot
// committed, which let a fast slot n+1 mask a stalled slot n forever: as
// long as something committed within τ, the suspicion clock never fired.
// Per-slot arming closes that hole — each slot keeps the time it was
// armed, and a slot that alone exceeds τ triggers suspicion regardless
// of progress elsewhere. Engine-goroutine confined; no locking.
type Pending struct {
	clk   clock.Clock
	slots map[uint64]time.Time
}

// NewPending builds an empty tracker whose timers run on clk (nil uses
// the real clock).
func NewPending(clk clock.Clock) *Pending {
	return &Pending{clk: clock.OrReal(clk), slots: make(map[uint64]time.Time)}
}

// Mark arms the timer for seq. Re-marking an armed slot keeps the
// original arming time (retransmissions must not push the deadline out).
func (p *Pending) Mark(seq uint64) {
	if _, ok := p.slots[seq]; !ok {
		p.slots[seq] = p.clk.Now()
	}
}

// Clear disarms the timer for a committed (or abandoned) slot.
func (p *Pending) Clear(seq uint64) { delete(p.slots, seq) }

// Reset drops every timer (view entry, state transfer).
func (p *Pending) Reset() { p.slots = make(map[uint64]time.Time) }

// Expired returns the oldest slot whose timer has run past timeout, if
// any. Protocols treat an expired slot as primary suspicion.
func (p *Pending) Expired(now time.Time, timeout time.Duration) (uint64, bool) {
	var (
		worstSeq uint64
		worstAt  time.Time
		found    bool
	)
	for seq, at := range p.slots {
		if now.Sub(at) <= timeout {
			continue
		}
		if !found || at.Before(worstAt) {
			worstSeq, worstAt, found = seq, at, true
		}
	}
	return worstSeq, found
}

// InFlight counts the real slots currently pending, excluding the relay
// sentinel: at a primary this is exactly the occupancy of its proposal
// window, which Intake compares against config.Pipelining.Depth.
func (p *Pending) InFlight() int {
	n := len(p.slots)
	if _, ok := p.slots[RelaySentinel]; ok {
		n--
	}
	return n
}

// Len returns the number of armed timers, sentinel included.
func (p *Pending) Len() int { return len(p.slots) }
