package core

// Fast-path reads. Every read used to pay a full consensus round on its
// owner group; this file implements the two coordination-free serving
// paths the trust structure of the deployment permits:
//
//   - Leased linearizable reads: the trusted-mode primary (Lion or Dog)
//     holds a read lease that its own quorum-acknowledged slots renew.
//     Each proposal records its propose time; when the slot commits at
//     the primary, the lease extends to proposeTime + Leases.Duration.
//     A primary with a valid lease serves a read locally after waiting
//     out its executor watermark — no slot allocated, no network round.
//     Safety: config.Leases.Validate pins Duration + MaxClockSkew under
//     the view-change timer, and backups arm their suspicion timers no
//     earlier than the propose time that armed the lease, so no new
//     view can activate while an expired-view primary still believes it
//     holds the lease.
//
//   - Bounded-staleness reads: any replica answers immediately from its
//     executed prefix, stamping the reply with its watermark (the last
//     executed sequence number). The client enforces its staleness
//     bound and its own read-your-writes monotonicity against that
//     stamp; the replica promises nothing beyond "this was committed
//     state".
//
// Anything that cannot be served fast — no valid lease, a state machine
// without local queries, an op that is not read-only, an untrusted mode
// — falls back to ordering the read through consensus like any write.

import (
	"time"

	"repro/internal/ids"
	"repro/internal/message"
)

// leaseState is the primary-side lease bookkeeping. Confined to the
// engine goroutine like the rest of the protocol state.
type leaseState struct {
	// propose records when this primary proposed each in-flight slot;
	// the commit of slot n extends the lease from propose[n].
	propose map[uint64]time.Time
	// expiry is the lease horizon on this replica's clock; zero means
	// no lease.
	expiry time.Time
}

// parkedRead is a leased read waiting for the executor to catch up to
// the write horizon observed at admission.
type parkedRead struct {
	req       *message.Request
	watermark uint64
}

// leaseEnabled reports whether this replica may ever hold a read lease:
// leases configured and a trusted-primary mode (the Peacock primary is
// untrusted, so its word on "no newer writes" is worthless).
func (r *Replica) leaseEnabled() bool {
	return r.leases.Enabled() && r.mode != ids.Peacock
}

// leaseRecordPropose timestamps a slot this primary just proposed so
// its commit can renew the lease.
func (r *Replica) leaseRecordPropose(seq uint64) {
	if !r.leaseEnabled() || !r.isPrimary() {
		return
	}
	r.lease.propose[seq] = r.clk.Now()
}

// leaseRenew extends the lease when a slot this primary proposed
// commits: the quorum acknowledged a proposal sent at propose[seq], so
// no new view can activate before propose[seq] + ViewChange, and the
// lease — shorter by at least MaxClockSkew — stays safe until
// propose[seq] + Duration.
func (r *Replica) leaseRenew(seq uint64) {
	t, ok := r.lease.propose[seq]
	if !ok {
		return
	}
	delete(r.lease.propose, seq)
	if !r.leaseEnabled() || !r.isPrimary() {
		return
	}
	if e := t.Add(r.leases.Duration); e.After(r.lease.expiry) {
		r.lease.expiry = e
	}
}

// leaseValid reports whether this replica may serve a linearizable read
// locally right now. leaseSlack is zero in production; the simulation
// harness sets it to deliberately serve past expiry and prove the
// linearizability checker catches the resulting stale reads.
func (r *Replica) leaseValid(now time.Time) bool {
	return r.leaseEnabled() && !r.rec.InViewChange() && r.isPrimary() &&
		now.Before(r.lease.expiry.Add(r.leaseSlack))
}

// leaseInvalidate drops the lease and every propose record (view or
// mode transition: whatever happens next, slots proposed under the old
// view must not extend a lease in the new one). Parked reads are
// handed to the intake for consensus ordering on view entry; clients
// retry reads the transition loses.
func (r *Replica) leaseInvalidate() {
	r.lease.expiry = time.Time{}
	if len(r.lease.propose) > 0 {
		r.lease.propose = make(map[uint64]time.Time)
	}
	for _, p := range r.parked {
		r.in.Park(p.req)
	}
	r.parked = nil
}

// onRead handles a client READ. Stale reads are served from the local
// executed prefix by any replica; leased reads are served locally by a
// primary holding a valid lease, after the executor reaches every slot
// proposed so far; everything else falls back to consensus ordering
// (orderRequest), whose own commit will re-arm an idle-expired lease.
// Like a REQUEST, a READ is checked on the client's tag alone.
func (r *Replica) onRead(m *message.Message) {
	req := m.Request
	if req == nil || !r.eng.AuthenticRequest(req, m.Sig) {
		return
	}
	switch m.Consistency {
	case message.ConsistencyStale:
		r.serveRead(req, message.ConsistencyStale)
	case message.ConsistencyLeased:
		if !r.leaseValid(r.clk.Now()) {
			r.orderRequest(req, false)
			return
		}
		if r.leaseSlack > 0 {
			// Injected-bug mode (simulation only): a primary with this
			// bug answers from whatever state it has right now, past the
			// true expiry and without the write fence below. The
			// linearizability checker must catch the stale reads this
			// produces.
			r.serveRead(req, message.ConsistencyLeased)
			return
		}
		// The linearization fence: every write this primary admitted
		// before the read must execute first. nextSeq-1 is the newest
		// proposed slot; waiting for the executor to reach it orders
		// the read after all of them.
		watermark := r.nextSeq - 1
		if r.exec.LastExecuted() >= watermark {
			r.serveRead(req, message.ConsistencyLeased)
			return
		}
		r.parked = append(r.parked, parkedRead{req: req, watermark: watermark})
	default:
		r.orderRequest(req, false)
	}
}

// serveRead answers a read from local committed state, bypassing
// consensus. Falls back to ordering when the state machine cannot serve
// local queries or the op is not read-only.
func (r *Replica) serveRead(req *message.Request, c message.Consistency) {
	result, ok := r.exec.Query(req.Op)
	if !ok {
		r.orderRequest(req, false)
		return
	}
	rep := &message.Message{
		Kind:        message.KindReply,
		View:        r.view,
		Mode:        r.mode,
		Timestamp:   req.Timestamp,
		Client:      req.Client,
		Result:      result,
		Consistency: c,
		Watermark:   r.exec.LastExecuted(),
		Epoch:       r.exec.PlacementEpoch(),
	}
	r.eng.SendClientTagged(req.Client, rep)
}

// drainParkedReads serves leased reads whose watermark the executor has
// reached. The lease is re-checked at serve time — the read linearizes
// now, not at admission; a read that outlived the lease is ordered
// through consensus instead.
func (r *Replica) drainParkedReads() {
	if len(r.parked) == 0 {
		return
	}
	watermark := r.exec.LastExecuted()
	now := r.clk.Now()
	keep := r.parked[:0]
	for _, p := range r.parked {
		switch {
		case p.watermark > watermark:
			keep = append(keep, p)
		case r.leaseValid(now):
			r.serveRead(p.req, message.ConsistencyLeased)
		default:
			r.orderRequest(p.req, false)
		}
	}
	r.parked = keep
}
