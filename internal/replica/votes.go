package replica

import (
	"sort"
	"time"

	"repro/internal/ids"
	"repro/internal/message"
)

// The view-change half of Recovery: the table of received VIEW-CHANGE
// messages and the timers around it. Which votes make a NEW-VIEW quorum
// differs per protocol and stays in the engines; composing, checking
// and entering the NEW-VIEW is newview.go's.

// InViewChange reports whether a view change is in progress.
func (rc *Recovery) InViewChange() bool { return rc.target != 0 }

// Suspect abandons normal operation for a view change toward target: it
// arms the NEW-VIEW deadline, drops the per-slot liveness timers (the
// suspicion they fed is now under way) and files this replica's own
// VIEW-CHANGE. The engine multicasts vote afterwards.
func (rc *Recovery) Suspect(target ids.View, vote *message.Message) {
	rc.target = target
	rc.deadline = rc.eng.Clock().Now().Add(2 * rc.tau)
	rc.pending.Reset()
	rc.record(vote)
}

// OnViewChange validates a peer's VIEW-CHANGE — a newer view, another
// member, its signature, and the checkpoint certificate ξ it claims —
// and files it. It reports whether the vote was admitted; the engine
// then consults Join and, if it collects for m.View, Votes.
func (rc *Recovery) OnViewChange(m *message.Message) bool {
	if m.View <= rc.view || !rc.member(m.From) || m.From == rc.eng.ID() {
		return false
	}
	if !rc.eng.Verify(m) || !rc.VerifyProof(m.Seq, m.StateDigest, m.CheckpointProof) {
		return false
	}
	rc.record(m)
	return true
}

// record files one vote; a sender's first vote for a view stands.
func (rc *Recovery) record(m *message.Message) {
	votes := rc.votes[m.View]
	if votes == nil {
		votes = make(map[ids.ReplicaID]*message.Message)
		rc.votes[m.View] = votes
	}
	if _, dup := votes[m.From]; !dup {
		votes[m.From] = m
	}
}

// Join returns the view a replica in normal operation should join: the
// smallest newer view that JoinQuorum distinct replicas demand — enough
// that a correct one shares the suspicion, so a slow replica cannot be
// left behind by a view change it never noticed — or 0, as it is for a
// replica already changing views. The scan is a pure min-aggregation, so
// the joined view — a scheduling decision — cannot depend on map
// iteration order (simdet).
func (rc *Recovery) Join() ids.View {
	var join ids.View
	if rc.target != 0 {
		return 0
	}
	for v, votes := range rc.votes {
		if v > rc.view && len(votes) >= rc.joinQuorum && (join == 0 || v < join) {
			join = v
		}
	}
	return join
}

// Votes returns the votes filed for target in sender order. The
// NEW-VIEW composed from them is order-sensitive — two votes at the
// same stable checkpoint can carry different certificates, and the
// first one wins — so map-iteration order here would break reproducible
// simulation runs.
func (rc *Recovery) Votes(target ids.View) []*message.Message {
	out := make([]*message.Message, 0, len(rc.votes[target]))
	for _, m := range rc.votes[target] {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].From < out[j].From })
	return out
}

// Overdue decides the fate of a view change whose NEW-VIEW deadline
// passed. If JoinQuorum replicas demand a newer view, at least one
// correct peer shares the suspicion and the collector may be faulty
// too: the engine should escalate to the returned view. A lone suspicion
// that nobody joined (a local timing hiccup while the cluster is
// healthy) instead backs off to normal operation in the current view —
// escalating forever would wedge this replica while its peers make
// progress without it; backOff then tells the engine to re-admit what it
// buffered meanwhile. Both results are zero while nothing is overdue.
func (rc *Recovery) Overdue(now time.Time) (escalate ids.View, backOff bool) {
	if rc.target == 0 || !now.After(rc.deadline) {
		return 0, false
	}
	joined := 0
	for v, votes := range rc.votes {
		if v > rc.view && len(votes) > joined {
			joined = len(votes)
		}
	}
	if joined >= rc.joinQuorum {
		return rc.target + 1, false
	}
	rc.target, rc.deadline = 0, time.Time{}
	rc.pending.Reset()
	return 0, true
}

// enterView records entry into a view (an applied NEW-VIEW): the view
// entry is journaled before any message of the new view goes out, so a
// recovered replica rejoins the view it last acted in; the view change
// is over, its liveness timers restart, and votes up to the view are
// history.
func (rc *Recovery) enterView(v ids.View, mode ids.Mode) {
	rc.view, rc.mode = v, mode
	rc.jr.View(v, mode)
	rc.target, rc.deadline = 0, time.Time{}
	rc.pending.Reset()
	for old := range rc.votes {
		if old <= v {
			delete(rc.votes, old)
		}
	}
}
