package paxos

import (
	"repro/internal/message"
	"repro/internal/replica"
)

const (
	signed = replica.AuthSigned
	tagged = replica.AuthTagged
	sealed = replica.AuthSealed
	none   = replica.AuthNone
)

// authTable says how every message kind is authenticated. Replicas are
// crash-only here, but the rule is the one the Byzantine engines use —
// this is Lion's column of core's table — so the baselines pay for the
// same thing: a message keeps its signature exactly when a replica may
// later have to show it to a third party, and that signature is checked
// by whoever is shown the message second-hand. The leader's PREPARE and
// COMMIT travel on as view-change evidence and in the state-transfer
// suffix, so they are signed; their one sender is a trusted node, so
// they are sealed — a follower checks its tag and keeps the signature
// for export, as a Lion backup does. CHECKPOINTs are the stability
// proof, and the view-change and state-transfer messages are checked by
// replicas that did not see what they report. An ACCEPT and a REPLY are
// read by their one receiver and exported by nothing, so they carry a
// pairwise tag. The kinds this engine never sends are dropped on
// receipt.
var authTable = [...]replica.Auth{
	message.KindRequest:      none, // the client's signature inside vouches for it
	message.KindPrePrepare:   none, // never sent
	message.KindPrepare:      sealed,
	message.KindAccept:       tagged,
	message.KindCommit:       sealed,
	message.KindInform:       none, // never sent
	message.KindReply:        tagged,
	message.KindCheckpoint:   signed,
	message.KindViewChange:   signed,
	message.KindNewView:      signed,
	message.KindModeChange:   none, // never sent
	message.KindStateRequest: signed,
	message.KindStateReply:   signed,
	message.KindRead:         none, // never sent
}

// authentic checks an agreement message, given as its Record, the way
// authTable says its kind is authenticated.
func (r *Replica) authentic(s *message.Signed) bool {
	return r.eng.Authentic(s, authTable[s.Kind])
}
