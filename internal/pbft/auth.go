package pbft

import (
	"repro/internal/message"
	"repro/internal/replica"
)

const (
	signed = replica.AuthSigned
	tagged = replica.AuthTagged
	none   = replica.AuthNone
)

// authTable says how every message kind is authenticated. A message
// keeps its signature exactly when a replica may later have to show it
// to a third party: the pre-prepare and the PREPARE votes are the
// prepared certificate a VIEW-CHANGE carries, CHECKPOINTs are the
// stability proof, and the view-change and state-transfer messages are
// checked by replicas that did not see what they report. A COMMIT vote
// and a REPLY are read by their receivers and exported by nothing, so
// they carry pairwise tags (Castro & Liskov's authenticators). The kinds
// this engine never sends are dropped on receipt.
var authTable = [...]replica.Auth{
	message.KindRequest:      none, // the client's signature inside vouches for it
	message.KindPrePrepare:   signed,
	message.KindPrepare:      signed,
	message.KindAccept:       none, // never sent
	message.KindCommit:       tagged,
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
