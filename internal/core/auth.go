package core

import (
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/replica"
)

const (
	signed = replica.AuthSigned
	tagged = replica.AuthTagged
	sealed = replica.AuthSealed
	none   = replica.AuthNone
)

// authTable says how every message kind is authenticated in each mode
// (every kind off the wire is a valid one — Message.Validate — and
// TestEveryKindClassified keeps a row for each).
// The rule behind it: a message keeps its signature exactly when some
// replica may later have to show it to a third party — as view-change
// evidence, inside a certificate, or by re-sending it on another's
// behalf; a message that only its receiver ever reads carries pairwise
// tags instead. And a signature is checked by whoever is shown the
// message second-hand: where the one sender of a signed kind is a
// trusted node — the Lion and Dog primary — its first-hand receivers
// check a seal and keep the signature unverified for export.
// ARCHITECTURE.md repeats the table with the reason for each row, and
// the safety argument for the sealed cells.
var authTable = [...][3]replica.Auth{
	//                        {Lion, Dog, Peacock}
	message.KindRequest:      {none, none, none},
	message.KindPrePrepare:   {none, none, signed},
	message.KindPrepare:      {sealed, sealed, signed},
	message.KindAccept:       {tagged, tagged, none},
	message.KindCommit:       {sealed, tagged, tagged},
	message.KindInform:       {none, tagged, tagged},
	message.KindReply:        {tagged, tagged, tagged},
	message.KindCheckpoint:   {signed, signed, signed},
	message.KindViewChange:   {signed, signed, signed},
	message.KindNewView:      {signed, signed, signed},
	message.KindModeChange:   {signed, signed, signed},
	message.KindStateRequest: {signed, signed, signed},
	message.KindStateReply:   {signed, signed, signed},
	message.KindRead:         {none, none, none},
}

// authentic checks an agreement message, given as its Record, the way
// authTable says its kind is authenticated in the current mode.
func (r *Replica) authentic(s *message.Signed) bool {
	return r.eng.Authentic(s, authTable[s.Kind][r.mode])
}

// multicastSigned sends the record s, which this replica has signed, the
// way authTable says its kind travels in the current mode: under the
// bare signature, or sealed.
func (r *Replica) multicastSigned(to []ids.ReplicaID, s *message.Signed) {
	if authTable[s.Kind][r.mode] == sealed {
		r.eng.MulticastSealed(to, s)
		return
	}
	r.eng.Multicast(to, s.Wire())
}
