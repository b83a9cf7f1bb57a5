package message

import (
	"repro/internal/crypto"
	"repro/internal/ids"
)

// Authenticators. A replica-to-replica message that its receivers
// consume and never forward as proof carries, in Sig, PBFT's
// authenticator instead of a signature: one crypto.TagSize slot per
// replica ID, holding the sender's pairwise tag for that replica (zero
// for replicas the message is not addressed to). A multicast therefore
// stays one encode and one frame, and each receiver checks its own slot.
// A REPLY has one receiver, the client, and carries that one tag bare.

// SetTag stores the tag for replica to in its slot of auth, growing auth
// to cover the slot, and returns the extended authenticator.
func SetTag(auth []byte, to ids.ReplicaID, tag [crypto.TagSize]byte) []byte {
	end := (int(to) + 1) * crypto.TagSize
	if len(auth) < end {
		auth = append(auth, make([]byte, end-len(auth))...)
	}
	copy(auth[end-crypto.TagSize:end], tag[:])
	return auth
}

// TagOf returns replica id's slot of auth, or nil if auth does not reach
// it — Sig arrives off the wire, so it may have any length.
func TagOf(auth []byte, id ids.ReplicaID) []byte {
	if id < 0 || int(id) >= len(auth)/crypto.TagSize {
		return nil
	}
	return auth[int(id)*crypto.TagSize:][:crypto.TagSize]
}

// Seals. A proposal whose only sender is a trusted (crash-only) node is
// signed for export and tagged for receipt: Sig carries the sender's
// signature — what a receiver logs, journals and later shows a third
// party, bare — followed by an authenticator over the signed tuple and
// that signature (Signed.SealedBytes), which is all the first-hand
// receiver checks. Layout: one length byte, the signature (as long as
// the suite made it: 64, 32 or 0 bytes), then whole tag slots.

// Seal returns sig in sealed form — behind its length byte and in front
// of a zeroed authenticator of slots slots — and that authenticator,
// aliasing sealed, for the caller to fill in place with SetTag.
func Seal(sig []byte, slots int) (sealed, auth []byte) {
	if len(sig) > 0xff {
		panic("message: signature too long to seal")
	}
	sealed = make([]byte, 1+len(sig)+slots*crypto.TagSize)
	sealed[0] = byte(len(sig))
	copy(sealed[1:], sig)
	return sealed, sealed[1+len(sig):]
}

// OpenSeal splits a sealed Sig into the signature and the authenticator
// behind it, both aliasing sealed. Sig arrives off the wire, so any
// length and content are possible: ok is false unless the length byte
// fits and whole tag slots follow — a bare signature or a bare
// authenticator is no seal, except by an accident its tag check ends.
func OpenSeal(sealed []byte) (sig, auth []byte, ok bool) {
	if len(sealed) == 0 {
		return nil, nil, false
	}
	end := 1 + int(sealed[0])
	if len(sealed) < end || (len(sealed)-end)%crypto.TagSize != 0 {
		return nil, nil, false
	}
	return sealed[1:end:end], sealed[end:], true
}

// SealedBytes returns what a seal's tags cover: the signed tuple
// followed by sig, the signature over it. Binding the signature into
// the tag is what lets the receiver keep it unverified — the sealer
// vouches for these exact bytes.
func (s *Signed) SealedBytes(sig []byte) []byte {
	return append(s.AppendSignedBytes(make([]byte, 0, SignedBytesSize+len(sig))), sig...)
}

// Client authenticators. A client's REQUEST or READ keeps the client's
// signature inside µ (Request.Sig), for whoever is later shown µ
// second-hand, and carries in the wrapper's Sig an authenticator: one
// tag per replica, under the pair key the client shares with it, over
// the signed bytes followed by that signature (TaggedBytes). The first-
// hand receiver checks its own slot, not the signature.

// TaggedBytes returns what a client authenticator's tags cover: µ's
// signed bytes followed by Sig, the signature over them. As in a seal,
// binding the signature into the tag lets the receiver keep it
// unverified — the client vouches for these exact bytes.
func (r *Request) TaggedBytes() []byte {
	return append(r.appendSignedBytes(make([]byte, 0, sizeBytes(r.Op)+8+8+len(r.Sig))), r.Sig...)
}

// AuthenticateRequest returns req.Client's authenticator for req, with
// a tag in the slot of every replica in to. suite must hold the pair
// keys of req.Client and each of them.
func AuthenticateRequest(suite crypto.Suite, req *Request, to []ids.ReplicaID) []byte {
	slots := 0
	for _, r := range to {
		slots = max(slots, int(r)+1)
	}
	auth := make([]byte, slots*crypto.TagSize)
	body := req.TaggedBytes()
	for _, r := range to {
		SetTag(auth, r, suite.Tag(crypto.ClientPrincipal(int64(req.Client)), crypto.ReplicaPrincipal(int(r)), body))
	}
	return auth
}
