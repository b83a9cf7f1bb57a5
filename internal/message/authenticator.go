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
