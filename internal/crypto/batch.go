package crypto

// BatchItem is one (signer, message, signature) triple of a batch.
type BatchItem struct {
	Signer Principal
	Msg    []byte
	Sig    []byte
}

// BatchVerify reports whether every triple in items carries a valid
// signature, checking them one by one with s.Verify and stopping at the
// first that fails. On failure it also returns that item's index; on
// success the index is -1. Every suite takes this one path, so a batch
// accepts exactly the signatures Suite.Verify accepts on their own.
func BatchVerify(s Suite, items []BatchItem) (bool, int) {
	for i := range items {
		if !s.Verify(items[i].Signer, items[i].Msg, items[i].Sig) {
			return false, i
		}
	}
	return true, -1
}
