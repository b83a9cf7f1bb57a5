package paxos

import (
	"testing"

	"repro/internal/message"
	"repro/internal/replica"
)

// TestEveryKindClassified walks every Kind: each must be classified
// exactly once. authTable is an array literal indexed by kind, so the
// compiler already rejects a kind listed twice; what is left to catch is
// a kind added to message without a row here — and a sealed row for
// anything but the leader's own PREPARE and COMMIT, the two kinds with
// one, trusted, sender.
func TestEveryKindClassified(t *testing.T) {
	kinds := 0
	for k := message.Kind(1); k.Valid(); k++ {
		kinds++
		if int(k) >= len(authTable) {
			t.Errorf("%v is not classified", k)
			continue
		}
		switch authTable[k] {
		case replica.AuthSigned, replica.AuthTagged, replica.AuthSealed, replica.AuthNone:
		default:
			t.Errorf("%v is not classified", k)
		}
		proposal := k == message.KindPrepare || k == message.KindCommit
		if got := authTable[k] == replica.AuthSealed; got != proposal {
			t.Errorf("%v: sealed = %v, want %v (only the leader's PREPARE and COMMIT are sealed)", k, got, proposal)
		}
	}
	if len(authTable) != kinds+1 {
		t.Errorf("authTable has %d rows for %d kinds", len(authTable)-1, kinds)
	}
}
