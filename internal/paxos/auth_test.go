package paxos

import (
	"testing"

	"repro/internal/message"
	"repro/internal/replica"
)

// TestEveryKindClassified walks every Kind: each must be classified
// exactly once. authTable is an array literal indexed by kind, so the
// compiler already rejects a kind listed twice; what is left to catch is
// a kind added to message without a row here.
func TestEveryKindClassified(t *testing.T) {
	kinds := 0
	for k := message.Kind(1); k.Valid(); k++ {
		kinds++
		if int(k) >= len(authTable) {
			t.Errorf("%v is not classified", k)
			continue
		}
		switch authTable[k] {
		case replica.AuthSigned, replica.AuthTagged, replica.AuthNone:
		default:
			t.Errorf("%v is not classified", k)
		}
	}
	if len(authTable) != kinds+1 {
		t.Errorf("authTable has %d rows for %d kinds", len(authTable)-1, kinds)
	}
}
