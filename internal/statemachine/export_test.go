package statemachine

import (
	"fmt"
	"testing"

	"repro/internal/ids"
	"repro/internal/placement"
)

// AllSections builds a store whose snapshot holds every section: data,
// locks, a prepared transaction, commit and abort records, an abort
// horizon, a placement fence with both a seal and an import, and a
// meta map with a pending migration. The horizon and the import beside
// the seal are set directly: no short op sequence reaches them, but
// Restore accepts both.
func AllSections(tb testing.TB) *KVStore {
	tb.Helper()
	boot, err := placement.Bootstrap(1, 2, 3)
	if err != nil {
		tb.Fatal(err)
	}
	split := placement.Cmd{Kind: placement.CmdSplit, Group: 0, To: 1}
	next, err := split.Apply(boot)
	if err != nil {
		tb.Fatal(err)
	}
	var kept, moved []string
	for i := 0; len(kept) < 3 || len(moved) < 2; i++ {
		k := fmt.Sprintf("key-%d", i)
		if in := next.Pending.Range.Contains(placement.Hash(k)); !in && len(kept) < 3 {
			kept = append(kept, k)
		} else if in && len(moved) < 2 {
			moved = append(moved, k)
		}
	}
	parts := []ids.GroupID{0, 1}
	kv := NewKVStore()
	ops := [][]byte{EncodePlaceInit(0, boot)}
	for _, k := range append(kept, moved...) {
		ops = append(ops, EncodePut(k, []byte("v-"+k)))
	}
	ops = append(ops,
		EncodePut("empty", nil),
		EncodeTxPrepare(TxID{Client: 2, Seq: 1}, parts, [][]byte{EncodePut(kept[0], []byte("tx")), EncodeDelete(kept[1])}),
		EncodeTxPrepare(TxID{Client: 2, Seq: 2}, parts, [][]byte{EncodeAdd("ctr", 1)}),
		EncodeTxCommit(TxID{Client: 2, Seq: 2}),
		EncodeTxAbort(TxID{Client: 3, Seq: 1}),
		EncodePlaceSeal(next),
		EncodeMetaInit(boot),
		EncodeMetaApply(split),
	)
	for _, op := range ops {
		if st, _ := DecodeResult(kv.Apply(op)); st != KVOK && st != TxVoteYes {
			tb.Fatalf("building the all-sections store: op %x answered status %d", op[:1], st)
		}
	}
	kv.abortHorizon[4] = 9
	kv.place.importing = &importRec{epoch: 7, rng: placement.Range{Lo: 1 << 60, Hi: 1 << 61},
		staged: map[string][]byte{"imp-a": []byte("1"), "imp-b": nil}}
	return kv
}
