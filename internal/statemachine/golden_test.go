package statemachine_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/placement"
	"repro/internal/replica"
	sm "repro/internal/statemachine"
)

// kvGolden pins the bytes the KV state machine reads and writes: the
// result and successor state of every opcode (malformed shapes
// included), the transaction, placement-handoff and scan sequences, and
// the accept/reject decision of the snapshot, map, command and
// composite-snapshot decoders on every truncation and single-byte flip
// of a valid input. A line changes only by hand, copied from the
// failure message, in the commit that explains why the bytes changed.
const kvGolden = "testdata/kv.golden"

// goldenRows collects "name value" lines in the order they are made.
type goldenRows struct {
	names []string
	vals  map[string]string
}

func (r *goldenRows) add(name, format string, args ...any) {
	if _, dup := r.vals[name]; dup {
		panic("duplicate golden row " + name)
	}
	r.names = append(r.names, name)
	r.vals[name] = fmt.Sprintf(format, args...)
}

// show renders bytes compactly: hex when short, else the length and a
// digest prefix.
func show(b []byte) string {
	if len(b) == 0 {
		return "-"
	}
	if len(b) <= 24 {
		return hex.EncodeToString(b)
	}
	h := sha256.Sum256(b)
	return fmt.Sprintf("%d:%x", len(b), h[:6])
}

// digestOf is a short digest of b.
func digestOf(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:4])
}

// stateOf is a short digest of the store's snapshot.
func stateOf(kv *sm.KVStore) string { return digestOf(kv.Snapshot()) }

func cloneKV(t *testing.T, kv *sm.KVStore) *sm.KVStore {
	t.Helper()
	c := sm.NewKVStore()
	if err := c.Restore(kv.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return c
}

// step applies op and records the op, its result and the successor
// state.
func step(r *goldenRows, name string, kv *sm.KVStore, op []byte) []byte {
	res := kv.Apply(op)
	r.add(name, "op=%s res=%s st=%s", show(op), show(res), stateOf(kv))
	return res
}

func mustStatus(t *testing.T, res []byte, want byte) {
	t.Helper()
	if st, _ := sm.DecodeResult(res); st != want {
		t.Fatalf("status %d, want %d (result %x)", st, want, res)
	}
}

// keysIn returns n keys whose hash falls inside rng (in = true) or
// outside it.
func keysIn(rng placement.Range, in bool, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		if rng.Contains(placement.Hash(k)) == in {
			out = append(out, k)
		}
	}
	return out
}

func splitMaps(t *testing.T) (boot, next *placement.Map, split placement.Cmd) {
	t.Helper()
	boot, err := placement.Bootstrap(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	split = placement.Cmd{Kind: placement.CmdSplit, Group: 0, To: 1}
	if next, err = split.Apply(boot); err != nil {
		t.Fatal(err)
	}
	return boot, next, split
}

// goldenOpcodes: every opcode in each malformed shape the decoders tell
// apart, against a plain store, one where "k" is locked by a prepared
// transaction, and one fenced as a group that owns nothing.
func goldenOpcodes(t *testing.T, r *goldenRows) {
	plain := sm.NewKVStore()
	mustStatus(t, plain.Apply(sm.EncodePut("k", []byte{0, 0, 0, 0, 0, 0, 0, 5})), sm.KVOK)
	mustStatus(t, plain.Apply(sm.EncodePut("s", []byte("str"))), sm.KVOK)
	locked := cloneKV(t, plain)
	mustStatus(t, locked.Apply(sm.EncodeTxPrepare(sm.TxID{Client: 1, Seq: 1}, []ids.GroupID{0},
		[][]byte{sm.EncodePut("k", []byte("x"))})), sm.TxVoteYes)
	boot, _, _ := splitMaps(t)
	fenced := cloneKV(t, plain)
	mustStatus(t, fenced.Apply(sm.EncodePlaceInit(1, boot)), sm.KVOK)

	shapes := []struct {
		name string
		tail []byte
	}{
		{"bare", nil},
		{"short", []byte{0, 0, 0}},
		{"empty", []byte{0, 0, 0, 0}},
		{"key", []byte{0, 0, 0, 1, 'k'}},
		{"trail", []byte{0, 0, 0, 1, 'k', 'x'}},
		{"put", []byte{0, 0, 0, 1, 'k', 0, 0, 0, 1, 'x'}},
		{"add", []byte{0, 0, 0, 1, 'k', 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 1}},
		{"past", []byte{0, 0, 0, 9, 'k'}},
	}
	var codes []byte
	for c := 0; c <= 21; c++ {
		codes = append(codes, byte(c))
	}
	codes = append(codes, 0xff)
	for _, code := range codes {
		for _, sh := range shapes {
			op := append([]byte{code}, sh.tail...)
			key, keyOK := sm.KVOpKey(op)
			row := fmt.Sprintf("key=%v:%q read=%v write=%v", keyOK, key, sm.IsKVRead(op), sm.IsKVWrite(op))
			if q, ok := plain.Query(op); ok {
				row += " query=" + show(q)
			}
			for _, fx := range []struct {
				name string
				kv   *sm.KVStore
			}{{"plain", plain}, {"locked", locked}, {"fenced", fenced}} {
				kv := cloneKV(t, fx.kv)
				res := kv.Apply(op)
				row += fmt.Sprintf(" %s=%s@%s", fx.name, show(res), stateOf(kv))
			}
			r.add(fmt.Sprintf("op%02x/%s", code, sh.name), "%s", row)
		}
	}
}

// goldenTx: prepare/commit/abort/decide/status sequences, the malformed
// legs, and abort-ledger eviction past its cap.
func goldenTx(t *testing.T, r *goldenRows) {
	kv := sm.NewKVStore()
	for _, op := range [][]byte{
		sm.EncodePut("a", []byte("1")),
		sm.EncodePut("n", []byte{0, 0, 0, 0, 0, 0, 0, 7}),
		sm.EncodePut("s", []byte("str")),
	} {
		mustStatus(t, kv.Apply(op), sm.KVOK)
	}
	a, b, c, d, e := sm.TxID{Client: 1, Seq: 1}, sm.TxID{Client: 1, Seq: 2},
		sm.TxID{Client: 2, Seq: 1}, sm.TxID{Client: 2, Seq: 2}, sm.TxID{Client: 3, Seq: 1}
	parts := []ids.GroupID{0, 1}
	prepA := sm.EncodeTxPrepare(a, parts, [][]byte{
		sm.EncodePut("a", []byte("x")), sm.EncodeAdd("n", 1), sm.EncodeDelete("s"),
	})
	bad := sm.EncodeTxDecide(e, true)
	bad[len(bad)-1] = 9
	steps := []struct {
		name string
		op   []byte
	}{
		{"prepare-a", prepA},
		{"reprepare-a", prepA},
		{"status-a", sm.EncodeTxStatus(a)},
		{"prepare-b-blocked", sm.EncodeTxPrepare(b, parts, [][]byte{sm.EncodePut("a", []byte("y"))})},
		{"put-locked", sm.EncodePut("a", []byte("z"))},
		{"get-locked", sm.EncodeGet("a")},
		{"commit-a", sm.EncodeTxCommit(a)},
		{"recommit-a", sm.EncodeTxCommit(a)},
		{"abort-committed-a", sm.EncodeTxAbort(a)},
		{"status-committed-a", sm.EncodeTxStatus(a)},
		{"decide-abort-committed-a", sm.EncodeTxDecide(a, false)},
		{"decide-c-commit", sm.EncodeTxDecide(c, true)},
		{"decide-c-abort", sm.EncodeTxDecide(c, false)},
		{"abort-unseen-d", sm.EncodeTxAbort(d)},
		{"prepare-aborted-d", sm.EncodeTxPrepare(d, parts, [][]byte{sm.EncodePut("q", nil)})},
		{"commit-unseen-e", sm.EncodeTxCommit(e)},
		{"decide-bad-fate", bad},
		{"prepare-no-participants", sm.EncodeTxPrepare(e, nil, [][]byte{sm.EncodePut("q", nil)})},
		{"prepare-get-write", sm.EncodeTxPrepare(e, parts, [][]byte{sm.EncodeGet("q")})},
		{"prepare-trailing", append(sm.EncodeTxPrepare(e, parts, [][]byte{sm.EncodePut("q", nil)}), 0)},
		{"prepare-truncated", func() []byte {
			op := sm.EncodeTxPrepare(e, parts, [][]byte{sm.EncodePut("q", nil)})
			return op[:len(op)-1]
		}()},
		{"status-trailing", append(sm.EncodeTxStatus(e), 0)},
		{"commit-short-id", sm.EncodeTxCommit(e)[:9]},
		{"put-str", sm.EncodePut("q", []byte("str"))},
		{"prepare-b-upserts", sm.EncodeTxPrepare(b, parts, [][]byte{
			sm.EncodeAdd("z", 3), sm.EncodeAdd("q", 4), sm.EncodeDelete("missing"),
		})},
		{"status-b", sm.EncodeTxStatus(b)},
		{"commit-b", sm.EncodeTxCommit(b)},
		{"get-z", sm.EncodeGet("z")},
		{"get-q", sm.EncodeGet("q")},
		{"status-unknown", sm.EncodeTxStatus(sm.TxID{Client: 9, Seq: 9})},
	}
	for i, s := range steps {
		step(r, fmt.Sprintf("tx/%02d-%s", i, s.name), kv, s.op)
	}
	r.add("tx/roundtrip", "st=%s", stateOf(cloneKV(t, kv)))

	// Abort ledger: one more abort than the cap evicts the oldest record
	// behind the client's horizon.
	led := sm.NewKVStore()
	const ledgerCap = 4096
	for seq := uint64(1); seq <= ledgerCap+1; seq++ {
		mustStatus(t, led.Apply(sm.EncodeTxAbort(sm.TxID{Client: 7, Seq: seq})), sm.KVOK)
	}
	r.add("ledger/full", "snap=%s", show(led.Snapshot()))
	first, second := sm.TxID{Client: 7, Seq: 1}, sm.TxID{Client: 7, Seq: 2}
	for i, s := range []struct {
		name string
		op   []byte
	}{
		{"status-evicted", sm.EncodeTxStatus(first)},
		{"status-kept", sm.EncodeTxStatus(second)},
		{"prepare-evicted", sm.EncodeTxPrepare(first, []ids.GroupID{0}, [][]byte{sm.EncodePut("a", nil)})},
		{"decide-commit-evicted", sm.EncodeTxDecide(first, true)},
		{"commit-evicted", sm.EncodeTxCommit(first)},
		{"abort-evicted", sm.EncodeTxAbort(first)},
		{"decide-commit-fresh", sm.EncodeTxDecide(sm.TxID{Client: 7, Seq: ledgerCap + 2}, true)},
		{"abort-other-client", sm.EncodeTxAbort(sm.TxID{Client: 8, Seq: 1})},
	} {
		step(r, fmt.Sprintf("ledger/%d-%s", i, s.name), led, s.op)
	}
	r.add("ledger/roundtrip", "st=%s", stateOf(cloneKV(t, led)))
}

// goldenPlacement: a full handoff (init, seal, paged export, install,
// complete, and every idempotent replay), a seal blocked by a lock, and
// the meta ops.
func goldenPlacement(t *testing.T, r *goldenRows) {
	boot, next, split := splitMaps(t)
	moved := keysIn(next.Pending.Range, true, 3)
	kept := keysIn(next.Pending.Range, false, 2)
	src, dst := sm.NewKVStore(), sm.NewKVStore()
	step(r, "place/00-src-init", src, sm.EncodePlaceInit(0, boot))
	step(r, "place/01-dst-init", dst, sm.EncodePlaceInit(1, boot))
	step(r, "place/02-src-reinit", src, sm.EncodePlaceInit(0, next))
	step(r, "place/03-init-bad-group", sm.NewKVStore(), sm.EncodePlaceInit(-1, boot))
	for i, k := range append(append([]string(nil), moved...), kept...) {
		step(r, fmt.Sprintf("place/04-put-%d", i), src, sm.EncodePut(k, []byte("v-"+k)))
	}
	step(r, "place/05-dst-put-moved", dst, sm.EncodePut(moved[0], []byte("x")))

	blocked := cloneKV(t, src)
	step(r, "place/06-prepare-moved", blocked, sm.EncodeTxPrepare(sm.TxID{Client: 4, Seq: 1},
		[]ids.GroupID{0}, [][]byte{sm.EncodePut(moved[1], []byte("tx"))}))
	step(r, "place/07-seal-locked", blocked, sm.EncodePlaceSeal(next))

	seal := step(r, "place/08-seal", src, sm.EncodePlaceSeal(next))
	sr, err := sm.DecodeSealResult(seal)
	if err != nil {
		t.Fatal(err)
	}
	step(r, "place/09-reseal", src, sm.EncodePlaceSeal(next))
	step(r, "place/10-seal-stale", src, sm.EncodePlaceSeal(boot))
	step(r, "place/11-src-put-moved", src, sm.EncodePut(moved[0], []byte("late")))
	step(r, "place/12-src-get-kept", src, sm.EncodeGet(kept[0]))
	step(r, "place/13-src-scan", src, sm.EncodeScan("", "", 0))
	step(r, "place/14-export-wrong-epoch", src, sm.EncodePlaceExport(next.Epoch+1, "", 0))
	step(r, "place/15-export-malformed", src, sm.EncodePlaceExport(next.Epoch, "", 2)[:12])

	var pages [][]placement.Pair
	start := ""
	for i := 0; ; i++ {
		res := step(r, fmt.Sprintf("place/16-export-%d", i), src, sm.EncodePlaceExport(next.Epoch, start, 2))
		pairs, more, err := sm.DecodeScanResult(res)
		if err != nil {
			t.Fatal(err)
		}
		page := make([]placement.Pair, len(pairs))
		for j, p := range pairs {
			page[j] = placement.Pair{Key: p.Key, Value: p.Value}
		}
		pages = append(pages, page)
		if !more {
			break
		}
		start = pairs[len(pairs)-1].Key + "\x00"
	}
	for i, page := range pages {
		done := i == len(pages)-1
		var digest crypto.Digest
		if done {
			bad := cloneKV(t, dst)
			step(r, "place/17-install-bad-digest", bad, sm.EncodePlaceInstall(next, page, true, digest))
			step(r, "place/18-install-foreign-pair", cloneKV(t, dst), sm.EncodePlaceInstall(next,
				[]placement.Pair{{Key: kept[0], Value: []byte("x")}}, false, digest))
			digest = sr.Digest
		}
		step(r, fmt.Sprintf("place/19-install-%d", i), dst, sm.EncodePlaceInstall(next, page, done, digest))
		if !done {
			step(r, fmt.Sprintf("place/20-dst-get-staged-%d", i), dst, sm.EncodeGet(page[0].Key))
		}
	}
	step(r, "place/21-dst-get-moved", dst, sm.EncodeGet(moved[0]))
	step(r, "place/22-reinstall", dst, sm.EncodePlaceInstall(next, nil, true, crypto.Digest{}))
	step(r, "place/23-install-malformed", dst, sm.EncodePlaceInstall(next, nil, true, crypto.Digest{})[:40])
	step(r, "place/24-complete-malformed", src, sm.EncodePlaceComplete(next.Epoch)[:8])
	step(r, "place/25-complete-wrong", src, sm.EncodePlaceComplete(next.Epoch+1))
	step(r, "place/26-complete", src, sm.EncodePlaceComplete(next.Epoch))
	step(r, "place/27-recomplete", src, sm.EncodePlaceComplete(next.Epoch))
	step(r, "place/28-reseal-done", src, sm.EncodePlaceSeal(next))
	step(r, "place/29-src-get-moved", src, sm.EncodeGet(moved[0]))
	step(r, "place/30-dst-scan", dst, sm.EncodeScan("", "", 0))

	meta := sm.NewKVStore()
	merge := placement.Cmd{Kind: placement.CmdMerge, Group: 1, To: 0}
	badDone := sm.EncodeMetaDone(next.Epoch)
	for i, s := range []struct {
		name string
		op   []byte
	}{
		{"get-empty", sm.EncodeMetaGet()},
		{"apply-uninit", sm.EncodeMetaApply(split)},
		{"init", sm.EncodeMetaInit(boot)},
		{"reinit", sm.EncodeMetaInit(next)},
		{"apply-invalid", sm.EncodeMetaApply(merge)},
		{"apply-truncated", sm.EncodeMetaApply(split)[:10]},
		{"apply", sm.EncodeMetaApply(split)},
		{"apply-pending", sm.EncodeMetaApply(merge)},
		{"done-malformed", badDone[:len(badDone)-1]},
		{"done-wrong", sm.EncodeMetaDone(next.Epoch + 1)},
		{"done", sm.EncodeMetaDone(next.Epoch)},
		{"redone", sm.EncodeMetaDone(next.Epoch)},
		{"get", sm.EncodeMetaGet()},
		{"apply-merge", sm.EncodeMetaApply(merge)},
		{"init-trailing", append(sm.EncodeMetaInit(boot), 0)},
	} {
		step(r, fmt.Sprintf("meta/%02d-%s", i, s.name), meta, s.op)
	}
}

// goldenScans: bounds, limits, the continuation flag and malformed
// shapes, through Apply and Query.
func goldenScans(t *testing.T, r *goldenRows) {
	kv := sm.NewKVStore()
	for _, k := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		mustStatus(t, kv.Apply(sm.EncodePut(k, []byte("v"+k))), sm.KVOK)
	}
	for _, s := range []struct {
		name   string
		lo, hi string
		limit  int
	}{
		{"all", "", "", 0},
		{"limit3-more", "", "", 3},
		{"limit8-exact", "", "", 8},
		{"bounded", "c", "f", 0},
		{"bounded-more", "b", "g", 2},
		{"open-hi", "f", "", 0},
		{"empty-range", "d", "d", 5},
		{"past-end", "x", "", 0},
		{"negative-limit", "", "c", -4},
	} {
		op := sm.EncodeScan(s.lo, s.hi, s.limit)
		step(r, "scan/"+s.name, kv, op)
		q, ok := kv.Query(op)
		r.add("scan/"+s.name+"/query", "ok=%v res=%s", ok, show(q))
	}
	full := sm.EncodeScan("a", "c", 1)
	for _, m := range []struct {
		name string
		op   []byte
	}{
		{"trailing", append(append([]byte(nil), full...), 0)},
		{"short-limit", full[:len(full)-1]},
		{"lo-past-end", []byte{10, 0, 0, 0, 9, 'a'}},
		{"bare", []byte{10}},
	} {
		step(r, "scan/malformed-"+m.name, kv, m.op)
		_, ok := kv.Query(m.op)
		r.add("scan/malformed-"+m.name+"/query", "ok=%v", ok)
	}
}

// sweep feeds try every truncation and every single-byte flip (two
// masks) of b, then b itself, and folds each family into one row: the
// number of accepted inputs and a digest over the per-position
// outcomes (try's rendering of an accepted input, "R" for a rejected
// one).
func sweep(r *goldenRows, name string, b []byte, try func([]byte) (string, bool)) {
	fold := func(family string, variant func(i int) []byte) {
		h := sha256.New()
		accepted := 0
		for i := 0; i < len(b); i++ {
			out, ok := try(variant(i))
			if ok {
				accepted++
			}
			fmt.Fprintf(h, "%d:%s;", i, out)
		}
		r.add(name+"/"+family, "n=%d accept=%d trace=%x", len(b), accepted, h.Sum(nil)[:8])
	}
	fold("truncate", func(i int) []byte { return append([]byte(nil), b[:i]...) })
	for _, mask := range []byte{0xff, 0x01} {
		mask := mask
		fold(fmt.Sprintf("flip%02x", mask), func(i int) []byte {
			c := append([]byte(nil), b...)
			c[i] ^= mask
			return c
		})
	}
	out, ok := try(b)
	r.add(name+"/whole", "ok=%v out=%s", ok, out)
}

func tryRestore(b []byte) (string, bool) {
	kv := sm.NewKVStore()
	if err := kv.Restore(b); err != nil {
		return "R", false
	}
	return stateOf(kv), true
}

// goldenSnapshots: snapshots cut short after the data section (the
// layout no writer has produced since transactions landed, refused),
// and the decoders' sweeps.
func goldenSnapshots(t *testing.T, r *goldenRows) {
	dataOnly := []byte{0, 0, 0, 2, 0, 0, 0, 1, 'k', 0, 0, 0, 1, 'v', 0, 0, 0, 1, 'z', 0, 0, 0, 0}
	for _, s := range []struct {
		name string
		b    []byte
	}{
		{"data-only", dataOnly},
		{"data-only-empty", []byte{0, 0, 0, 0}},
		{"empty", nil},
		{"data-only-trailing", append(append([]byte(nil), dataOnly...), 0)},
		{"count-past-end", []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}},
	} {
		out, ok := tryRestore(s.b)
		r.add("snap/"+s.name, "ok=%v st=%s", ok, out)
	}

	all := sm.AllSections(t)
	snap := all.Snapshot()
	r.add("snap/all", "snap=%s", show(snap))
	sweep(r, "restore", snap, tryRestore)

	_, next, _ := splitMaps(t)
	sweep(r, "map", next.Encode(), func(b []byte) (string, bool) {
		m, err := placement.DecodeMap(b)
		if err != nil {
			return "R", false
		}
		return digestOf(m.Encode()), true
	})
	sweep(r, "cmd", placement.EncodeCmd(placement.Cmd{
		Kind: placement.CmdMove, Group: 3, At: 0x0102030405060708, To: 4,
		Range: placement.Range{Lo: 1 << 40, Hi: 1 << 41}, Replicas: 5,
	}), func(b []byte) (string, bool) {
		c, err := placement.DecodeCmd(b)
		if err != nil {
			return "R", false
		}
		return digestOf(placement.EncodeCmd(c)), true
	})

	// The composite checkpoint snapshot: u32-length-prefixed service
	// state, then the u32-length-prefixed client table.
	ct := sm.NewClientTable()
	ct.Record(5, 11, []byte{sm.KVOK, 'x'})
	ct.Record(6, 3, nil)
	small := sm.NewKVStore()
	mustStatus(t, small.Apply(sm.EncodePut("k", []byte("v"))), sm.KVOK)
	s, c := small.Snapshot(), ct.Snapshot()
	composite := binary.BigEndian.AppendUint32(nil, uint32(len(s)))
	composite = append(composite, s...)
	composite = binary.BigEndian.AppendUint32(composite, uint32(len(c)))
	composite = append(composite, c...)
	sweep(r, "composite", composite, func(b []byte) (string, bool) {
		x := replica.NewExecutor(sm.NewKVStore(), 8)
		if err := x.JumpTo(1, b); err != nil {
			return "R", false
		}
		d := x.StateDigest()
		return hex.EncodeToString(d[:4]), true
	})
}

func readKVGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(kvGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", kvGolden, line)
		}
		golden[name] = val
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestKVGolden fails on any difference between what the state machine
// does with a pinned input and the committed line for it.
func TestKVGolden(t *testing.T) {
	r := &goldenRows{vals: make(map[string]string)}
	goldenOpcodes(t, r)
	goldenTx(t, r)
	goldenPlacement(t, r)
	goldenScans(t, r)
	goldenSnapshots(t, r)

	golden := readKVGolden(t)
	if len(golden) != len(r.names) {
		t.Errorf("%s has %d lines, want one per row (%d)", kvGolden, len(golden), len(r.names))
	}
	for _, name := range r.names {
		got := r.vals[name]
		if want, ok := golden[name]; !ok {
			t.Errorf("no golden line; add to %s:\n%s %s", kvGolden, name, got)
		} else if got != want {
			t.Errorf("%s changed; if intended, edit the line in %s to:\n%s %s", name, kvGolden, name, got)
		}
	}
}
