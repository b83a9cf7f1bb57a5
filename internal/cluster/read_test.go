package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/placement"
)

// testLeases fits testTiming's 100ms view-change timer: an expired-view
// primary can believe in its lease for at most 60+10ms, well inside the
// window a backup needs to depose it.
func testLeases() config.Leases {
	return config.Leases{Duration: 60 * time.Millisecond, MaxClockSkew: 10 * time.Millisecond}
}

func TestLeasedReadServesCommittedValue(t *testing.T) {
	for _, mode := range []ids.Mode{ids.Lion, ids.Dog} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			c, err := New(Spec{
				Protocol: SeeMoRe, Mode: mode, Crash: 1, Byz: 1,
				Timing: testTiming(), Seed: 60, Leases: testLeases(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			cl := c.NewClient(0)
			defer cl.Close()
			kv := client.NewKV(cl)
			for i := 0; i < 8; i++ {
				key := fmt.Sprintf("k%d", i)
				if err := kv.Put(key, []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
				// The put just committed at the primary, so its lease is
				// armed: this read is served from local state without a
				// consensus round — and must still return the committed
				// value.
				v, found, err := kv.Get(key, client.ReadOptions{Consistency: client.Leased})
				if err != nil {
					t.Fatalf("leased get %d: %v", i, err)
				}
				if !found || string(v) != fmt.Sprintf("v%d", i) {
					t.Fatalf("leased get %d = %q (found %v)", i, v, found)
				}
			}
			verifyConvergence(t, c, nil)
		})
	}
}

func TestLeaseSafetyUnderPartition(t *testing.T) {
	// The lease-safety scenario: a deposed primary whose lease has lapsed
	// must never answer a Leased read from its (stale) local state. The
	// partition is asymmetric — the old primary keeps its client links,
	// so if it wrongly served locally, its stale reply would arrive first
	// and win the client's quorum race, failing the test.
	c, err := New(Spec{
		Protocol: SeeMoRe, Mode: ids.Lion, Crash: 1, Byz: 1,
		Timing: testTiming(), Seed: 61, Leases: testLeases(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	oldPrimary := c.Membership.Primary(ids.Lion, 0)

	w1 := c.NewClient(0)
	defer w1.Close()
	if err := client.NewKV(w1).Put("k", []byte("v1")); err != nil {
		t.Fatalf("put v1: %v", err)
	}

	// Cut the primary off from every peer replica while leaving client
	// links up: it can still receive reads but can neither commit nor
	// renew its lease.
	c.PartitionReplicaLinks(oldPrimary)

	// A second client's write forces a view change among the remaining
	// replicas. By config.Leases.Validate, the backups' 100ms suspicion
	// timer outlives the lease's 60+10ms worst case, so once v2 commits
	// in the new view, the old primary's lease has provably expired.
	w2 := c.NewClient(1)
	defer w2.Close()
	if err := client.NewKV(w2).Put("k", []byte("v2")); err != nil {
		t.Fatalf("put v2 through view change: %v", err)
	}

	// A fresh client still believes in view 0, so its Leased read goes to
	// the deposed primary — which must refuse to serve v1 locally
	// (expired lease) and leave the client to fall back to consensus
	// ordering, which returns v2.
	r3 := c.NewClient(2)
	defer r3.Close()
	v, found, err := client.NewKV(r3).Get("k", client.ReadOptions{Consistency: client.Leased})
	if err != nil {
		t.Fatalf("leased get after deposition: %v", err)
	}
	if !found || string(v) != "v2" {
		t.Fatalf("leased get returned %q (found %v), want v2 — a stale lease served a linearizable read", v, found)
	}

	// Heal and push past a checkpoint boundary so the old primary catches
	// up via state transfer, then require full convergence.
	c.HealReplicaLinks(oldPrimary)
	kv := client.NewKV(w1)
	for i := 0; i < 20; i++ {
		if err := kv.Put(fmt.Sprintf("after%d", i), []byte("2")); err != nil {
			t.Fatalf("put after heal: %v", err)
		}
	}
	verifyConvergence(t, c, nil)
}

func TestFollowerReadMonotonic(t *testing.T) {
	// Stale reads rotate across trusted replicas, so successive reads hit
	// different executed prefixes. The client's watermark floor must
	// still deliver read-your-writes and never move backwards.
	c, err := New(Spec{
		Protocol: SeeMoRe, Mode: ids.Lion, Crash: 1, Byz: 1,
		Timing: testTiming(), Seed: 62, Leases: testLeases(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl := c.NewClient(0)
	defer cl.Close()
	kv := client.NewKV(cl)
	var lastFloor uint64
	for i := 0; i < 12; i++ {
		want := fmt.Sprintf("v%d", i)
		if err := kv.Put("mono", []byte(want)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		opts := client.ReadOptions{Consistency: client.Stale}
		if i%2 == 1 {
			opts.MaxStaleness = time.Second // exercises the freshness-log bound too
		}
		v, found, err := kv.Get("mono", opts)
		if err != nil {
			t.Fatalf("stale get %d: %v", i, err)
		}
		if !found || string(v) != want {
			t.Fatalf("stale get %d = %q (found %v), want %q — read-your-writes broken", i, v, found, want)
		}
		if f := cl.ObservedFloor(); f < lastFloor {
			t.Fatalf("observed floor went backwards: %d after %d", f, lastFloor)
		} else {
			lastFloor = f
		}
	}
	verifyConvergence(t, c, nil)
}

func TestScanSingleGroupPaging(t *testing.T) {
	c, err := New(Spec{
		Protocol: SeeMoRe, Mode: ids.Lion, Crash: 1, Byz: 1,
		Timing: testTiming(), Seed: 63, Leases: testLeases(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	cl := c.NewClient(0)
	defer cl.Close()
	kv := client.NewKV(cl)
	const n = 10
	for i := 0; i < n; i++ {
		if err := kv.Put(fmt.Sprintf("scan/%02d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if err := kv.Put("zzz", []byte("outside")); err != nil {
		t.Fatal(err)
	}

	// One unbounded scan sees exactly the range, in order.
	pairs, more, err := kv.Scan("scan/", "scan/z", 0, client.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if more || len(pairs) != n {
		t.Fatalf("scan returned %d pairs (more %v), want %d", len(pairs), more, n)
	}
	for i, p := range pairs {
		if p.Key != fmt.Sprintf("scan/%02d", i) || string(p.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("pair %d = %q:%q", i, p.Key, p.Value)
		}
	}

	// Paged: a small limit reports a continuation, and resuming from the
	// last key's successor walks the rest without duplicates or gaps.
	var got []placement.Pair
	cursor := "scan/"
	for {
		page, pageMore, err := kv.Scan(cursor, "scan/z", 4, client.ReadOptions{Consistency: client.Leased})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page...)
		if !pageMore {
			break
		}
		if len(page) == 0 {
			t.Fatal("continuation with an empty page")
		}
		cursor = page[len(page)-1].Key + "\x00"
	}
	if len(got) != n {
		t.Fatalf("paged scan collected %d pairs, want %d", len(got), n)
	}
	for i, p := range got {
		if p.Key != pairs[i].Key {
			t.Fatalf("paged pair %d = %q, want %q", i, p.Key, pairs[i].Key)
		}
	}
	verifyConvergence(t, c, nil)
}

func TestScanAcrossShards(t *testing.T) {
	// The router merge-streams per-shard continuations into one globally
	// ordered result, even though hash placement scatters the range
	// across every group.
	c, err := New(Spec{
		Protocol: SeeMoRe, Mode: ids.Lion, Crash: 1, Byz: 1,
		Timing: testTiming(), Seed: 64, Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	r, err := c.NewRouter(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	kv := client.NewKV(r)
	const n = 24
	for i := 0; i < n; i++ {
		if err := kv.Put(fmt.Sprintf("scan/%02d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	pairs, more, err := kv.Scan("scan/", "scan/z", 0, client.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if more || len(pairs) != n {
		t.Fatalf("cross-shard scan returned %d pairs (more %v), want %d", len(pairs), more, n)
	}
	for i, p := range pairs {
		if p.Key != fmt.Sprintf("scan/%02d", i) || string(p.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("pair %d = %q:%q", i, p.Key, p.Value)
		}
	}

	// A limited scan stops mid-range with a continuation; resuming covers
	// the rest in order.
	head, more, err := kv.Scan("scan/", "scan/z", 10, client.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !more || len(head) != 10 {
		t.Fatalf("limited scan returned %d pairs (more %v), want 10 with continuation", len(head), more)
	}
	tail, more, err := kv.Scan(head[len(head)-1].Key+"\x00", "scan/z", 0, client.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if more || len(head)+len(tail) != n {
		t.Fatalf("resumed scan: %d + %d pairs (more %v), want %d total", len(head), len(tail), more, n)
	}
	for i, p := range append(head, tail...) {
		if p.Key != fmt.Sprintf("scan/%02d", i) {
			t.Fatalf("resumed pair %d = %q", i, p.Key)
		}
	}
}
