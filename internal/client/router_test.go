package client

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/placement"
	"repro/internal/statemachine"
	"repro/internal/transport"
)

// twoGroups is the epoch-1 placement of a two-group deployment.
func twoGroups(t *testing.T) *placement.Cache {
	t.Helper()
	m, err := placement.Bootstrap(2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	return placement.NewCache(m)
}

// keysIn returns the first n keys of the form k<i> that place routes to
// group g.
func keysIn(place *placement.Cache, g ids.GroupID, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		if k := fmt.Sprintf("k%d", i); place.Owner(k) == g {
			out = append(out, k)
		}
	}
	return out
}

func TestNewRouterValidation(t *testing.T) {
	mb := ids.MustMembership(2, 4, 1, 1)
	suite := crypto.NewEd25519Suite(1, mb.N(), 4)
	net := transport.NewSimNetwork(transport.SimConfig{Seed: 1, PrivateSize: 2})
	defer net.Close()
	mk := func(g ids.GroupID) *Client {
		return New(0, suite, transport.Grouped(net, g), NewSeeMoRePolicy(mb, ids.Lion), testTiming())
	}

	if _, err := NewRouter([]*Client{mk(0), mk(1)}, nil, nil); err == nil {
		t.Error("nil placement cache accepted")
	}
	if _, err := NewRouter([]*Client{mk(0)}, twoGroups(t), nil); err == nil {
		t.Error("client/shard count mismatch accepted")
	}
	if _, err := NewRouter([]*Client{mk(0), nil}, twoGroups(t), nil); err == nil {
		t.Error("nil group client accepted")
	}
	r, err := NewRouter([]*Client{mk(0), mk(1)}, twoGroups(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Shards() != 2 {
		t.Fatalf("Shards() = %d", r.Shards())
	}
}

func TestRouterRoutesByKey(t *testing.T) {
	mb := ids.MustMembership(2, 4, 1, 1)
	suite := crypto.NewEd25519Suite(2, mb.N(), 4)
	net := transport.NewSimNetwork(transport.SimConfig{Seed: 2, PrivateSize: 2})
	defer net.Close()

	// One fake trusted replica per group, each answering with a
	// group-identifying result, attached through the group wrapper so it
	// lives at the group-qualified address.
	for g := 0; g < 2; g++ {
		startFake(transport.Grouped(net, ids.GroupID(g)), suite, 0,
			okReply(ids.Lion, 0, []byte{statemachine.KVOK, byte('0' + g)}))
	}

	mk := func(g ids.GroupID) *Client {
		return New(3, suite, transport.Grouped(net, g), NewSeeMoRePolicy(mb, ids.Lion), testTiming())
	}
	place := twoGroups(t)
	r, err := NewRouter([]*Client{mk(0), mk(1)}, place, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	in0, in1 := keysIn(place, 0, 1), keysIn(place, 1, 2)
	if g, err := r.OwnerOf(statemachine.EncodeGet(in1[0])); err != nil || g != 1 {
		t.Fatalf("OwnerOf(%s) = %v, %v", in1[0], g, err)
	}
	// A malformed op has no routing key — that is an explicit error, not
	// a silent trip to group 0.
	if _, err := r.OwnerOf([]byte{0xff, 0x01}); !errors.Is(err, ErrUnroutable) {
		t.Fatalf("OwnerOf(malformed) = %v, want ErrUnroutable", err)
	}
	if _, err := r.Invoke([]byte{0xff, 0x01}); !errors.Is(err, ErrUnroutable) {
		t.Fatalf("Invoke(malformed) = %v, want ErrUnroutable", err)
	}
	res, err := r.Invoke(statemachine.EncodePut(in1[0], []byte("v")))
	if err != nil {
		t.Fatal(err)
	}
	if _, val := statemachine.DecodeResult(res); string(val) != "1" {
		t.Fatalf("put %s answered by group %q, want 1", in1[0], val)
	}
	res, err = r.Invoke(statemachine.EncodePut(in0[0], []byte("v")))
	if err != nil {
		t.Fatal(err)
	}
	if _, val := statemachine.DecodeResult(res); string(val) != "0" {
		t.Fatalf("put %s answered by group %q, want 0", in0[0], val)
	}

	// MultiGet fans out and reassembles in key order.
	vals, err := r.MultiGet([]string{in1[0], in0[0], in1[1]})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1", "0", "1"}
	for i, v := range vals {
		if string(v) != want[i] {
			t.Fatalf("MultiGet[%d] = %q, want %q", i, v, want[i])
		}
	}
}

// TestMultiGetReturnsOnFirstGroupError is the regression test for the
// fan-out cancellation bug: one group fails immediately (closed
// endpoint) while the other is a crashed shard — nobody answers, and
// its 20-retry default budget would hold the call for ~20× the retry
// interval. The first error must cancel the sibling goroutine, so the
// whole call returns within one retry interval.
func TestMultiGetReturnsOnFirstGroupError(t *testing.T) {
	mb := ids.MustMembership(2, 4, 1, 1)
	suite := crypto.NewEd25519Suite(4, mb.N(), 4)
	net := transport.NewSimNetwork(transport.SimConfig{Seed: 4, PrivateSize: 2})
	defer net.Close()

	timing := testTiming()
	timing.ClientRetry = 100 * time.Millisecond
	mk := func(g ids.GroupID) *Client {
		return New(0, suite, transport.Grouped(net, g), NewSeeMoRePolicy(mb, ids.Lion), timing)
	}
	place := twoGroups(t)
	r, err := NewRouter([]*Client{mk(0), mk(1)}, place, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Group 0's client fails fast: its endpoint is gone. Group 1 (the
	// crashed shard) stays silent behind the full retry schedule.
	r.clients[0].Close()

	start := time.Now()
	_, err = r.MultiGet([]string{keysIn(place, 0, 1)[0], keysIn(place, 1, 1)[0]})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("MultiGet against a dead group succeeded")
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatalf("cancellation surfaced as the call's error: %v", err)
	}
	if elapsed > timing.ClientRetry {
		t.Fatalf("MultiGet took %v, want < one retry interval (%v): the failed group did not cancel the crashed shard's wait", elapsed, timing.ClientRetry)
	}
}

// TestInitialTimestampSeedsRequests pins the restarted-client satellite
// at the unit level: a seeded client's first request carries a
// timestamp above the seed, and a zero-seeded timeout carries the
// stale-timestamp hint.
func TestInitialTimestampSeedsRequests(t *testing.T) {
	mb := ids.MustMembership(2, 4, 1, 1)
	suite := crypto.NewEd25519Suite(5, mb.N(), 4)
	net := transport.NewSimNetwork(transport.SimConfig{Seed: 5, PrivateSize: 2})
	defer net.Close()

	var gotTS uint64
	startFake(net, suite, 0, func(req *message.Request) *message.Message {
		if req.Client != 0 {
			return nil // leave the other clients to their timeout paths
		}
		gotTS = req.Timestamp
		return okReply(ids.Lion, 0, []byte("r"))(req)
	})

	const seed = 1_000_000
	c := NewWithConfig(0, suite, net, NewSeeMoRePolicy(mb, ids.Lion), testTiming(),
		config.Client{InitialTimestamp: seed})
	if c.Timestamp() != seed {
		t.Fatalf("Timestamp() = %d before first request, want the seed %d", c.Timestamp(), seed)
	}
	if _, err := c.Invoke([]byte("op")); err != nil {
		t.Fatal(err)
	}
	if gotTS != seed+1 {
		t.Fatalf("first request timestamp = %d, want %d", gotTS, seed+1)
	}

	// Zero-seeded timeouts explain the silent-rejection failure mode.
	timing := testTiming()
	timing.ClientRetry = 5 * time.Millisecond
	c2 := NewWithConfig(1, suite, net, NewSeeMoRePolicy(mb, ids.Lion), timing,
		config.Client{MaxRetries: 1})
	_, err := c2.Invoke([]byte("op"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if !strings.Contains(err.Error(), "stale timestamp") {
		t.Fatalf("zero-seeded timeout lacks the stale-timestamp hint: %v", err)
	}
	c3 := NewWithConfig(2, suite, net, NewSeeMoRePolicy(mb, ids.Lion), timing,
		config.Client{MaxRetries: 1, InitialTimestamp: 7})
	if _, err := c3.Invoke([]byte("op")); err == nil || strings.Contains(err.Error(), "stale timestamp") {
		t.Fatalf("seeded timeout should not carry the hint: %v", err)
	}
}

// TestClientRetryKnobs pins the config.Client satellite: a tight retry
// budget fails fast, and backoff stretches the gap between broadcasts.
func TestClientRetryKnobs(t *testing.T) {
	mb := ids.MustMembership(2, 4, 1, 1)
	suite := crypto.NewEd25519Suite(3, mb.N(), 4)
	net := transport.NewSimNetwork(transport.SimConfig{Seed: 3, PrivateSize: 2})
	defer net.Close()
	// Nobody answers: every invoke runs its full retry schedule.

	timing := testTiming()
	timing.ClientRetry = 5 * time.Millisecond

	start := time.Now()
	c := NewWithConfig(0, suite, net, NewSeeMoRePolicy(mb, ids.Lion), timing,
		config.Client{MaxRetries: 2})
	_, err := c.Invoke([]byte("op"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	fixed := time.Since(start)
	// 3 timeout waits of ~5ms each (initial + 2 retries): far below the
	// 20-retry default budget of ≥100ms.
	if fixed > 80*time.Millisecond {
		t.Fatalf("MaxRetries=2 took %v; the budget knob is not honored", fixed)
	}

	// Backoff: waits of 5+10+20 = 35ms minimum versus 15ms fixed.
	start = time.Now()
	c2 := NewWithConfig(1, suite, net, NewSeeMoRePolicy(mb, ids.Lion), timing,
		config.Client{MaxRetries: 2, Backoff: 2})
	_, err = c2.Invoke([]byte("op"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if backed := time.Since(start); backed < 30*time.Millisecond {
		t.Fatalf("backoff schedule finished in %v, want ≥ 30ms (5+10+20)", backed)
	}
}
