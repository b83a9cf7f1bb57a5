package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/statemachine"
	"repro/internal/transport"
)

// dropNet drops every frame of one kind that one replica sends to
// another, on top of a real network.
type dropNet struct {
	transport.Network
	from, to transport.Addr
	kind     message.Kind
}

func (n dropNet) Endpoint(a transport.Addr) transport.Endpoint {
	ep := n.Network.Endpoint(a)
	if a != n.from {
		return ep
	}
	return dropEndpoint{ep, n}
}

type dropEndpoint struct {
	transport.Endpoint
	net dropNet
}

func (e dropEndpoint) Send(to transport.Addr, frame []byte) {
	if m, err := message.Unmarshal(frame); err == nil && to == e.net.to && m.Kind == e.net.kind {
		return
	}
	e.Endpoint.Send(to, frame)
}

// TestUnsignedReadFallbacks pins where a READ goes when the fast path
// cannot serve it. A READ is unsigned, so a trusted primary orders it on
// the client's tag, and every other replica drops it without a
// signature check, for the client's timer to re-send the op as a signed
// REQUEST (ARCHITECTURE.md, "Authentication", the third case, step 7).
func TestUnsignedReadFallbacks(t *testing.T) {
	mb := baseMembership()
	get := statemachine.EncodeGet("k")
	mustRead := func(t *testing.T, c *client.Client) {
		t.Helper()
		res, err := c.Read(get, client.ReadOptions{Consistency: client.Leased})
		if err != nil {
			t.Fatal(err)
		}
		if st, v := statemachine.DecodeResult(res); st != statemachine.KVOK || string(v) != "v" {
			t.Fatalf("read status %d value %q, want v", st, v)
		}
	}

	// A lapsed lease at a Lion or Dog primary: the primary orders the
	// READ on its tag, and every replica executes it — in Lion also a
	// laggard that never sees a PREPARE and adopts each slot from the
	// primary's COMMIT. Nobody signs anything for the read, and nobody
	// checks a signature.
	for _, tc := range []struct {
		mode    ids.Mode
		laggard ids.ReplicaID // ids.Nobody: none
	}{{ids.Lion, 4}, {ids.Dog, ids.Nobody}} {
		t.Run(tc.mode.String()+"/lapsed-lease", func(t *testing.T) {
			counted := crypto.Count(crypto.NewEd25519Suite(94, mb.N(), 2))
			h := quietHarness(t, mb, tc.mode, counted)
			h.cluster.Leases = config.Leases{Duration: 20 * time.Millisecond}
			var net transport.Network = h.net
			if tc.laggard != ids.Nobody {
				net = dropNet{h.net, transport.ReplicaAddr(0), transport.ReplicaAddr(tc.laggard), message.KindPrepare}
			}
			for _, id := range mb.All() {
				h.add(id, net, nil)
			}
			for _, r := range h.replicas {
				r.Start()
			}
			h.mustPut(h.client(0), "k", "v")
			time.Sleep(5 * h.cluster.Leases.Duration) // no traffic renews the lease
			before := counted.Totals()
			// ClientRetry is a minute here: the read completes on the
			// READ itself or not at all.
			mustRead(t, h.client(1))
			waitFor(t, "every replica to execute the read", 10*time.Second, func() bool {
				for _, r := range h.replicas {
					if r.LastExecuted() != 2 {
						return false
					}
				}
				return true
			})
			if n := counted.By(crypto.ClientPrincipal(1)).Signs; n != 0 {
				t.Fatalf("the client signed %d times for a read ordered on its tag, want 0", n)
			}
			if after := counted.Totals(); after.Verifies != before.Verifies || after.BadVerifies != 0 {
				t.Fatalf("%d signature checks for the read, %d bad in all; want 0 and 0",
					after.Verifies-before.Verifies, after.BadVerifies)
			}
		})
	}

	// A Leased READ at a replica that is no longer primary: a view change
	// into Lion view 1 deposed replica 0, and a fresh client still takes
	// it for the lease holder. Replica 0 neither relays the READ nor arms
	// a suspicion timer for it, so no view change follows; the client's
	// timer orders the op as a signed REQUEST, which replica 0 relays on
	// its signature, and the read completes before a second retry.
	t.Run("Lion/deposed-lease-holder", func(t *testing.T) {
		counted := crypto.Count(crypto.NewEd25519Suite(93, mb.N(), 2))
		h := quietHarness(t, mb, ids.Lion, counted)
		h.cluster.Timing.ViewChange, h.cluster.Timing.ClientRetry = 100*time.Millisecond, 250*time.Millisecond
		h.cluster.Leases = config.Leases{Duration: 40 * time.Millisecond}
		tap := &tapNet{Network: h.net, from: transport.ReplicaAddr(0)}
		for _, id := range mb.All() {
			h.add(id, tap, nil)
		}
		var mu sync.Mutex
		views := make(map[ids.ReplicaID]ids.View)
		var entries atomic.Int64
		for _, r := range h.replicas {
			r.SetProbe(Probe{OnViewChange: func(v ids.View, _ ids.Mode) {
				mu.Lock()
				views[r.ID()] = v
				mu.Unlock()
				entries.Add(1)
			}})
			r.Start()
		}
		h.mustPut(h.client(0), "k", "v")
		h.replicas[1].RequestModeSwitch(ids.Lion)
		waitFor(t, "every replica to enter view 1", 10*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			for _, id := range mb.All() {
				if views[id] != 1 {
					return false
				}
			}
			return true
		})
		entered := entries.Load()

		c := h.client(1)
		retry := h.cluster.Timing.ClientRetry
		start := time.Now()
		mustRead(t, c)
		if took := time.Since(start); took < retry || took >= 2*retry {
			t.Fatalf("the read took %v, want one ClientRetry (%v) plus one ordered round", took, retry)
		}
		readTS := c.Timestamp() - 1 // the fallback REQUEST took the next timestamp
		var relayedRead, relayedRequest bool
		for _, m := range tap.frames() {
			if m.Kind == message.KindRequest && m.From == 0 && m.Payload[0].Client == 1 {
				relayedRead = relayedRead || m.Payload[0].Timestamp == readTS
				relayedRequest = relayedRequest || m.Payload[0].Timestamp == readTS+1
			}
		}
		if relayedRead || !relayedRequest {
			t.Fatalf("replica 0 relayed the READ: %v, the signed REQUEST: %v; want false, true", relayedRead, relayedRequest)
		}
		// Several suspicion periods: time for a timer to fire, had
		// replica 0 armed one for the READ.
		time.Sleep(5 * h.cluster.Timing.ViewChange)
		h.stop()
		if n := entries.Load(); n != entered {
			t.Fatalf("%d view entries after the read, want none", n-entered)
		}
		if got := counted.Totals(); got.BadVerifies != 0 {
			t.Fatalf("%d signatures refused, want 0", got.BadVerifies)
		}
	})
}
