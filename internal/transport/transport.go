// Package transport moves opaque frames between cluster endpoints. It
// provides two implementations of the same interface:
//
//   - SimNetwork: an in-process simulated network with per-link latency
//     classes (intra-private, intra-public, cross-cloud, client links),
//     jitter, message drops, duplication and partitions. This is the
//     substitute for the paper's single-datacenter EC2 testbed: every
//     protocol runs over the identical substrate, so relative results
//     (who wins, where crossovers fall) are preserved.
//   - TCP (tcp.go): a real net-based transport for multi-process
//     deployments via cmd/seemore.
//
// The simulated network is also the failure-injection point: the paper's
// asynchrony assumptions ("the network may drop, delay, corrupt,
// duplicate, or reorder messages", Section 3.1) map to SimConfig knobs.
package transport

import (
	"fmt"
	"sync"

	"repro/internal/ids"
)

// Addr identifies a message endpoint. Replica endpoints are their replica
// ID (≥ 0); client endpoints occupy the negative range, mirroring the
// crypto principal namespace.
type Addr int64

// ReplicaAddr maps a replica ID to its endpoint address.
func ReplicaAddr(r ids.ReplicaID) Addr { return Addr(r) }

// ClientAddr maps a client ID to its endpoint address.
func ClientAddr(c ids.ClientID) Addr { return Addr(-1 - c) }

// IsClient reports whether the address belongs to a client.
func (a Addr) IsClient() bool { return a < 0 }

// Replica returns the replica ID for a replica address; it panics on a
// client address (programming error).
func (a Addr) Replica() ids.ReplicaID {
	if a.IsClient() {
		panic(fmt.Sprintf("transport: address %d is a client", a))
	}
	return ids.ReplicaID(a)
}

// Client returns the client ID for a client address; it panics on a
// replica address.
func (a Addr) Client() ids.ClientID {
	if !a.IsClient() {
		panic(fmt.Sprintf("transport: address %d is a replica", a))
	}
	return ids.ClientID(-1 - a)
}

// String implements fmt.Stringer.
func (a Addr) String() string {
	if a.IsClient() {
		return fmt.Sprintf("client:%d", int64(a.Client()))
	}
	return fmt.Sprintf("replica:%d", int64(a))
}

// Envelope is one received frame with its claimed link-level sender.
// Links are pairwise authenticated (Section 3.1): the simulated network
// stamps the true sender, and the TCP transport authenticates peers at
// connection time, so From cannot be forged below the protocol layer.
type Envelope struct {
	From  Addr
	Frame []byte
}

// Endpoint is one attached node: it can send frames and consume its
// inbox. Send never blocks; when an inbox overflows, frames are dropped
// (and counted), which the protocols tolerate by design.
type Endpoint interface {
	// Addr returns this endpoint's address.
	Addr() Addr
	// Send enqueues a frame for delivery to the destination. Sending to
	// an unattached or closed endpoint silently drops (an asynchronous
	// network gives no delivery guarantee).
	//
	// Frames are immutable: Send may keep frame (queue it, deliver the
	// same slice to a receiver), and neither the caller nor any receiver
	// writes through it afterwards. A multicast hands every destination
	// the same slice.
	Send(to Addr, frame []byte)
	// Inbox delivers received envelopes. It is closed when the endpoint
	// or the network closes.
	Inbox() <-chan Envelope
	// Close detaches the endpoint.
	Close()
}

// Network attaches endpoints.
type Network interface {
	// Endpoint attaches (or returns the already-attached) endpoint for a.
	Endpoint(a Addr) Endpoint
	// Close tears down the network and closes all inboxes.
	Close()
}

// Stats is a snapshot of traffic counters. The benchmark harness diffs
// snapshots to measure per-request message complexity (Table 1).
type Stats struct {
	// Sent counts frames handed to the network.
	Sent uint64
	// Delivered counts frames that reached an inbox.
	Delivered uint64
	// DroppedLoss counts frames dropped by the loss model.
	DroppedLoss uint64
	// DroppedPartition counts frames dropped by partitions/isolation.
	DroppedPartition uint64
	// DroppedNoRecipient counts frames to unattached or closed endpoints.
	DroppedNoRecipient uint64
	// DroppedOverflow counts frames dropped on full inboxes.
	DroppedOverflow uint64
	// Duplicated counts extra deliveries injected by the duplication
	// model.
	Duplicated uint64
	// BytesSent totals the payload bytes handed to the network.
	BytesSent uint64
}

type statsCollector struct {
	mu sync.Mutex
	s  Stats
}

func (c *statsCollector) add(f func(*Stats)) {
	c.mu.Lock()
	f(&c.s)
	c.mu.Unlock()
}

func (c *statsCollector) snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s
}

// Single wraps one endpoint as a Network for processes that own exactly
// one cluster address (the TCP deployment: each OS process is one
// replica or one client). Requesting any other address panics — that is
// a wiring bug, not a runtime condition.
func Single(ep Endpoint) Network { return singleNetwork{ep: ep} }

type singleNetwork struct{ ep Endpoint }

// Endpoint implements Network.
func (s singleNetwork) Endpoint(a Addr) Endpoint {
	if a != s.ep.Addr() {
		panic(fmt.Sprintf("transport: single-endpoint network asked for %s, owns %s", a, s.ep.Addr()))
	}
	return s.ep
}

// Close implements Network.
func (s singleNetwork) Close() { s.ep.Close() }
