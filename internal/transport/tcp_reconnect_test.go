package transport

import (
	"bytes"
	"net"
	"testing"
	"time"
)

// recvFrame waits for one envelope on a node's inbox.
func recvFrame(t *testing.T, n *TCPNode, d time.Duration) (Envelope, bool) {
	t.Helper()
	select {
	case env, ok := <-n.Inbox():
		return env, ok
	case <-time.After(d):
		return Envelope{}, false
	}
}

// sendUntilDelivered retries a best-effort Send until the receiver sees
// the frame: the first Send after a peer restart hits the dead cached
// connection and is dropped by design; the retry dials fresh.
func sendUntilDelivered(t *testing.T, from *TCPNode, to *TCPNode, addr Addr, frame []byte, d time.Duration) Envelope {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		from.Send(addr, frame)
		select {
		case env := <-to.Inbox():
			return env
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatalf("frame never delivered to %s within %v", addr, d)
	return Envelope{}
}

// TestTCPReconnectAfterPeerRestart restarts a replica endpoint mid-run:
// the peer's cached connection dies with it, and subsequent sends must
// re-dial the restarted listener transparently — the crash-restart
// scenario cmd/seemore relies on when a replica comes back on its old
// address with recovered state.
func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	a, err := NewTCPNode(ReplicaAddr(0), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPNode(ReplicaAddr(1), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	bAddr := b.ListenAddr()
	a.AddPeer(ReplicaAddr(1), bAddr)
	b.AddPeer(ReplicaAddr(0), a.ListenAddr())

	// Steady state: frames flow A → B.
	a.Send(ReplicaAddr(1), []byte("before-restart"))
	env, ok := recvFrame(t, b, 2*time.Second)
	if !ok || string(env.Frame) != "before-restart" || env.From != ReplicaAddr(0) {
		t.Fatalf("initial delivery failed: %+v ok=%v", env, ok)
	}

	// Kill B and bring it back on the same address (a process restart).
	b.Close()
	var b2 *TCPNode
	for i := 0; ; i++ {
		b2, err = NewTCPNode(ReplicaAddr(1), bAddr, nil)
		if err == nil {
			break
		}
		if i > 50 {
			t.Fatalf("rebind %s: %v", bAddr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer b2.Close()
	b2.AddPeer(ReplicaAddr(0), a.ListenAddr())

	// A's cached connection is dead; delivery must resume via re-dial.
	env = sendUntilDelivered(t, a, b2, ReplicaAddr(1), []byte("after-restart"), 5*time.Second)
	if string(env.Frame) != "after-restart" || env.From != ReplicaAddr(0) {
		t.Fatalf("post-restart delivery corrupt: %+v", env)
	}

	// The restarted node can answer over its own fresh connection.
	env = sendUntilDelivered(t, b2, a, ReplicaAddr(0), []byte("reply"), 5*time.Second)
	if string(env.Frame) != "reply" || env.From != ReplicaAddr(1) {
		t.Fatalf("reply delivery corrupt: %+v", env)
	}
}

// TestTCPDuplicateFramesTolerated pins the delivery contract the
// protocol layer assumes: retransmitted (duplicate) frames pass through
// the transport verbatim — deduplication is the replica's job (vote
// accounting and the exactly-once client table), not the link's.
func TestTCPDuplicateFramesTolerated(t *testing.T) {
	a, err := NewTCPNode(ReplicaAddr(0), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPNode(ReplicaAddr(1), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer(ReplicaAddr(1), b.ListenAddr())

	frame := []byte("retransmission")
	for i := 0; i < 3; i++ {
		a.Send(ReplicaAddr(1), frame)
	}
	for i := 0; i < 3; i++ {
		env, ok := recvFrame(t, b, 2*time.Second)
		if !ok {
			t.Fatalf("duplicate %d never delivered", i)
		}
		if !bytes.Equal(env.Frame, frame) || env.From != ReplicaAddr(0) {
			t.Fatalf("duplicate %d corrupt: %+v", i, env)
		}
	}
}

// TestTCPHalfOpenConnectionRecovers covers the nastier restart shape:
// the peer dies without closing (half-open connection), so the first
// write may even appear to succeed. The sender must eventually shed the
// dead connection and reconnect once the listener is back.
func TestTCPHalfOpenConnectionRecovers(t *testing.T) {
	a, err := NewTCPNode(ReplicaAddr(0), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// A bare listener that accepts one connection and goes silent, then
	// is torn down abruptly — B's kernel socket dies with the process.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bAddr := ln.Addr().String()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	a.AddPeer(ReplicaAddr(1), bAddr)
	a.Send(ReplicaAddr(1), []byte("into-the-void")) // dial + hello land in the doomed socket
	var c net.Conn
	select {
	case c = <-accepted:
	case <-time.After(2 * time.Second):
		t.Fatal("dial never arrived")
	}
	c.Close()
	ln.Close()

	// Real node takes over the address.
	var b *TCPNode
	for i := 0; ; i++ {
		b, err = NewTCPNode(ReplicaAddr(1), bAddr, nil)
		if err == nil {
			break
		}
		if i > 50 {
			t.Fatalf("rebind %s: %v", bAddr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer b.Close()

	env := sendUntilDelivered(t, a, b, ReplicaAddr(1), []byte("recovered"), 5*time.Second)
	if string(env.Frame) != "recovered" || env.From != ReplicaAddr(0) {
		t.Fatalf("recovery delivery corrupt: %+v", env)
	}
}

// TestTCPInboxOverflowCounted: a node whose inbox nobody drains keeps
// what fits and counts every frame past that as dropped, exactly.
func TestTCPInboxOverflowCounted(t *testing.T) {
	a, err := NewTCPNode(ReplicaAddr(0), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPNode(ReplicaAddr(1), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer(ReplicaAddr(1), b.ListenAddr())

	const over = 100
	held := cap(b.inbox)
	for i := 0; i < held+over; i++ {
		a.Send(ReplicaAddr(1), []byte{byte(i)})
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(b.Inbox())+int(b.Dropped()) < held+over {
		if time.Now().After(deadline) {
			t.Fatalf("%d frames held and %d dropped of %d sent", len(b.Inbox()), b.Dropped(), held+over)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(b.Inbox()) != held || b.Dropped() != over {
		t.Fatalf("%d frames held and %d dropped, want %d and %d", len(b.Inbox()), b.Dropped(), held, over)
	}
}
