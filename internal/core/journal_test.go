package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/storage"
	"repro/internal/transport"
)

// tapNet records every frame one replica sends, on top of a real network.
type tapNet struct {
	transport.Network
	from transport.Addr

	mu   sync.Mutex
	sent []*message.Message
}

func (n *tapNet) Endpoint(a transport.Addr) transport.Endpoint {
	ep := n.Network.Endpoint(a)
	if a != n.from {
		return ep
	}
	return tapEndpoint{ep, n}
}

func (n *tapNet) frames() []*message.Message {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]*message.Message(nil), n.sent...)
}

type tapEndpoint struct {
	transport.Endpoint
	net *tapNet
}

func (e tapEndpoint) Send(to transport.Addr, frame []byte) {
	if m, err := message.Unmarshal(frame); err == nil {
		e.net.mu.Lock()
		e.net.sent = append(e.net.sent, m)
		e.net.mu.Unlock()
	}
	e.Endpoint.Send(to, frame)
}

// TestLionBackupFailStopsOnSyncError pins the fail-stop rule: a Lion
// backup whose disk fails the sync that would make slot k's proposal
// durable sends no ACCEPT for k or any later slot — it looks crashed,
// never amnesiac — and at c = 1 the group still commits every Put
// without it.
func TestLionBackupFailStopsOnSyncError(t *testing.T) {
	const (
		victim = 1 // the private backup of view 0
		k      = 4
		puts   = 3 * k
	)
	h := quietHarness(t, baseMembership(), ids.Lion, crypto.NewEd25519Suite(96, baseMembership().N(), 1))
	if h.mb.Primary(ids.Lion, 0) == victim {
		t.Fatal("the victim must be a backup")
	}
	tap := &tapNet{Network: h.net, from: transport.ReplicaAddr(victim)}
	for _, id := range h.mb.All() {
		if id != victim {
			h.add(id, tap, nil)
			continue
		}
		// Boot stamps a view record and sends nothing, so the backup's
		// n-th sync is the one before its ACCEPT for slot n.
		st := storage.NewMem()
		st.FailNth(storage.FaultSync, k)
		h.add(id, tap, st)
	}
	for _, r := range h.replicas {
		r.Start()
	}
	c := h.client(0)
	for i := 0; i < puts; i++ {
		h.mustPut(c, fmt.Sprintf("k%d", i), "v")
	}
	h.stop()

	var accepted []uint64
	for _, m := range tap.frames() {
		if m.Kind != message.KindAccept {
			t.Fatalf("the backup sent a %v for slot %d; a Lion backup sends only ACCEPTs", m.Kind, m.Seq)
		}
		accepted = append(accepted, m.Seq)
	}
	if len(accepted) != k-1 {
		t.Fatalf("the backup accepted slots %v; want 1..%d and nothing from slot %d on", accepted, k-1, k)
	}
	for i, seq := range accepted {
		if seq != uint64(i+1) {
			t.Fatalf("the backup accepted slots %v; want 1..%d", accepted, k-1)
		}
	}
	if got := h.replicas[victim].jr.Failures(); got != 1 {
		t.Fatalf("journal counted %d failures, want 1", got)
	}
}
