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

// failAtSlot is a store whose disk fails the sync that covers slot k's
// proposal: once that proposal is appended, the next Sync fails, and the
// store stays failed. It records the highest proposal slot a successful
// Sync covered.
type failAtSlot struct {
	*storage.Mem
	k uint64

	mu       sync.Mutex
	appended uint64 // highest proposal slot appended
	covered  uint64 // highest proposal slot a successful Sync covered
}

func (s *failAtSlot) Append(rec storage.Record) error {
	if rec.Kind == storage.KindProposal {
		s.mu.Lock()
		s.appended = max(s.appended, rec.Seq)
		s.mu.Unlock()
		if rec.Seq == s.k {
			s.Mem.FailNth(1)
		}
	}
	return s.Mem.Append(rec)
}

func (s *failAtSlot) Sync() error {
	err := s.Mem.Sync()
	if err == nil {
		s.mu.Lock()
		s.covered = s.appended
		s.mu.Unlock()
	}
	return err
}

// TestLionBackupFailStopsOnSyncError pins the fail-stop rule: a Lion
// backup whose disk fails the sync that would make slot k's proposal
// durable sends no ACCEPT for k or any later slot — it looks crashed,
// never amnesiac — and at c = 1 the group still commits every Put
// without it. One drain can carry several proposals, so that sync may
// also be the one for slots below k: the backup accepts exactly the
// slots a successful sync covered.
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
	st := &failAtSlot{Mem: storage.NewMem(), k: k}
	for _, id := range h.mb.All() {
		if id != victim {
			h.add(id, tap, nil)
			continue
		}
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

	st.mu.Lock()
	j := st.covered
	st.mu.Unlock()
	if j >= k {
		t.Fatalf("a successful sync covered slot %d; the sync covering slot %d should have failed", j, k)
	}
	var accepted []uint64
	for _, m := range tap.frames() {
		if m.Kind != message.KindAccept {
			t.Fatalf("the backup sent a %v for slot %d; a Lion backup sends only ACCEPTs", m.Kind, m.Seq)
		}
		accepted = append(accepted, m.Seq)
	}
	if len(accepted) != int(j) {
		t.Fatalf("the backup accepted slots %v; want 1..%d, the slots a successful sync covered", accepted, j)
	}
	for i, seq := range accepted {
		if seq != uint64(i+1) {
			t.Fatalf("the backup accepted slots %v; want 1..%d", accepted, j)
		}
	}
	if got := h.replicas[victim].jr.Failures(); got != 1 {
		t.Fatalf("journal counted %d failures, want 1", got)
	}
}
