package core

import (
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/transport"
)

// committedWithoutCert builds an unstarted Lion replica whose slot 1
// committed in view 0 the way a node that was passive in the old mode
// learns it (from INFORMs): marked committed, no commit certificate.
// It returns the replica and the NEW-VIEW into view 1 (primary 1) that
// re-issues the slot as an open entry.
func committedWithoutCert(t *testing.T, net transport.Network, id ids.ReplicaID) (*Replica, *message.Message, crypto.Suite) {
	t.Helper()
	suite := crypto.NewEd25519Suite(97, 6, 4)
	r := loneReplica(t, ids.Lion, id, suite, net, nil)
	req := makeRequest(t, suite, 0, 1)
	entry := r.log.Entry(1)
	if err := entry.SetProposal(&message.Signed{
		Kind: message.KindPrepare, From: 0, View: 0, Seq: 1, Digest: req.Digest(), Request: req,
	}); err != nil {
		t.Fatal(err)
	}
	entry.MarkCommitted()
	nv := &message.Message{
		Kind: message.KindNewView, From: 1, View: 1, Mode: ids.Lion,
		Prepares: []message.Signed{{
			Kind: message.KindPrepare, From: 1, View: 1, Seq: 1, Digest: req.Digest(), Request: req,
		}},
	}
	return r, nv, suite
}

// nextOfKind waits for a frame of the given kind on an endpoint.
func nextOfKind(t *testing.T, ep transport.Endpoint, kind message.Kind) *message.Message {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		select {
		case env := <-ep.Inbox():
			if m, err := message.Unmarshal(env.Frame); err == nil && m.Kind == kind {
				return m
			}
		case <-deadline:
			t.Fatalf("no %v frame arrived", kind)
		}
	}
}

// A backup that already committed a slot the NEW-VIEW re-issues must
// still ACCEPT it: a primary that had not committed (a passive node the
// mode change promoted) gets its quorum from nowhere else. This was the
// wedge behind the mode-switch tests' "state diverges" flake.
func TestNewViewBackupAcceptsSlotItAlreadyCommitted(t *testing.T) {
	net := transport.NewSimNetwork(transport.LAN(2, 97))
	defer net.Close()
	primary := net.Endpoint(transport.ReplicaAddr(1))
	r, nv, _ := committedWithoutCert(t, net, 2)

	r.applyNewView(nv)
	acc := nextOfKind(t, primary, message.KindAccept)
	if acc.From != 2 || acc.View != 1 || acc.Seq != 1 || acc.Digest != nv.Prepares[0].Digest {
		t.Fatalf("ACCEPT = %v, want replica 2's for view 1 slot 1", acc)
	}
	if r.pending.Len() != 0 {
		t.Fatal("an already-committed slot armed a liveness timer")
	}
}

// The mirror image: a primary that already committed the re-issued slot
// without holding a certificate must still issue this view's COMMIT once
// its backups accept, or they never execute the slot.
func TestNewViewPrimaryCommitsSlotItAlreadyCommitted(t *testing.T) {
	net := transport.NewSimNetwork(transport.LAN(2, 97))
	defer net.Close()
	backup := net.Endpoint(transport.ReplicaAddr(3))
	r, nv, suite := committedWithoutCert(t, net, 1)
	accept := func(from ids.ReplicaID) *message.Message {
		return taggedVote(suite, from, 1, message.Signed{
			Kind: message.KindAccept, From: from, View: 1, Seq: 1, Digest: nv.Prepares[0].Digest,
		})
	}

	r.applyNewView(nv)
	for _, from := range []ids.ReplicaID{2, 3, 4} {
		r.lionOnAccept(accept(from))
	}
	com := nextOfKind(t, backup, message.KindCommit)
	if com.From != 1 || com.View != 1 || com.Seq != 1 {
		t.Fatalf("COMMIT = %v, want the primary's for view 1 slot 1", com)
	}
	// One COMMIT per slot and view: a late accept does not repeat it.
	cert := r.log.Peek(1).CommitCert()
	r.lionOnAccept(accept(5))
	if got := r.log.Peek(1).CommitCert(); got != cert {
		t.Fatal("a late ACCEPT re-issued the COMMIT")
	}
}
