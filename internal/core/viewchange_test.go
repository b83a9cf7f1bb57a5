package core

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/statemachine"
	"repro/internal/storage"
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
		Kind: message.KindPrepare, From: 0, View: 0, Seq: 1, Digest: req.Digest(), Payload: []*message.Request{req},
	}); err != nil {
		t.Fatal(err)
	}
	entry.MarkCommitted()
	nv := &message.Message{
		Kind: message.KindNewView, From: 1, View: 1, Mode: ids.Lion,
		Prepares: []message.Signed{{
			Kind: message.KindPrepare, From: 1, View: 1, Seq: 1, Digest: req.Digest(), Payload: []*message.Request{req},
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

// TestNewViewRefusesBadReissue: a NEW-VIEW from the trusted collector,
// correctly signed as a whole, that re-issues one entry whose own
// signature is bad is refused — the receiver neither enters the view nor
// journals anything — wherever the bad entry sits. The honest NEW-VIEW
// is then entered. This is the check every receiver runs once per view
// change in Lion.
func TestNewViewRefusesBadReissue(t *testing.T) {
	suite := crypto.NewEd25519Suite(93, baseMembership().N(), 4)
	own := func(id ids.ReplicaID) crypto.Suite { return crypto.Restrict(suite, crypto.ReplicaPrincipal(int(id))) }
	// Backup 2 of view 0 accepts slots 1 and 2 (PREPARE and COMMIT) and
	// slots 3 and 4 (PREPARE only) from primary 0, so the NEW-VIEW below
	// re-issues two committed entries and two open ones.
	const backup = 2
	b := loneReplica(t, ids.Lion, backup, own(backup), &captureNet{}, nil)
	for seq := uint64(1); seq <= 4; seq++ {
		req := makeRequest(t, suite, ids.ClientID(seq%4), seq)
		kinds := []message.Kind{message.KindPrepare}
		if seq <= 2 {
			kinds = append(kinds, message.KindCommit)
		}
		for _, kind := range kinds {
			s := message.Signed{Kind: kind, From: 0, Seq: seq, Digest: req.Digest(), Payload: []*message.Request{req}}
			frame := sealedFrame(suite, 0, backup, s, suite.Sign(crypto.ReplicaPrincipal(0), s.SignedBytes()))
			b.StepEnvelope(transport.Envelope{From: transport.ReplicaAddr(0), Frame: frame})
		}
	}
	mb := baseMembership()
	collectorID := mb.Transferer(ids.Lion, 1)
	collector := loneReplica(t, ids.Lion, collectorID, own(collectorID), &captureNet{}, nil)
	honest := collector.composeNewView(1, ids.Lion, []*message.Message{b.buildViewChange(1, ids.Lion)})
	collector.eng.Sign(honest)
	if len(honest.Commits) != 2 || len(honest.Prepares) != 2 {
		t.Fatalf("NEW-VIEW re-issues %d committed and %d open entries, want 2 and 2", len(honest.Commits), len(honest.Prepares))
	}
	honestFrame := message.Marshal(honest)

	const receiver = 3
	store := storage.NewMem()
	r := loneReplica(t, ids.Lion, receiver, own(receiver), &captureNet{}, store)
	journaled := store.Len()
	deliver := func(frame []byte) {
		r.StepEnvelope(transport.Envelope{From: transport.ReplicaAddr(collectorID), Frame: frame})
	}
	for _, c := range []struct {
		name string
		set  func(m *message.Message) []message.Signed
	}{
		{"prepares", func(m *message.Message) []message.Signed { return m.Prepares }},
		{"commits", func(m *message.Message) []message.Signed { return m.Commits }},
	} {
		for _, at := range []string{"first", "last"} {
			forged := mustUnmarshal(t, append([]byte(nil), honestFrame...))
			set := c.set(forged)
			e := &set[0]
			if at == "last" {
				e = &set[len(set)-1]
			}
			e.Sig = append([]byte(nil), e.Sig...)
			e.Sig[0] ^= 1
			collector.eng.Sign(forged)
			deliver(message.Marshal(forged))
			if r.View() != 0 || store.Len() != journaled {
				t.Fatalf("a bad signature on the %s entry of %s: view %d, %d records journaled, want view 0 and none",
					at, c.name, r.View(), store.Len()-journaled)
			}
		}
	}
	deliver(honestFrame)
	if r.View() != 1 || store.Len() == journaled {
		t.Fatalf("the honest NEW-VIEW: view %d, %d records journaled, want view 1 and the re-issued entries",
			r.View(), store.Len()-journaled)
	}
}

// TestNewViewIgnoresSwappedCommitPayload: a COMMIT's signature covers
// its digest, not the payload riding beside it. Byzantine public backup
// 5 reports the primary's genuine COMMIT for slot 1 with another
// request swapped in. The trusted collector of view 1 must re-issue the
// genuine payload — one that does not match its digest would be refused
// by every receiver, yet executed by the collector itself.
func TestNewViewIgnoresSwappedCommitPayload(t *testing.T) {
	const collector, byzantine = 1, 5
	mb := baseMembership()
	if mb.Primary(ids.Lion, 1) != collector || mb.IsTrusted(byzantine) {
		t.Fatal("the membership no longer makes replica 1 the collector of view 1 and replica 5 public")
	}
	suite := crypto.NewEd25519Suite(95, mb.N(), 4)
	genuine := makeRequest(t, suite, 0, 1)
	evil := &message.Request{Op: statemachine.EncodePut("evil", []byte("x")), Timestamp: 1, Client: 1}
	evil.Sig = suite.Sign(crypto.ClientPrincipal(1), evil.SignedBytes())
	commit := record(suite, message.KindCommit, 0, 0, 1, genuine)
	swapped := commit
	swapped.Payload = []*message.Request{evil}

	cl, err := config.NewCluster(mb, ids.Lion, fastTiming())
	if err != nil {
		t.Fatal(err)
	}
	kv := statemachine.NewKVStore()
	net := &captureNet{}
	r, err := NewReplica(Options{
		ID: collector, Cluster: cl, Suite: crypto.Restrict(suite, crypto.ReplicaPrincipal(collector)),
		Network: net, StateMachine: kv,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.StepEnvelope(viewChange(suite, 2, 1, ids.Lion,
		[]message.Signed{record(suite, message.KindPrepare, 0, 0, 1, genuine)}, []message.Signed{commit}))
	r.StepEnvelope(viewChange(suite, 4, 1, ids.Lion, nil, nil))
	r.StepEnvelope(viewChange(suite, byzantine, 1, ids.Lion, nil, []message.Signed{swapped}))

	nv := sentNewView(t, net)
	if len(nv.Commits) != 1 || len(nv.Prepares) != 0 {
		t.Fatalf("NEW-VIEW re-issues %d committed and %d open entries, want slot 1 committed", len(nv.Commits), len(nv.Prepares))
	}
	if s := nv.Commits[0]; message.BatchDigest(s.Requests()) != s.Digest {
		t.Fatal("the re-issued COMMIT's payload does not match its digest")
	}
	if r.View() != 1 || r.LastExecuted() != 1 {
		t.Fatalf("collector in view %d executed to %d, want view 1 and slot 1", r.View(), r.LastExecuted())
	}
	if _, ok := kv.Get("evil"); ok {
		t.Fatal("the collector executed the swapped-in request")
	}
	if _, ok := kv.Get("k1"); !ok {
		t.Fatal("the collector did not execute the committed request")
	}
}
