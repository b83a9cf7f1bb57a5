package cluster

import (
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/replica"
	"repro/internal/transport"
)

// TestByzantineLiesAuthenticate drives the adversary's rewrites through
// the receive path honest replicas use. A traitor's corrupted vote must
// be accepted as authentic by every receiver it reaches — tagged votes
// re-tagged per destination, signed ones re-signed, sealed ones
// re-sealed — or the cluster tests above would only show lies dropped at
// authentication, not lies outvoted. A vote sent under another replica's
// name must be refused by all of them.
func TestByzantineLiesAuthenticate(t *testing.T) {
	const n, traitor = 6, ids.ReplicaID(5)
	peers := []ids.ReplicaID{2, 3, 4}
	suite := crypto.NewEd25519Suite(31, n, 0)
	truth := crypto.Sum([]byte("the slot's real digest"))

	for _, tc := range []struct {
		behavior  Behavior
		how       replica.Auth
		authentic bool
	}{
		{BehaviorCorrupt, replica.AuthTagged, true},
		{BehaviorCorrupt, replica.AuthSigned, true},
		{BehaviorCorrupt, replica.AuthSealed, true},
		{BehaviorImpersonate, replica.AuthTagged, false},
		{BehaviorImpersonate, replica.AuthSigned, false},
		{BehaviorImpersonate, replica.AuthSealed, false},
	} {
		net := transport.NewSimNetwork(transport.LAN(2, 31))
		adv := WrapByzantine(net, suite, n, map[ids.ReplicaID]Behavior{traitor: tc.behavior})
		engine := func(id ids.ReplicaID) (*replica.Engine, transport.Endpoint) {
			ep := adv.Endpoint(transport.ReplicaAddr(id))
			return replica.NewEngine(replica.Config{ID: id, Suite: suite, Endpoint: ep}), ep
		}
		sender, _ := engine(traitor)
		receivers := make(map[ids.ReplicaID]*replica.Engine)
		inboxes := make(map[ids.ReplicaID]transport.Endpoint)
		for _, id := range peers {
			receivers[id], inboxes[id] = engine(id) // attached before anything is sent
		}
		vote := &message.Signed{Kind: message.KindCommit, Seq: 1, Digest: truth}
		switch tc.how {
		case replica.AuthTagged:
			sender.MulticastTagged(peers, vote)
		case replica.AuthSigned:
			sender.SignRecord(vote)
			sender.Multicast(peers, vote.Wire())
		case replica.AuthSealed:
			sender.SignRecord(vote)
			sender.MulticastSealed(peers, vote)
		}

		for _, id := range peers {
			receiver, ep := receivers[id], inboxes[id]
			lies := 0
			// Each receiver gets the traitor's own frame; an impersonator
			// adds one per other replica it can claim to be.
			want := 1
			if tc.behavior == BehaviorImpersonate {
				want += n - 2
			}
			for got := 0; got < want; got++ {
				select {
				case env := <-ep.Inbox():
					m, err := message.Unmarshal(env.Frame)
					if err != nil {
						t.Fatal(err)
					}
					if m.From == traitor && m.Digest == truth {
						continue // the impersonator's own, honest, vote
					}
					lies++
					if ok := receiver.Authentic(m.Record(), tc.how); ok != tc.authentic {
						t.Errorf("%v, %v vote claiming replica %d at replica %d: authentic = %v, want %v",
							tc.behavior, authName(tc.how), m.From, id, ok, tc.authentic)
					}
				case <-time.After(2 * time.Second):
					t.Fatalf("%v: replica %d received %d of %d frames", tc.behavior, id, got, want)
				}
			}
			if lies == 0 {
				t.Errorf("%v: replica %d received no lie", tc.behavior, id)
			}
		}
		if adv.Attacks() == 0 {
			t.Errorf("%v: no attack counted", tc.behavior)
		}
		net.Close()
	}
}

func authName(how replica.Auth) string {
	switch how {
	case replica.AuthTagged:
		return "tagged"
	case replica.AuthSealed:
		return "sealed"
	}
	return "signed"
}

// TestImpersonatorPlaysPrimary: beside an ACCEPT the impersonator sends
// every other replica a sealed PREPARE and COMMIT for the next slot under
// every other name. Each carries a payload that matches its digest, so
// the seal is all a receiver has to refuse it by — and every receiver
// does, once per slot however many peers the ACCEPT went to.
func TestImpersonatorPlaysPrimary(t *testing.T) {
	const n, traitor = 6, ids.ReplicaID(5)
	suite := crypto.NewEd25519Suite(32, n, 0)
	net := transport.NewSimNetwork(transport.LAN(2, 32))
	defer net.Close()
	adv := WrapByzantine(net, suite, n, map[ids.ReplicaID]Behavior{traitor: BehaviorImpersonate})
	engine := func(id ids.ReplicaID) (*replica.Engine, transport.Endpoint) {
		ep := adv.Endpoint(transport.ReplicaAddr(id))
		return replica.NewEngine(replica.Config{ID: id, Suite: crypto.Restrict(suite, crypto.ReplicaPrincipal(int(id))), Endpoint: ep}), ep
	}
	sender, _ := engine(traitor)
	receivers := make(map[ids.ReplicaID]*replica.Engine)
	inboxes := make(map[ids.ReplicaID]transport.Endpoint)
	for id := ids.ReplicaID(0); id < traitor; id++ {
		receivers[id], inboxes[id] = engine(id)
	}
	accept := &message.Signed{Kind: message.KindAccept, View: 2, Seq: 7, Digest: crypto.Sum([]byte("d"))}
	sender.MulticastTagged([]ids.ReplicaID{2, 3, 4}, accept) // a Dog proxy's: three sends, one slot

	for id, ep := range inboxes {
		// Under each of the n-2 names that are neither the traitor's nor
		// the receiver's own: a PREPARE and a COMMIT, and — at the three
		// proxies — the ACCEPT itself; plus the traitor's honest ACCEPT.
		want := 2 * (n - 2)
		if id >= 2 {
			want += 1 + (n - 2)
		}
		sealed := 0
		for got := 0; got < want; got++ {
			select {
			case env := <-ep.Inbox():
				m, err := message.Unmarshal(env.Frame)
				if err != nil {
					t.Fatal(err)
				}
				if m.Kind == message.KindAccept {
					continue
				}
				sealed++
				if m.From == traitor || m.From == id || m.View != 2 || m.Seq != 8 {
					t.Errorf("replica %d got %v", id, m)
				}
				if reqs := m.Requests(); len(reqs) != 1 || message.BatchDigest(reqs) != m.Digest {
					t.Errorf("forged %v at replica %d: the payload does not match the digest, so the seal is not what stops it", m.Kind, id)
				}
				if receivers[id].Authentic(m.Record(), replica.AuthSealed) {
					t.Errorf("replica %d accepted a sealed %v claiming replica %d from the traitor", id, m.Kind, m.From)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("replica %d received %d of %d frames", id, got, want)
			}
		}
		if sealed != 2*(n-2) {
			t.Errorf("replica %d received %d sealed forgeries, want %d", id, sealed, 2*(n-2))
		}
	}
}
