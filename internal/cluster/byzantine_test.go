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
// re-tagged per destination, signed ones re-signed — or the cluster
// tests above would only show lies dropped at authentication, not lies
// outvoted. A vote sent under another replica's name must be refused by
// all of them.
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
		{BehaviorImpersonate, replica.AuthTagged, false},
		{BehaviorImpersonate, replica.AuthSigned, false},
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
		if tc.how == replica.AuthTagged {
			sender.MulticastTagged(peers, vote)
		} else {
			sender.SignRecord(vote)
			sender.Multicast(peers, vote.Wire())
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
	if how == replica.AuthTagged {
		return "tagged"
	}
	return "signed"
}
