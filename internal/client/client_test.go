package client

import (
	"errors"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/transport"
)

// fakeReplica answers requests at a transport endpoint with scripted
// replies, letting the client logic be tested without a real cluster.
type fakeReplica struct {
	id    ids.ReplicaID
	suite crypto.Suite
	ep    transport.Endpoint
	// respond builds a reply for a request; nil means stay silent.
	respond func(req *message.Request) *message.Message
	done    chan struct{}
}

func startFake(net transport.Network, suite crypto.Suite, id ids.ReplicaID,
	respond func(req *message.Request) *message.Message) *fakeReplica {
	f := &fakeReplica{
		id: id, suite: suite,
		ep:      net.Endpoint(transport.ReplicaAddr(id)),
		respond: respond,
		done:    make(chan struct{}),
	}
	go func() {
		for env := range f.ep.Inbox() {
			m, err := message.Unmarshal(env.Frame)
			if err != nil || m.Kind != message.KindRequest || len(m.Payload) != 1 {
				continue
			}
			rep := f.respond(m.Payload[0])
			if rep == nil {
				continue
			}
			rep.From = f.id
			tag := f.suite.Tag(crypto.ReplicaPrincipal(int(f.id)), crypto.ClientPrincipal(int64(rep.Client)), rep.SignedBytes())
			rep.Sig = tag[:]
			f.ep.Send(env.From, message.Marshal(rep))
		}
		close(f.done)
	}()
	return f
}

func okReply(mode ids.Mode, view ids.View, result []byte) func(*message.Request) *message.Message {
	return func(req *message.Request) *message.Message {
		return &message.Message{
			Kind: message.KindReply, View: view, Mode: mode,
			Timestamp: req.Timestamp, Client: req.Client, Result: result,
		}
	}
}

func testTiming() config.Timing {
	return config.Timing{
		ViewChange:       50 * time.Millisecond,
		ClientRetry:      60 * time.Millisecond,
		CheckpointPeriod: 16,
		HighWaterMarkLag: 64,
	}
}

func TestLionSingleTrustedReplySuffices(t *testing.T) {
	mb := ids.MustMembership(2, 4, 1, 1)
	suite := crypto.NewEd25519Suite(1, mb.N(), 4)
	net := transport.NewSimNetwork(transport.SimConfig{Seed: 1, PrivateSize: 2})
	defer net.Close()
	startFake(net, suite, 0, okReply(ids.Lion, 0, []byte("r")))

	c := New(0, suite, net, NewSeeMoRePolicy(mb, ids.Lion), testTiming())
	res, err := c.Invoke([]byte("op"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "r" {
		t.Fatalf("result %q", res)
	}
}

func TestDogNeedsMatchingProxyQuorum(t *testing.T) {
	mb := ids.MustMembership(2, 4, 1, 1)
	suite := crypto.NewEd25519Suite(2, mb.N(), 4)
	net := transport.NewSimNetwork(transport.SimConfig{Seed: 2, PrivateSize: 2})
	defer net.Close()
	// Initial primary of Dog view 0 is replica 0; it must relay. Here we
	// simply let all public nodes answer the broadcast: the client first
	// times out on the silent primary, then broadcasts.
	for id := 2; id <= 5; id++ {
		rid := ids.ReplicaID(id)
		if rid == 5 {
			// A Byzantine replica answers garbage; 2m+1=3 correct
			// matching replies must still win.
			startFake(net, suite, rid, okReply(ids.Dog, 0, []byte("evil")))
			continue
		}
		startFake(net, suite, rid, okReply(ids.Dog, 0, []byte("good")))
	}

	c := New(1, suite, net, NewSeeMoRePolicy(mb, ids.Dog), testTiming())
	res, err := c.Invoke([]byte("op"))
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "good" {
		t.Fatalf("client accepted %q", res)
	}
}

func TestClientRejectsBadSignatures(t *testing.T) {
	mb := ids.MustMembership(2, 4, 1, 1)
	suite := crypto.NewEd25519Suite(3, mb.N(), 4)
	evilSuite := crypto.NewEd25519Suite(99, mb.N(), 4)
	net := transport.NewSimNetwork(transport.SimConfig{Seed: 3, PrivateSize: 2})
	defer net.Close()
	// Replica 0 signs with the wrong key; its replies must be ignored,
	// so the request times out.
	startFake(net, evilSuite, 0, okReply(ids.Lion, 0, []byte("forged")))

	timing := testTiming()
	timing.ClientRetry = 20 * time.Millisecond
	c := New(2, suite, net, NewSeeMoRePolicy(mb, ids.Lion), timing)
	_, err := c.Invoke([]byte("op"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestClientIgnoresWrongTimestamp(t *testing.T) {
	mb := ids.MustMembership(2, 4, 1, 1)
	suite := crypto.NewEd25519Suite(4, mb.N(), 4)
	net := transport.NewSimNetwork(transport.SimConfig{Seed: 4, PrivateSize: 2})
	defer net.Close()
	startFake(net, suite, 0, func(req *message.Request) *message.Message {
		return &message.Message{
			Kind: message.KindReply, Mode: ids.Lion,
			Timestamp: req.Timestamp + 1, // stale/echoed wrong
			Client:    req.Client, Result: []byte("r"),
		}
	})
	timing := testTiming()
	timing.ClientRetry = 20 * time.Millisecond
	c := New(3, suite, net, NewSeeMoRePolicy(mb, ids.Lion), timing)
	if _, err := c.Invoke([]byte("op")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestSeeMoRePolicyFollowsModeAndView(t *testing.T) {
	mb := ids.MustMembership(2, 4, 1, 1)
	p := NewSeeMoRePolicy(mb, ids.Lion)
	if got := p.Primary(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("initial primary = %v", got)
	}
	// A trusted reply carrying view 3 / Dog moves the belief.
	replies := map[ids.ReplicaID]*message.Message{
		1: {Kind: message.KindReply, From: 1, View: 3, Mode: ids.Dog},
	}
	p.Observe(replies)
	if p.Mode() != ids.Dog || p.View() != 3 {
		t.Fatalf("belief = %s/%d", p.Mode(), p.View())
	}
	if got := p.Primary(); got[0] != mb.Primary(ids.Dog, 3) {
		t.Fatalf("primary = %v", got)
	}
	// m+1 matching public replies can also move it (no trusted reply).
	replies = map[ids.ReplicaID]*message.Message{
		2: {Kind: message.KindReply, From: 2, View: 5, Mode: ids.Peacock},
		3: {Kind: message.KindReply, From: 3, View: 5, Mode: ids.Peacock},
	}
	p.Observe(replies)
	if p.Mode() != ids.Peacock || p.View() != 5 {
		t.Fatalf("belief = %s/%d", p.Mode(), p.View())
	}
	// A single public reply (below m+1) must not move it.
	replies = map[ids.ReplicaID]*message.Message{
		4: {Kind: message.KindReply, From: 4, View: 9, Mode: ids.Lion},
	}
	p.Observe(replies)
	if p.View() == 9 {
		t.Fatal("single public reply moved the belief")
	}
	if len(p.All()) != mb.N() {
		t.Fatalf("All() = %d replicas", len(p.All()))
	}
}

func TestSeeMoRePolicyDone(t *testing.T) {
	mb := ids.MustMembership(2, 4, 1, 1)
	p := NewSeeMoRePolicy(mb, ids.Dog)
	mk := func(from ids.ReplicaID, result string) *message.Message {
		return &message.Message{Kind: message.KindReply, From: from, Result: []byte(result)}
	}
	// Two matching public replies: not enough (2m+1 = 3).
	replies := map[ids.ReplicaID]*message.Message{2: mk(2, "x"), 3: mk(3, "x")}
	if _, ok := p.Done(replies, false); ok {
		t.Fatal("2 public replies accepted, need 3")
	}
	// Retried: m+1 = 2 suffice.
	if res, ok := p.Done(replies, true); !ok || string(res) != "x" {
		t.Fatal("retried weak quorum not accepted")
	}
	// Third matching: accepted.
	replies[4] = mk(4, "x")
	if res, ok := p.Done(replies, false); !ok || string(res) != "x" {
		t.Fatal("full public quorum not accepted")
	}
	// A trusted reply always wins outright.
	if res, ok := p.Done(map[ids.ReplicaID]*message.Message{0: mk(0, "t")}, false); !ok || string(res) != "t" {
		t.Fatal("trusted reply not accepted")
	}
	// Mismatched public replies never reach quorum.
	replies = map[ids.ReplicaID]*message.Message{2: mk(2, "a"), 3: mk(3, "b"), 4: mk(4, "c")}
	if _, ok := p.Done(replies, false); ok {
		t.Fatal("mismatched replies accepted")
	}
}

func TestGenericPolicy(t *testing.T) {
	p := NewGenericPolicy(4, 2)
	if got := p.Primary(); got[0] != 0 {
		t.Fatalf("primary = %v", got)
	}
	if len(p.All()) != 4 {
		t.Fatalf("All = %v", p.All())
	}
	mk := func(from ids.ReplicaID, result string, view ids.View) *message.Message {
		return &message.Message{Kind: message.KindReply, From: from, Result: []byte(result), View: view}
	}
	replies := map[ids.ReplicaID]*message.Message{1: mk(1, "x", 2)}
	if _, ok := p.Done(replies, false); ok {
		t.Fatal("1 reply accepted with quorum 2")
	}
	replies[2] = mk(2, "x", 2)
	if _, ok := p.Done(replies, false); !ok {
		t.Fatal("quorum 2 not accepted")
	}
	p.Observe(replies)
	if got := p.Primary(); got[0] != 2 {
		t.Fatalf("primary after observing view 2 = %v", got)
	}
	// One faulty replica's inflated view is not vouched for by a quorum:
	// it must not pick the primary (1001 mod 4 would be replica 1).
	p = NewGenericPolicy(4, 2)
	p.Observe(map[ids.ReplicaID]*message.Message{1: mk(1, "x", 1001), 2: mk(2, "x", 0)})
	if got := p.Primary(); got[0] != 0 {
		t.Fatalf("primary after one inflated view = %v, want 0", got)
	}
}
