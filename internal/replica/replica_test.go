package replica

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/mlog"
	"repro/internal/statemachine"
	"repro/internal/transport"
)

type recordingHandler struct {
	mu    sync.Mutex
	msgs  []*message.Message
	ticks int
}

func (h *recordingHandler) HandleMessage(m *message.Message) {
	h.mu.Lock()
	h.msgs = append(h.msgs, m)
	h.mu.Unlock()
}

func (h *recordingHandler) HandleTick(time.Time) {
	h.mu.Lock()
	h.ticks++
	h.mu.Unlock()
}

func (h *recordingHandler) messageCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.msgs)
}

func (h *recordingHandler) tickCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ticks
}

func newTestEngine(t *testing.T, net *transport.SimNetwork, id ids.ReplicaID, suite crypto.Suite) (*Engine, *recordingHandler) {
	t.Helper()
	e := NewEngine(Config{
		ID:           id,
		Suite:        suite,
		Endpoint:     net.Endpoint(transport.ReplicaAddr(id)),
		TickInterval: time.Millisecond,
	})
	h := &recordingHandler{}
	e.Start(h)
	t.Cleanup(e.Stop)
	return e, h
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		case <-time.After(time.Millisecond):
		}
	}
}

func TestEngineDeliversValidMessages(t *testing.T) {
	suite := crypto.NewEd25519Suite(1, 2, 0)
	net := transport.NewSimNetwork(transport.SimConfig{Seed: 1, PrivateSize: 2})
	defer net.Close()
	e0, _ := newTestEngine(t, net, 0, suite)
	_, h1 := newTestEngine(t, net, 1, suite)

	m := &message.Message{Kind: message.KindAccept, View: 1, Seq: 2}
	e0.Sign(m)
	e0.Send(1, m)
	waitFor(t, "message delivery", func() bool { return h1.messageCount() == 1 })
}

func TestEngineRejectsSpoofedSender(t *testing.T) {
	suite := crypto.NewEd25519Suite(1, 3, 0)
	net := transport.NewSimNetwork(transport.SimConfig{Seed: 1, PrivateSize: 3})
	defer net.Close()
	e0, _ := newTestEngine(t, net, 0, suite)
	_, h1 := newTestEngine(t, net, 1, suite)

	// Replica 0 claims to be replica 2 in the protocol header over its
	// own link; the engine drops the inconsistent frame before any
	// handler pays to authenticate it.
	m := &message.Message{Kind: message.KindAccept, From: 2, View: 1, Seq: 2}
	e0.Send(1, m)
	// And a client address can only carry REQUESTs.
	cl := net.Endpoint(transport.ClientAddr(0))
	notReq := &message.Message{Kind: message.KindAccept, From: 0, View: 1, Seq: 1}
	cl.Send(transport.ReplicaAddr(1), message.Marshal(notReq))

	time.Sleep(50 * time.Millisecond)
	if h1.messageCount() != 0 {
		t.Fatalf("spoofed/invalid frames delivered: %d", h1.messageCount())
	}
}

func TestEngineDropsGarbageFrames(t *testing.T) {
	suite := crypto.NewEd25519Suite(1, 2, 0)
	net := transport.NewSimNetwork(transport.SimConfig{Seed: 1, PrivateSize: 2})
	defer net.Close()
	raw := net.Endpoint(transport.ReplicaAddr(0))
	_, h1 := newTestEngine(t, net, 1, suite)
	raw.Send(transport.ReplicaAddr(1), []byte{0xde, 0xad})
	time.Sleep(30 * time.Millisecond)
	if h1.messageCount() != 0 {
		t.Fatal("garbage frame reached the handler")
	}
}

func TestEngineTicks(t *testing.T) {
	suite := crypto.NewEd25519Suite(1, 1, 0)
	net := transport.NewSimNetwork(transport.SimConfig{Seed: 1, PrivateSize: 1})
	defer net.Close()
	_, h := newTestEngine(t, net, 0, suite)
	waitFor(t, "ticks", func() bool { return h.tickCount() >= 3 })
}

func TestEngineCrashRecover(t *testing.T) {
	suite := crypto.NewEd25519Suite(1, 2, 0)
	net := transport.NewSimNetwork(transport.SimConfig{Seed: 1, PrivateSize: 2})
	defer net.Close()
	e0, _ := newTestEngine(t, net, 0, suite)
	e1, h1 := newTestEngine(t, net, 1, suite)

	e1.Crash()
	m := &message.Message{Kind: message.KindAccept, View: 1, Seq: 1}
	e0.Sign(m)
	e0.Send(1, m)
	time.Sleep(30 * time.Millisecond)
	if h1.messageCount() != 0 {
		t.Fatal("crashed replica processed a message")
	}
	// A crashed replica does not send either.
	out := &message.Message{Kind: message.KindAccept, View: 1, Seq: 9}
	e1.Sign(out)
	e1.Send(0, out)

	e1.Recover()
	e0.Send(1, m)
	waitFor(t, "post-recovery delivery", func() bool { return h1.messageCount() == 1 })
	if got := h1.messageCount(); got != 1 {
		t.Fatalf("messages after recovery = %d", got)
	}
}

func TestEngineSignVerify(t *testing.T) {
	suite := crypto.NewEd25519Suite(2, 2, 1)
	net := transport.NewSimNetwork(transport.SimConfig{Seed: 2, PrivateSize: 2})
	defer net.Close()
	e0 := NewEngine(Config{ID: 0, Suite: suite, Endpoint: net.Endpoint(transport.ReplicaAddr(0))})
	e1 := NewEngine(Config{ID: 1, Suite: suite, Endpoint: net.Endpoint(transport.ReplicaAddr(1))})

	m := &message.Message{Kind: message.KindPrepare, View: 1, Seq: 2, Digest: crypto.Sum([]byte("d"))}
	e0.Sign(m)
	if m.From != 0 {
		t.Fatal("Sign must stamp the sender")
	}
	if !e1.Verify(m) {
		t.Fatal("valid signature rejected")
	}
	m.Seq = 3
	if e1.Verify(m) {
		t.Fatal("tampered message verified")
	}

	s := &message.Signed{Kind: message.KindCommit, View: 1, Seq: 2, Digest: crypto.Sum([]byte("d"))}
	e1.SignRecord(s)
	if !e0.VerifyRecord(s) {
		t.Fatal("valid record rejected")
	}
	s.Digest = crypto.Sum([]byte("other"))
	if e0.VerifyRecord(s) {
		t.Fatal("tampered record verified")
	}

	// Client request verification.
	req := &message.Request{Op: []byte("x"), Timestamp: 1, Client: 0}
	req.Sig = suite.Sign(crypto.ClientPrincipal(0), req.SignedBytes())
	if !e0.VerifyRequest(req) {
		t.Fatal("valid client request rejected")
	}
	req.Timestamp = 2
	if e0.VerifyRequest(req) {
		t.Fatal("tampered client request verified")
	}
	noop := &message.Request{Client: -1}
	if !e0.VerifyRequest(noop) {
		t.Fatal("no-op request must verify")
	}
}

// TestTaggedMulticast: one frame carries every destination's tag; each
// destination finds its own slot authentic, nobody else's, and the same
// frame is no signature.
func TestTaggedMulticast(t *testing.T) {
	suite := crypto.NewEd25519Suite(9, 4, 1)
	net := transport.NewSimNetwork(transport.SimConfig{Seed: 9, PrivateSize: 4})
	defer net.Close()
	engine := func(id ids.ReplicaID) *Engine {
		return NewEngine(Config{ID: id, Suite: crypto.Restrict(suite, crypto.ReplicaPrincipal(int(id))),
			Endpoint: net.Endpoint(transport.ReplicaAddr(id))})
	}
	e0, e1, e2, e3 := engine(0), engine(1), engine(2), engine(3)
	in1, in2 := net.Endpoint(transport.ReplicaAddr(1)).Inbox(), net.Endpoint(transport.ReplicaAddr(2)).Inbox()

	vote := &message.Signed{Kind: message.KindCommit, View: 1, Seq: 2, Digest: crypto.Sum([]byte("d"))}
	e0.MulticastTagged([]ids.ReplicaID{0, 1, 2}, vote)
	if vote.From != 0 || vote.Sig != nil {
		t.Fatalf("the vote record must be stamped and stay bare: From %d, %d-byte Sig", vote.From, len(vote.Sig))
	}
	f1, f2 := (<-in1).Frame, (<-in2).Frame
	if !bytes.Equal(f1, f2) {
		t.Fatal("a tagged multicast must be one frame for every destination")
	}
	m, err := message.Unmarshal(f1)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Record()
	if len(s.Sig) != 3*crypto.TagSize {
		t.Fatalf("the authenticator is %d bytes, want slots 0–2 and no more", len(s.Sig))
	}
	if !e1.Authentic(s, AuthTagged) || !e2.Authentic(s, AuthTagged) {
		t.Fatal("a destination refused its own slot")
	}
	if e3.Authentic(s, AuthTagged) {
		t.Fatal("a replica the vote was not addressed to found it authentic")
	}
	if e1.Authentic(s, AuthSigned) || e1.Authentic(s, AuthNone) || e1.Authentic(s, 0) {
		t.Fatal("an authenticator passed as a signature, or an unauthenticated kind as authentic")
	}
	s.Digest = crypto.Sum([]byte("other"))
	if e1.Authentic(s, AuthTagged) {
		t.Fatal("a tampered vote verified")
	}

	// The authenticator ends at the highest slot filled, wherever the
	// sender's own ID lies: replica 3's vote for replica 1 is two slots.
	e3.MulticastTagged([]ids.ReplicaID{1, 3}, &message.Signed{Kind: message.KindAccept, View: 1, Seq: 2})
	if m, err := message.Unmarshal((<-in1).Frame); err != nil || len(m.Sig) != 2*crypto.TagSize {
		t.Fatalf("replica 3's authenticator for replica 1: %d bytes (%v), want two slots", len(m.Sig), err)
	}

	// A REPLY carries the one tag of its one reader.
	rep := &message.Message{Kind: message.KindReply, Client: 0, Timestamp: 7, Result: []byte("r")}
	e1.SendClientTagged(0, rep)
	if rep.From != 1 || !suite.VerifyTag(crypto.ReplicaPrincipal(1), crypto.ClientPrincipal(0), rep.SignedBytes(), rep.Sig) {
		t.Fatal("the client cannot verify its reply")
	}
}

// TestSealedMulticast: a sealed multicast is one frame carrying the
// sender's signature and every destination's tag over it; a destination
// accepts it on its slot and is left holding the bare signature, which
// verifies for anyone; nobody else finds it authentic, and it passes for
// neither a signature nor a plain authenticator. The round trip holds
// for every length of signature a suite makes.
func TestSealedMulticast(t *testing.T) {
	for _, suite := range []crypto.Suite{
		crypto.NewEd25519Suite(9, 4, 1), crypto.NewHMACSuite(9, 4, 1), crypto.NoopSuite{},
	} {
		t.Run(suite.Name(), func(t *testing.T) {
			net := transport.NewSimNetwork(transport.SimConfig{Seed: 9, PrivateSize: 4})
			defer net.Close()
			engine := func(id ids.ReplicaID) *Engine {
				own := suite
				if suite.Name() != "none" {
					own = crypto.Restrict(suite, crypto.ReplicaPrincipal(int(id)))
				}
				return NewEngine(Config{ID: id, Suite: own, Endpoint: net.Endpoint(transport.ReplicaAddr(id))})
			}
			e0, e1, e2, e3 := engine(0), engine(1), engine(2), engine(3)
			in1, in2 := net.Endpoint(transport.ReplicaAddr(1)).Inbox(), net.Endpoint(transport.ReplicaAddr(2)).Inbox()

			prop := &message.Signed{Kind: message.KindPrepare, View: 1, Seq: 2, Digest: crypto.Sum([]byte("d"))}
			e0.SignRecord(prop)
			bare := append([]byte(nil), prop.Sig...)
			e0.MulticastSealed([]ids.ReplicaID{0, 1, 2}, prop)
			if !bytes.Equal(prop.Sig, bare) {
				t.Fatal("sealing changed the sender's own record")
			}
			f1, f2 := (<-in1).Frame, (<-in2).Frame
			if !bytes.Equal(f1, f2) {
				t.Fatal("a sealed multicast must be one frame for every destination")
			}
			record := func() *message.Signed {
				m, err := message.Unmarshal(f1)
				if err != nil {
					t.Fatal(err)
				}
				return m.Record()
			}
			for _, e := range []*Engine{e1, e2} {
				s := record()
				if !e.Authentic(s, AuthSealed) {
					t.Fatalf("replica %d refused its own slot", e.ID())
				}
				if !bytes.Equal(s.Sig, bare) || !e3.VerifyRecord(s) {
					t.Fatalf("replica %d is not left holding the sender's bare signature", e.ID())
				}
			}
			if suite.Name() == "none" {
				return // NoopSuite accepts anything: nothing below can be refused
			}
			if e3.Authentic(record(), AuthSealed) {
				t.Fatal("a replica the proposal was not addressed to found it authentic")
			}
			if e1.Authentic(record(), AuthSigned) || e1.Authentic(record(), AuthTagged) {
				t.Fatal("a seal passed as a bare signature or a bare authenticator")
			}
			if s := record(); e1.Authentic(&message.Signed{Kind: s.Kind, From: s.From, View: s.View, Seq: s.Seq, Digest: s.Digest, Sig: bare}, AuthSealed) {
				t.Fatal("a bare signature passed as a seal")
			}
			tampered := record()
			tampered.Digest = crypto.Sum([]byte("other"))
			if e1.Authentic(tampered, AuthSealed) {
				t.Fatal("a tampered proposal verified")
			}
			// The tag binds the signature too: the right tuple under other
			// signature bytes is not what the sender sealed.
			swapped := record()
			swapped.Sig = append([]byte(nil), swapped.Sig...)
			swapped.Sig[1] ^= 0xff
			if e1.Authentic(swapped, AuthSealed) {
				t.Fatal("a seal verified around signature bytes the sender never sealed")
			}
		})
	}
}

func TestMulticastSkipsSelf(t *testing.T) {
	suite := crypto.NewEd25519Suite(3, 3, 0)
	net := transport.NewSimNetwork(transport.SimConfig{Seed: 3, PrivateSize: 3})
	defer net.Close()
	e0, h0 := newTestEngine(t, net, 0, suite)
	_, h1 := newTestEngine(t, net, 1, suite)
	_, h2 := newTestEngine(t, net, 2, suite)

	m := &message.Message{Kind: message.KindCommit, View: 1, Seq: 1}
	e0.Sign(m)
	e0.Multicast([]ids.ReplicaID{0, 1, 2}, m)
	waitFor(t, "multicast", func() bool { return h1.messageCount() == 1 && h2.messageCount() == 1 })
	if h0.messageCount() != 0 {
		t.Fatal("multicast delivered to self")
	}
}

// ---------------------------------------------------------------------------
// Executor

func signedReq(suite crypto.Suite, client ids.ClientID, ts uint64, op []byte) *message.Request {
	r := &message.Request{Op: op, Timestamp: ts, Client: client}
	r.Sig = suite.Sign(crypto.ClientPrincipal(int64(client)), r.SignedBytes())
	return r
}

func commitSlot(t *testing.T, l *mlog.Log, seq uint64, req *message.Request) {
	t.Helper()
	e := l.Entry(seq)
	if e == nil {
		t.Fatalf("slot %d out of window", seq)
	}
	if err := e.SetProposal(&message.Signed{
		Kind: message.KindPrepare, View: 0, Seq: seq,
		Digest: req.Digest(), Payload: []*message.Request{req},
	}); err != nil {
		t.Fatal(err)
	}
	e.MarkCommitted()
}

func TestExecutorOrderAndGaps(t *testing.T) {
	suite := crypto.NewEd25519Suite(4, 1, 4)
	x := NewExecutor(statemachine.NewCounter(), 4)
	l := mlog.New(64)

	var got []uint64
	on := func(seq uint64, _ *message.Request, _ []byte) { got = append(got, seq) }

	// Commit 2 before 1: nothing executes until the gap closes.
	commitSlot(t, l, 2, signedReq(suite, 0, 2, nil))
	if n := x.ExecuteReady(l, on); n != 0 {
		t.Fatalf("executed %d across a gap", n)
	}
	commitSlot(t, l, 1, signedReq(suite, 0, 1, nil))
	if n := x.ExecuteReady(l, on); n != 2 {
		t.Fatalf("executed %d, want 2", n)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("execution order %v", got)
	}
	if x.LastExecuted() != 2 {
		t.Fatalf("cursor %d", x.LastExecuted())
	}
	// Idempotent.
	if n := x.ExecuteReady(l, on); n != 0 {
		t.Fatalf("re-executed %d", n)
	}
}

func TestExecutorExactlyOnce(t *testing.T) {
	suite := crypto.NewEd25519Suite(5, 1, 2)
	sm := statemachine.NewCounter()
	x := NewExecutor(sm, 64)
	l := mlog.New(64)

	req := signedReq(suite, 0, 7, nil)
	commitSlot(t, l, 1, req)
	// The same client request committed again at a later slot (e.g. a
	// retransmission that got re-ordered through a view change).
	commitSlot(t, l, 2, req)
	calls := 0
	x.ExecuteReady(l, func(uint64, *message.Request, []byte) { calls++ })
	if calls != 1 {
		t.Fatalf("onExec calls = %d, want 1 (exactly-once)", calls)
	}
	if sm.Value() != 1 {
		t.Fatalf("state machine applied %d times", sm.Value())
	}
	if x.LastExecuted() != 2 {
		t.Fatal("duplicate slot must still advance the cursor")
	}
	if rep, ok := x.CachedReply(req); !ok || len(rep) != 8 {
		t.Fatalf("cached reply missing: %v %v", rep, ok)
	}
	if x.Fresh(req) {
		t.Fatal("executed request still fresh")
	}
	if !x.Fresh(signedReq(suite, 0, 8, nil)) {
		t.Fatal("newer request not fresh")
	}
}

func TestExecutorNoOp(t *testing.T) {
	sm := statemachine.NewCounter()
	x := NewExecutor(sm, 64)
	l := mlog.New(64)
	noop := &message.Request{Client: -1}
	e := l.Entry(1)
	e.SetProposal(&message.Signed{Kind: message.KindPrepare, Seq: 1, Digest: noop.Digest(), Payload: []*message.Request{noop}})
	e.MarkCommitted()
	calls := 0
	x.ExecuteReady(l, func(uint64, *message.Request, []byte) { calls++ })
	if calls != 0 || sm.Value() != 0 {
		t.Fatal("no-op touched the state machine or produced a reply")
	}
	if x.LastExecuted() != 1 {
		t.Fatal("no-op must advance the cursor")
	}
}

func TestExecutorCheckpointSnapshots(t *testing.T) {
	suite := crypto.NewEd25519Suite(6, 1, 2)
	x := NewExecutor(statemachine.NewCounter(), 2)
	l := mlog.New(64)
	for seq := uint64(1); seq <= 5; seq++ {
		commitSlot(t, l, seq, signedReq(suite, 0, seq, nil))
	}
	x.ExecuteReady(l, nil)
	if _, ok := x.SnapshotAt(2); !ok {
		t.Fatal("snapshot at 2 missing")
	}
	if _, ok := x.SnapshotAt(4); !ok {
		t.Fatal("snapshot at 4 missing")
	}
	if _, ok := x.SnapshotAt(3); ok {
		t.Fatal("snapshot at non-boundary 3 present")
	}
	if !x.AtCheckpoint(4) || x.AtCheckpoint(5) {
		t.Fatal("AtCheckpoint wrong")
	}
	x.DropSnapshotsBelow(4)
	if _, ok := x.SnapshotAt(2); ok {
		t.Fatal("GC left snapshot at 2")
	}
	if _, ok := x.SnapshotAt(4); !ok {
		t.Fatal("GC removed snapshot at 4")
	}
}

func TestExecutorStateTransfer(t *testing.T) {
	suite := crypto.NewEd25519Suite(7, 1, 2)
	// Source replica executes 4 requests.
	src := NewExecutor(statemachine.NewCounter(), 2)
	l := mlog.New(64)
	for seq := uint64(1); seq <= 4; seq++ {
		commitSlot(t, l, seq, signedReq(suite, 0, seq, nil))
	}
	src.ExecuteReady(l, nil)
	snap, ok := src.SnapshotAt(4)
	if !ok {
		t.Fatal("no snapshot at 4")
	}

	// Lagging replica jumps straight to 4.
	dstSM := statemachine.NewCounter()
	dst := NewExecutor(dstSM, 2)
	if err := dst.JumpTo(4, snap); err != nil {
		t.Fatal(err)
	}
	if dst.LastExecuted() != 4 {
		t.Fatalf("cursor = %d", dst.LastExecuted())
	}
	if dstSM.Value() != 4 {
		t.Fatalf("restored state = %d", dstSM.Value())
	}
	if dst.StateDigest() != src.StateDigest() {
		t.Fatal("digests diverge after transfer")
	}
	// Exactly-once survives the transfer.
	if dst.Fresh(signedReq(suite, 0, 4, nil)) {
		t.Fatal("transferred client table lost")
	}
	// Backwards transfer refused.
	if err := dst.JumpTo(2, snap); err == nil {
		t.Fatal("backwards state transfer accepted")
	}
	// Hostile snapshot refused.
	if err := dst.JumpTo(10, []byte{1, 2, 3}); err == nil {
		t.Fatal("malformed snapshot accepted")
	}
}

func TestExecutorDigestMatchesCachedSnapshot(t *testing.T) {
	suite := crypto.NewEd25519Suite(8, 1, 2)
	x := NewExecutor(statemachine.NewCounter(), 2)
	l := mlog.New(64)
	commitSlot(t, l, 1, signedReq(suite, 0, 1, nil))
	commitSlot(t, l, 2, signedReq(suite, 0, 2, nil))
	x.ExecuteReady(l, nil)
	snap, _ := x.SnapshotAt(2)
	if DigestOf(snap) != x.StateDigest() {
		t.Fatal("cached snapshot digest != live state digest at the boundary")
	}
}

func TestNewExecutorPanicsOnZeroPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero period accepted")
		}
	}()
	NewExecutor(statemachine.NewCounter(), 0)
}
