package pbft

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/message"
	"repro/internal/statemachine"
	"repro/internal/transport"
)

// captureNet is a transport.Network that delivers nothing and records
// every frame sent through it.
type captureNet struct{ sent []*message.Message }

func (n *captureNet) Endpoint(a transport.Addr) transport.Endpoint { return captureEndpoint{n, a} }
func (n *captureNet) Close()                                       {}

type captureEndpoint struct {
	net  *captureNet
	addr transport.Addr
}

func (e captureEndpoint) Addr() transport.Addr { return e.addr }
func (e captureEndpoint) Send(_ transport.Addr, frame []byte) {
	m, err := message.Unmarshal(frame)
	if err != nil {
		panic(err)
	}
	e.net.sent = append(e.net.sent, m)
}
func (e captureEndpoint) Inbox() <-chan transport.Envelope { return nil }
func (e captureEndpoint) Close()                           {}

// TestNewViewSelection pins which entry the PBFT primary of view 1
// re-issues for each slot, driving it with signed VIEW-CHANGE frames
// only and reading its NEW-VIEW off the wire: a prepared slot keeps its
// payload, and an unprepared one is replaced by a no-op.
func TestNewViewSelection(t *testing.T) {
	const n, collector = 4, 1
	suite := crypto.NewEd25519Suite(92, n, 4)
	sign := func(s message.Signed) message.Signed {
		s.Sig = suite.Sign(crypto.ReplicaPrincipal(int(s.From)), s.SignedBytes())
		return s
	}
	prePrepare := func(seq uint64, ts uint64) message.Signed {
		req := &message.Request{Op: statemachine.EncodePut(fmt.Sprintf("k%d", ts), []byte("v")), Timestamp: ts}
		req.Sig = suite.Sign(crypto.ClientPrincipal(0), req.SignedBytes())
		s := message.Signed{Kind: message.KindPrePrepare, From: 0, Seq: seq, Digest: req.Digest(), Payload: []*message.Request{req}}
		return sign(s)
	}
	prepared, open := prePrepare(1, 1), prePrepare(2, 2)
	votes := []message.Signed{
		sign(message.Signed{Kind: message.KindPrepare, From: 2, Seq: 1, Digest: prepared.Digest}),
		sign(message.Signed{Kind: message.KindPrepare, From: 3, Seq: 1, Digest: prepared.Digest}),
	}

	net := &captureNet{}
	r, err := NewReplica(Options{
		ID: collector, N: n, Byz: 1, Suite: crypto.Restrict(suite, crypto.ReplicaPrincipal(collector)),
		Network: net, StateMachine: statemachine.NewKVStore(), Timing: config.DefaultTiming(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, vc := range []*message.Message{
		{Kind: message.KindViewChange, From: 2, View: 1, Prepares: []message.Signed{prepared, open}, Commits: votes},
		{Kind: message.KindViewChange, From: 3, View: 1},
	} {
		vc.Sig = suite.Sign(crypto.ReplicaPrincipal(int(vc.From)), vc.SignedBytes())
		r.StepEnvelope(transport.Envelope{From: transport.ReplicaAddr(vc.From), Frame: message.Marshal(vc)})
	}

	var nv *message.Message
	for _, m := range net.sent {
		if m.Kind == message.KindNewView {
			nv = m
			break
		}
	}
	if nv == nil {
		t.Fatal("the primary of view 1 sent no NEW-VIEW")
	}
	noop := (&message.Request{Client: -1}).Digest()
	want := []string{
		fmt.Sprintf("%v 1 %x", message.KindPrePrepare, prepared.Digest[:4]),
		fmt.Sprintf("%v 2 %x", message.KindPrePrepare, noop[:4]),
	}
	var got []string
	for _, set := range [][]message.Signed{nv.Commits, nv.Prepares} {
		for _, s := range set {
			if s.From != collector || s.View != 1 {
				t.Fatalf("entry for slot %d from %d in view %d, want from %d in view 1", s.Seq, s.From, s.View, collector)
			}
			got = append(got, fmt.Sprintf("%v %d %x", s.Kind, s.Seq, s.Digest[:4]))
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("re-issued %v, want %v", got, want)
	}
}
