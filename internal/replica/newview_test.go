package replica

import (
	"fmt"
	"testing"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/statemachine"
)

// honestNewView is collector 1's signed NEW-VIEW into view 1 under the
// rig's keys: one committed slot and two open ones, the last a batch.
func honestNewView() *message.Message {
	suite := crypto.NewHMACSuite(rigSeed, rigN, 4)
	const collector = 1
	var reqs []*message.Request
	for c := ids.ClientID(0); c < 3; c++ {
		reqs = append(reqs, signedReq(suite, c, 1, statemachine.EncodePut(fmt.Sprintf("key%d", c), make([]byte, 64))))
	}
	entry := func(kind message.Kind, seq uint64, payload ...*message.Request) message.Signed {
		s := message.Signed{Kind: kind, View: 1, Seq: seq, Digest: message.BatchDigest(payload)}
		s.Payload = payload
		s.From = collector
		s.Sig = suite.Sign(crypto.ReplicaPrincipal(collector), s.SignedBytes())
		return s
	}
	nv := &message.Message{
		Kind: message.KindNewView, From: collector, View: 1, Mode: ids.Lion,
		Commits:  []message.Signed{entry(message.KindCommit, 1, reqs[0])},
		Prepares: []message.Signed{entry(message.KindPrepare, 2, reqs[1]), entry(message.KindPrepare, 3, reqs[1:]...)},
	}
	nv.Sig = suite.Sign(crypto.ReplicaPrincipal(collector), nv.SignedBytes())
	return nv
}

// TestNewViewCheck: the honest NEW-VIEW passes CheckNewView, and each
// of its entries, bent one way at a time, refuses it.
func TestNewViewCheck(t *testing.T) {
	g := newRig(t)
	if !g.rec.CheckNewView(honestNewView(), message.KindPrepare) {
		t.Fatal("the honest NEW-VIEW is refused")
	}
	evil := signedReq(g.suite, 3, 1, []byte("evil"))
	for _, tc := range []struct {
		name string
		bend func(m *message.Message)
	}{
		{"an older view", func(m *message.Message) { m.View = 0 }},
		{"an entry from another replica", func(m *message.Message) { m.Prepares[0] = g.sign(2, m.Prepares[0]) }},
		{"an entry of another view", func(m *message.Message) { m.Commits[0].View = 2; m.Commits[0] = g.sign(1, m.Commits[0]) }},
		{"an open entry of the committed kind", func(m *message.Message) {
			m.Prepares[0].Kind = message.KindCommit
			m.Prepares[0] = g.sign(1, m.Prepares[0])
		}},
		{"a payload not under its digest", func(m *message.Message) { m.Commits[0].Payload = []*message.Request{evil} }},
		{"no payload", func(m *message.Message) { m.Prepares[1].Payload = nil }},
		{"a bad entry signature", func(m *message.Message) { m.Prepares[1].Sig = m.Prepares[0].Sig }},
	} {
		m := honestNewView()
		tc.bend(m)
		m.Sig = g.suite.Sign(crypto.ReplicaPrincipal(int(m.From)), m.SignedBytes())
		if g.rec.CheckNewView(m, message.KindPrepare) {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// FuzzNewView mutates an honest NEW-VIEW frame. Whatever decodes must
// not panic CheckNewView, and any frame it accepts re-issues only
// entries from the collector, at the NEW-VIEW's view, of the expected
// kind, each with its payload under its digest. The sender signs the
// mutated message as a Byzantine collector signs whatever it composes,
// so the check is tested on the entries, not on the outer signature.
func FuzzNewView(f *testing.F) {
	f.Add(message.Marshal(honestNewView()))
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := message.Unmarshal(frame)
		if err != nil || m.Validate() != nil || m.From < 0 || int(m.From) >= rigN {
			return
		}
		g := newRig(t)
		m.Sig = g.suite.Sign(crypto.ReplicaPrincipal(int(m.From)), m.SignedBytes())
		if !g.rec.CheckNewView(m, message.KindPrepare) {
			return
		}
		for _, set := range []struct {
			entries []message.Signed
			kind    message.Kind
		}{{m.Prepares, message.KindPrepare}, {m.Commits, message.KindCommit}} {
			for _, s := range set.entries {
				reqs := s.Requests()
				if s.From != m.From || s.View != m.View || s.Kind != set.kind {
					t.Fatalf("accepted %v for slot %d from %d in view %d in a NEW-VIEW from %d into view %d",
						s.Kind, s.Seq, s.From, s.View, m.From, m.View)
				}
				if len(reqs) == 0 || message.BatchDigest(reqs) != s.Digest {
					t.Fatalf("accepted slot %d with a payload not under its digest", s.Seq)
				}
			}
		}
	})
}
