package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/transport"
)

// record is a Signed evidence record for slot seq over reqs, signed by
// from in view v.
func record(suite crypto.Suite, kind message.Kind, from ids.ReplicaID, v ids.View, seq uint64, reqs ...*message.Request) message.Signed {
	s := message.Signed{Kind: kind, From: from, View: v, Seq: seq, Digest: message.BatchDigest(reqs)}
	s.Payload = reqs
	s.Sig = suite.Sign(crypto.ReplicaPrincipal(int(from)), s.SignedBytes())
	return s
}

// vote is from's signed PREPARE vote for prop, without payload.
func vote(suite crypto.Suite, from ids.ReplicaID, prop message.Signed) message.Signed {
	s := message.Signed{Kind: message.KindPrepare, From: from, View: prop.View, Seq: prop.Seq, Digest: prop.Digest}
	s.Sig = suite.Sign(crypto.ReplicaPrincipal(int(from)), s.SignedBytes())
	return s
}

// viewChange is from's signed VIEW-CHANGE into target reporting the
// proposals P and the certificates C, as it reaches the collector.
func viewChange(suite crypto.Suite, from ids.ReplicaID, target ids.View, mode ids.Mode, p, c []message.Signed) transport.Envelope {
	m := &message.Message{Kind: message.KindViewChange, From: from, View: target, Mode: mode, Prepares: p, Commits: c}
	m.Sig = suite.Sign(crypto.ReplicaPrincipal(int(from)), m.SignedBytes())
	return transport.Envelope{From: transport.ReplicaAddr(from), Frame: message.Marshal(m)}
}

// sentNewView returns the one NEW-VIEW a collector sent.
func sentNewView(t *testing.T, net *captureNet) *message.Message {
	t.Helper()
	var out *message.Message
	for _, m := range net.sent {
		if m.Kind == message.KindNewView {
			if out != nil && out.View == m.View {
				continue // the same NEW-VIEW, multicast to another replica
			}
			if out != nil {
				t.Fatalf("NEW-VIEWs for views %d and %d", out.View, m.View)
			}
			out = m
		}
	}
	if out == nil {
		t.Fatal("the collector sent no NEW-VIEW")
	}
	return out
}

// reissued lists a NEW-VIEW's entries as "KIND seq digest", committed
// entries first.
func reissued(m *message.Message) []string {
	var out []string
	for _, set := range [][]message.Signed{m.Commits, m.Prepares} {
		for _, s := range set {
			out = append(out, entryString(s.Kind, s.Seq, s.Digest))
		}
	}
	return out
}

func entryString(kind message.Kind, seq uint64, d crypto.Digest) string {
	return fmt.Sprintf("%v %d %x", kind, seq, d[:4])
}

// TestNewViewSelection pins which entry a collector re-issues for each
// slot, driving it with signed VIEW-CHANGE frames only and reading its
// NEW-VIEW off the wire.
func TestNewViewSelection(t *testing.T) {
	mb := baseMembership()
	suite := crypto.NewEd25519Suite(91, mb.N(), 4)
	a, b, c := makeRequest(t, suite, 0, 1), makeRequest(t, suite, 1, 1), makeRequest(t, suite, 2, 1)
	noop := (&message.Request{Client: -1}).Digest()
	lo, hi := a, b
	if dl, dh := lo.Digest(), hi.Digest(); bytes.Compare(dl[:], dh[:]) > 0 {
		lo, hi = hi, lo
	}
	prep := func(from ids.ReplicaID, v ids.View, seq uint64, req *message.Request) message.Signed {
		return record(suite, message.KindPrepare, from, v, seq, req)
	}
	pre := func(from ids.ReplicaID, v ids.View, seq uint64, req *message.Request) message.Signed {
		return record(suite, message.KindPrePrepare, from, v, seq, req)
	}
	peacockA, peacockB := pre(2, 0, 1, a), pre(3, 1, 1, b)
	type report struct {
		from ids.ReplicaID
		p, c []message.Signed
	}
	for _, tc := range []struct {
		name      string
		mode      ids.Mode
		target    ids.View
		collector ids.ReplicaID
		// first is a proposal the collector logs before the view change.
		first   *message.Signed
		reports []report
		want    []string
	}{{
		name: "a Lion commit certificate", mode: ids.Lion, target: 1, collector: 1,
		reports: []report{
			{2, []message.Signed{prep(0, 0, 1, a)}, []message.Signed{record(suite, message.KindCommit, 0, 0, 1, a)}},
			{3, nil, nil}, {4, nil, nil},
		},
		want: []string{entryString(message.KindCommit, 1, a.Digest())},
	}, {
		name: "Lion agreement-quorum reporters are re-issued as a COMMIT", mode: ids.Lion, target: 1, collector: 1,
		first: ptr(prep(0, 0, 1, a)),
		reports: []report{
			{2, []message.Signed{prep(0, 0, 1, a)}, nil},
			{3, []message.Signed{prep(0, 0, 1, a)}, nil},
			{4, []message.Signed{prep(0, 0, 1, a)}, nil},
		},
		want: []string{entryString(message.KindCommit, 1, a.Digest())},
	}, {
		name: "Lion re-issues the best unprepared proposal and fills holes", mode: ids.Lion, target: 2, collector: 0,
		reports: []report{
			{2, []message.Signed{prep(0, 0, 1, a)}, nil},
			{3, []message.Signed{prep(1, 1, 1, b)}, nil},
			{4, []message.Signed{prep(1, 1, 3, c)}, nil},
		},
		want: []string{
			entryString(message.KindPrepare, 1, b.Digest()),
			entryString(message.KindPrepare, 2, noop),
			entryString(message.KindPrepare, 3, c.Digest()),
		},
	}, {
		name: "Dog re-issues an unprepared proposal", mode: ids.Dog, target: 1, collector: 1,
		reports: []report{
			{2, []message.Signed{prep(0, 0, 1, a)}, nil},
			{3, nil, nil}, {4, nil, nil},
		},
		want: []string{entryString(message.KindPrepare, 1, a.Digest())},
	}, {
		name: "a Peacock prepared certificate beats a higher-view unprepared proposal", mode: ids.Peacock, target: 2, collector: 0,
		reports: []report{
			{3, []message.Signed{peacockA}, []message.Signed{vote(suite, 3, peacockA), vote(suite, 4, peacockA)}},
			{4, []message.Signed{peacockB}, nil},
			{5, nil, nil},
		},
		want: []string{entryString(message.KindPrePrepare, 1, a.Digest())},
	}, {
		name: "an equal-view tie breaks on digest bytes", mode: ids.Lion, target: 1, collector: 1,
		reports: []report{
			{2, []message.Signed{prep(0, 0, 1, hi)}, nil},
			{3, []message.Signed{prep(0, 0, 1, lo)}, nil},
			{4, nil, nil},
		},
		want: []string{entryString(message.KindPrepare, 1, lo.Digest())},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			net := &captureNet{}
			r := loneReplica(t, tc.mode, tc.collector, crypto.Restrict(suite, crypto.ReplicaPrincipal(int(tc.collector))), net, nil)
			if tc.first != nil {
				s := *tc.first
				frame := sealedFrame(suite, s.From, tc.collector, s, s.Sig)
				r.StepEnvelope(transport.Envelope{From: transport.ReplicaAddr(s.From), Frame: frame})
			}
			for _, rep := range tc.reports {
				r.StepEnvelope(viewChange(suite, rep.from, tc.target, tc.mode, rep.p, rep.c))
			}
			nv := sentNewView(t, net)
			if nv.View != tc.target || nv.From != tc.collector {
				t.Fatalf("NEW-VIEW from %d into view %d, want from %d into %d", nv.From, nv.View, tc.collector, tc.target)
			}
			if got := reissued(nv); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("re-issued %v, want %v", got, tc.want)
			}
		})
	}
}

func ptr(s message.Signed) *message.Signed { return &s }
