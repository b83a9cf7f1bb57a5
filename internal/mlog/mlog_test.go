package mlog

import (
	"testing"
	"testing/quick"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
)

func dig(s string) crypto.Digest { return crypto.Sum([]byte(s)) }

func TestNewPanicsOnZeroWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window accepted")
		}
	}()
	New(0)
}

func TestWindowBounds(t *testing.T) {
	l := New(10)
	if l.Low() != 0 || l.High() != 10 {
		t.Fatalf("fresh log watermarks [%d, %d], want [0, 10]", l.Low(), l.High())
	}
	if l.InWindow(0) {
		t.Error("seq 0 (the genesis checkpoint) must be out of window")
	}
	if !l.InWindow(1) || !l.InWindow(10) {
		t.Error("seq 1 and 10 must be admissible")
	}
	if l.InWindow(11) {
		t.Error("seq beyond high watermark admissible")
	}
	if l.Entry(0) != nil || l.Entry(11) != nil {
		t.Error("Entry outside window must return nil")
	}
	if l.Peek(5) != nil {
		t.Error("Peek must not create slots")
	}
	e := l.Entry(5)
	if e == nil || e.Seq() != 5 {
		t.Fatal("Entry(5) failed")
	}
	if l.Peek(5) != e {
		t.Error("Peek should return the created slot")
	}
	if l.Entry(5) != e {
		t.Error("Entry must be idempotent")
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d, want 1", l.Len())
	}
}

func TestProposalEquivocationRejected(t *testing.T) {
	l := New(100)
	e := l.Entry(1)
	p1 := &message.Signed{Kind: message.KindPrepare, From: 0, View: 2, Seq: 1, Digest: dig("a")}
	if err := e.SetProposal(p1); err != nil {
		t.Fatal(err)
	}
	// Identical retransmission is fine.
	if err := e.SetProposal(p1); err != nil {
		t.Fatalf("retransmission rejected: %v", err)
	}
	// Conflicting digest in the same view is equivocation.
	p2 := &message.Signed{Kind: message.KindPrepare, From: 0, View: 2, Seq: 1, Digest: dig("b")}
	if err := e.SetProposal(p2); err == nil {
		t.Fatal("equivocating proposal accepted")
	}
	// Older view is stale.
	p0 := &message.Signed{Kind: message.KindPrepare, From: 0, View: 1, Seq: 1, Digest: dig("c")}
	if err := e.SetProposal(p0); err == nil {
		t.Fatal("stale-view proposal accepted")
	}
	// Newer view replaces (view change re-issues the slot).
	p3 := &message.Signed{Kind: message.KindPrepare, From: 1, View: 3, Seq: 1, Digest: dig("d")}
	if err := e.SetProposal(p3); err != nil {
		t.Fatal(err)
	}
	if e.Proposal().Digest != dig("d") {
		t.Error("newer-view proposal did not replace")
	}
}

func TestProposalKeepsRicherCopy(t *testing.T) {
	l := New(10)
	e := l.Entry(1)
	req := &message.Request{Op: []byte("op"), Timestamp: 1, Client: 2}
	bare := &message.Signed{Kind: message.KindPrepare, View: 1, Seq: 1, Digest: dig("a")}
	full := &message.Signed{Kind: message.KindPrepare, View: 1, Seq: 1, Digest: dig("a"), Request: req}
	if err := e.SetProposal(bare); err != nil {
		t.Fatal(err)
	}
	if err := e.SetProposal(full); err != nil {
		t.Fatal(err)
	}
	if e.Request() == nil {
		t.Fatal("request-carrying duplicate should upgrade the stored proposal")
	}
	// And a later bare copy must not downgrade it.
	if err := e.SetProposal(bare); err != nil {
		t.Fatal(err)
	}
	if e.Request() == nil {
		t.Fatal("bare duplicate downgraded the stored proposal")
	}
}

func TestVoteAccounting(t *testing.T) {
	l := New(100)
	e := l.Entry(3)
	d := dig("x")

	if !e.AddVote(message.KindAccept, 1, 2, d) {
		t.Fatal("first vote not new")
	}
	if e.AddVote(message.KindAccept, 1, 2, d) {
		t.Fatal("duplicate vote reported new")
	}
	// Same replica, different digest, same kind+view: first vote wins.
	if e.AddVote(message.KindAccept, 1, 2, dig("y")) {
		t.Fatal("double vote accepted")
	}
	if got := e.VoteCount(message.KindAccept, 1, d); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	e.AddVote(message.KindAccept, 1, 3, d)
	e.AddVote(message.KindAccept, 1, 4, d)
	if got := e.VoteCount(message.KindAccept, 1, d); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	// Other view and kind are independent.
	if got := e.VoteCount(message.KindAccept, 2, d); got != 0 {
		t.Fatalf("other-view count = %d", got)
	}
	if got := e.VoteCount(message.KindCommit, 1, d); got != 0 {
		t.Fatalf("other-kind count = %d", got)
	}
	for from, want := range map[ids.ReplicaID]bool{2: true, 3: true, 4: true, 5: false} {
		if got := e.Voted(message.KindAccept, 1, from, d); got != want {
			t.Errorf("Voted(%d) = %v, want %v", from, got, want)
		}
	}
	if e.Voted(message.KindAccept, 1, 2, dig("y")) || e.Voted(message.KindAccept, 2, 2, d) || e.Voted(message.KindCommit, 1, 2, d) {
		t.Error("a vote counts for another digest, view or kind")
	}
}

func TestCommitExecuteFlags(t *testing.T) {
	l := New(10)
	e := l.Entry(1)
	if e.Committed() || e.Executed() {
		t.Fatal("fresh entry has status flags set")
	}
	e.MarkCommitted()
	e.MarkCommitted()
	if !e.Committed() {
		t.Fatal("MarkCommitted lost")
	}
	e.MarkExecuted()
	if !e.Executed() {
		t.Fatal("MarkExecuted lost")
	}
}

func TestCheckpointVotesAndStability(t *testing.T) {
	l := New(10)
	d := dig("state@5")
	if n := l.AddCheckpointVote(5, 0, d); n != 1 {
		t.Fatalf("first vote count %d", n)
	}
	if n := l.AddCheckpointVote(5, 0, d); n != 1 {
		t.Fatalf("duplicate vote count %d", n)
	}
	if n := l.AddCheckpointVote(5, 1, dig("other")); n != 1 {
		t.Fatalf("mismatched digest count %d", n)
	}
	if n := l.AddCheckpointVote(5, 2, d); n != 2 {
		t.Fatalf("second vote count %d", n)
	}

	// Populate slots 1..8, stabilize at 5, expect 1..5 pruned.
	for s := uint64(1); s <= 8; s++ {
		l.Entry(s)
	}
	proof := []message.Signed{{Kind: message.KindCheckpoint, From: 0, Seq: 5, Digest: d}}
	pruned := l.MarkStable(5, d, proof, []byte("snapshot"))
	if pruned != 5 {
		t.Fatalf("pruned %d slots, want 5", pruned)
	}
	if l.Low() != 5 || l.High() != 15 {
		t.Fatalf("watermarks [%d, %d], want [5, 15]", l.Low(), l.High())
	}
	if l.Peek(5) != nil || l.InWindow(5) {
		t.Error("stabilized slot still admissible")
	}
	if l.Peek(6) == nil {
		t.Error("slot above checkpoint pruned")
	}
	if l.StableDigest() != d {
		t.Error("stable digest lost")
	}
	if got := l.StableProof(); len(got) != 1 || got[0].Seq != 5 {
		t.Errorf("stable proof = %v", got)
	}
	if string(l.StableSnapshot()) != "snapshot" {
		t.Error("stable snapshot lost")
	}
	// Checkpoint votes at or below 5 are now ignored.
	if n := l.AddCheckpointVote(5, 3, d); n != 0 {
		t.Errorf("vote below stable accepted: %d", n)
	}
	// Moving backwards is a no-op.
	if n := l.MarkStable(3, dig("old"), nil, nil); n != 0 {
		t.Errorf("backward MarkStable pruned %d", n)
	}
	if l.Low() != 5 {
		t.Error("backward MarkStable moved the watermark")
	}
}

func TestStableProofAndSnapshotAreCopies(t *testing.T) {
	l := New(10)
	proof := []message.Signed{{Seq: 1}}
	snap := []byte{1, 2, 3}
	l.MarkStable(1, dig("d"), proof, snap)
	proof[0].Seq = 99
	snap[0] = 99
	if l.StableProof()[0].Seq != 1 {
		t.Error("MarkStable aliases caller's proof slice")
	}
	if l.StableSnapshot()[0] != 1 {
		t.Error("MarkStable aliases caller's snapshot")
	}
	got := l.StableProof()
	got[0].Seq = 42
	if l.StableProof()[0].Seq != 1 {
		t.Error("StableProof returns aliased storage")
	}
}

func TestProposalsAndCommitCertsAbove(t *testing.T) {
	l := New(100)
	for _, s := range []uint64{3, 1, 7} {
		e := l.Entry(s)
		if err := e.SetProposal(&message.Signed{Kind: message.KindPrepare, View: 1, Seq: s, Digest: dig("p")}); err != nil {
			t.Fatal(err)
		}
	}
	l.Entry(9) // slot without proposal: must not appear
	e := l.Entry(3)
	e.SetCommitCert(&message.Signed{Kind: message.KindCommit, View: 1, Seq: 3, Digest: dig("p")})

	ps := l.ProposalsAbove()
	if len(ps) != 3 || ps[0].Seq != 1 || ps[1].Seq != 3 || ps[2].Seq != 7 {
		t.Fatalf("ProposalsAbove = %v", ps)
	}
	cs := l.CommitCertsAbove()
	if len(cs) != 1 || cs[0].Seq != 3 {
		t.Fatalf("CommitCertsAbove = %v", cs)
	}

	// After stabilizing at 3, only seq 7 remains.
	l.MarkStable(3, dig("d"), nil, nil)
	ps = l.ProposalsAbove()
	if len(ps) != 1 || ps[0].Seq != 7 {
		t.Fatalf("post-GC ProposalsAbove = %v", ps)
	}
	if len(l.CommitCertsAbove()) != 0 {
		t.Fatal("post-GC commit certs should be empty")
	}
}

// Property: watermarks are monotone and GC never leaves a slot at or
// below the stable checkpoint, under arbitrary interleavings of slot
// creation and stabilization.
func TestWatermarkMonotoneProperty(t *testing.T) {
	prop := func(steps []uint16) bool {
		l := New(64)
		for _, s := range steps {
			seq := uint64(s % 128)
			switch s % 3 {
			case 0, 1:
				l.Entry(seq) // may be nil; fine
			case 2:
				before := l.Low()
				l.MarkStable(seq, dig("d"), nil, nil)
				if l.Low() < before {
					return false
				}
			}
			// Invariant: no live slot at or below the low watermark.
			for n := uint64(0); n <= l.Low(); n++ {
				if l.Peek(n) != nil {
					return false
				}
			}
			if l.High() != l.Low()+64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: vote counts never exceed the number of distinct voters.
func TestVoteCountBoundedProperty(t *testing.T) {
	prop := func(votes []uint8) bool {
		l := New(10)
		e := l.Entry(1)
		d := dig("d")
		distinct := map[ids.ReplicaID]bool{}
		for _, v := range votes {
			from := ids.ReplicaID(v % 7)
			if e.AddVote(message.KindAccept, 1, from, d) {
				distinct[from] = true
			}
		}
		return e.VoteCount(message.KindAccept, 1, d) == len(distinct)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVoteCertificates(t *testing.T) {
	l := New(100)
	e := l.Entry(4)
	d := dig("x")
	s1 := &message.Signed{Kind: message.KindPrepare, From: 2, View: 1, Seq: 4, Digest: d, Sig: []byte{1}}
	s2 := &message.Signed{Kind: message.KindPrepare, From: 3, View: 1, Seq: 4, Digest: d, Sig: []byte{2}}

	if !e.AddVoteCert(s1) {
		t.Fatal("first cert not new")
	}
	if e.AddVoteCert(s1) {
		t.Fatal("duplicate cert reported new")
	}
	// The cert path shares dedup with AddVote: a prior plain vote blocks
	// a conflicting cert from the same replica.
	if e.AddVoteCert(&message.Signed{Kind: message.KindPrepare, From: 2, View: 1, Seq: 4, Digest: dig("other")}) {
		t.Fatal("double-vote cert accepted")
	}
	e.AddVoteCert(s2)

	certs := e.VoteCerts(message.KindPrepare, 1, d)
	if len(certs) != 2 || certs[0].From != 2 || certs[1].From != 3 {
		t.Fatalf("certs = %+v", certs)
	}
	// Requests are stripped from stored certificates.
	withReq := &message.Signed{
		Kind: message.KindPrepare, From: 4, View: 1, Seq: 4, Digest: d,
		Request: &message.Request{Op: []byte("x")},
	}
	e.AddVoteCert(withReq)
	for _, c := range e.VoteCerts(message.KindPrepare, 1, d) {
		if c.Request != nil {
			t.Fatal("certificate kept the request body")
		}
	}
	// Other view/digest/kind filtered out.
	if got := e.VoteCerts(message.KindPrepare, 2, d); len(got) != 0 {
		t.Fatalf("other-view certs = %v", got)
	}
	if got := e.VoteCerts(message.KindCommit, 1, d); len(got) != 0 {
		t.Fatalf("other-kind certs = %v", got)
	}
}

func TestCheckpointCertificates(t *testing.T) {
	l := New(10)
	d := dig("cp")
	c1 := message.Signed{Kind: message.KindCheckpoint, From: 1, Seq: 4, Digest: d, Sig: []byte{1}}
	c2 := message.Signed{Kind: message.KindCheckpoint, From: 2, Seq: 4, Digest: d, Sig: []byte{2}}
	if n := l.AddCheckpointCert(c1); n != 1 {
		t.Fatalf("count = %d", n)
	}
	if n := l.AddCheckpointCert(c1); n != 1 {
		t.Fatalf("duplicate count = %d", n)
	}
	if n := l.AddCheckpointCert(c2); n != 2 {
		t.Fatalf("count = %d", n)
	}
	// Disagreeing digest from replica 3 does not join the certificate.
	l.AddCheckpointCert(message.Signed{Kind: message.KindCheckpoint, From: 3, Seq: 4, Digest: dig("bad")})
	certs := l.CheckpointCerts(4, d)
	if len(certs) != 2 || certs[0].From != 1 || certs[1].From != 2 {
		t.Fatalf("certs = %+v", certs)
	}
	if got := l.CheckpointCerts(9, d); got != nil {
		t.Fatalf("certs for unknown seq = %v", got)
	}
	// Below the stable checkpoint: ignored.
	l.MarkStable(5, d, nil, nil)
	if n := l.AddCheckpointCert(c1); n != 0 {
		t.Fatalf("cert below stable accepted: %d", n)
	}
}
