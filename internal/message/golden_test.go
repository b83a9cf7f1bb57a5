package message

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/crypto"
	"repro/internal/ids"
)

// framesGolden pins the wire encoding of one frame of every kind but
// PRE-PREPARE, the one kind whose frame carries the forwarded client
// authenticators. A line changes only by hand, copied from the failure
// message, in the commit that changes the wire format on purpose.
const framesGolden = "testdata/frames.golden"

// goldenFrames is one message of every kind but PRE-PREPARE, each with
// the payload and evidence shapes its kind carries.
func goldenFrames() []*Message {
	req := &Request{Op: []byte("put k v"), Timestamp: 3, Client: 2, Sig: []byte("client-sig")}
	batch := []*Request{req, {Op: []byte("get k"), Timestamp: 4, Client: 5, Sig: []byte("s2")}}
	prop := Signed{Kind: KindPrePrepare, From: 2, View: 1, Seq: 9, Digest: BatchDigest(batch), Payload: batch, Sig: []byte("pp")}
	prep := Signed{Kind: KindPrepare, From: 3, View: 1, Seq: 9, Digest: prop.Digest, Sig: []byte("ps")}
	cp := Signed{Kind: KindCheckpoint, From: 4, Seq: 16, Digest: crypto.Sum([]byte("state")), Sig: []byte("cs")}
	tags := make([]byte, 6*crypto.TagSize)
	for i := range tags {
		tags[i] = byte(i)
	}
	return []*Message{
		{Kind: KindRequest, From: -1, Payload: []*Request{req}, Sig: tags},
		{Kind: KindPrepare, From: 0, View: 1, Seq: 9, Digest: req.Digest(), Payload: []*Request{req}, Sig: []byte("sealed")},
		{Kind: KindPrepare, From: 0, View: 1, Seq: 10, Digest: BatchDigest(batch), Payload: batch, Sig: []byte("sealed")},
		{Kind: KindAccept, From: 3, View: 1, Seq: 9, Digest: req.Digest(), Sig: tags},
		{Kind: KindCommit, From: 0, View: 1, Seq: 9, Digest: req.Digest(), Payload: []*Request{req}, Sig: []byte("sealed")},
		{Kind: KindInform, From: 4, View: 1, Seq: 9, Digest: req.Digest(), Sig: tags},
		{Kind: KindReply, From: 3, View: 1, Mode: ids.Peacock, Timestamp: 3, Client: 2, Result: []byte("ok"), Watermark: 9, Sig: tags[:crypto.TagSize]},
		{Kind: KindCheckpoint, From: 4, Seq: 16, StateDigest: cp.Digest, Sig: []byte("cs")},
		{Kind: KindViewChange, From: 3, View: 2, Seq: 16, ActiveView: 1, CheckpointProof: []Signed{cp}, Prepares: []Signed{prop}, Commits: []Signed{prep}, Sig: []byte("vc")},
		{Kind: KindNewView, From: 1, View: 2, Mode: ids.Peacock, Prepares: []Signed{prop}, Sig: []byte("nv")},
		{Kind: KindModeChange, From: 0, View: 2, Mode: ids.Dog, Sig: []byte("mc")},
		{Kind: KindStateRequest, From: 5, Seq: 16, Sig: []byte("sq")},
		{Kind: KindStateReply, From: 3, Seq: 16, StateDigest: cp.Digest, Result: []byte("snapshot"), CheckpointProof: []Signed{cp}, Prepares: []Signed{prop}, Sig: []byte("sr")},
		{Kind: KindRead, From: -1, Payload: []*Request{req}, Consistency: ConsistencyStale, Sig: tags},
	}
}

// TestGoldenFrames: outside PRE-PREPARE, every kind's frame is byte for
// byte what the golden file holds.
func TestGoldenFrames(t *testing.T) {
	f, err := os.Open(framesGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			name, frame, _ := strings.Cut(line, " ")
			want[name] = frame
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	kinds := map[Kind]bool{}
	for i, m := range goldenFrames() {
		kinds[m.Kind] = true
		name := fmt.Sprintf("%d-%v", i, m.Kind)
		if got := hex.EncodeToString(Marshal(m)); got != want[name] {
			t.Errorf("%s frame changed; if on purpose, the golden line is:\n%s %s", name, name, got)
		}
	}
	for k := Kind(1); k.Valid(); k++ {
		if !kinds[k] && k != KindPrePrepare {
			t.Errorf("no golden frame of kind %v", k)
		}
	}
}

// forwarding is a PRE-PREPARE of batch whose members carry the client
// authenticators its primary forwards.
func forwarding(batch []*Request) *Message {
	for i, r := range batch {
		r.Auth = bytes.Repeat([]byte{byte(i + 1)}, 6*crypto.TagSize)
	}
	m := &Message{Kind: KindPrePrepare, From: 2, View: 1, Seq: 9, Digest: BatchDigest(batch), Sig: []byte("sealed")}
	m.Payload = batch
	return m
}

// TestForwardedAuthenticatorsRoundTrip: a PRE-PREPARE carries one client
// authenticator per payload member, lone request or batch, and the
// decoder hands each back on its member.
func TestForwardedAuthenticatorsRoundTrip(t *testing.T) {
	for _, n := range []int{1, 3} {
		m := forwarding(batchOf(n))
		m.Requests()[n-1].Auth = nil // a relayed member forwards none
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			t.Fatalf("%d members: %v", n, err)
		}
		if !got.Equal(m) {
			t.Fatalf("%d members: the forwarded authenticators did not round-trip", n)
		}
		if m.EncodedSize() != len(Marshal(m)) {
			t.Fatalf("%d members: EncodedSize %d, encoded %d bytes", n, m.EncodedSize(), len(Marshal(m)))
		}
	}
}

// TestForwardedAuthenticatorsStayOffRecords: the authenticators ride
// only in the PRE-PREPARE frame. µ's digest, the record a replica
// journals and exports, and every other kind's frame are the same
// whether or not the members carry them.
func TestForwardedAuthenticatorsStayOffRecords(t *testing.T) {
	bare, forwarded := batchOf(3), forwarding(batchOf(3))
	if BatchDigest(bare) != forwarded.Digest {
		t.Fatal("the authenticators changed the payload digest")
	}
	s := forwarded.Record()
	withAuth := MarshalSigned(s)
	s.Payload = bare
	if !bytes.Equal(withAuth, MarshalSigned(s)) {
		t.Fatal("MarshalSigned of a proposal depends on its members' authenticators")
	}
	vc := &Message{Kind: KindViewChange, From: 3, View: 2, Prepares: []Signed{*forwarded.Record()}}
	plain := *vc
	plain.Prepares = []Signed{*s}
	if !bytes.Equal(Marshal(vc), Marshal(&plain)) {
		t.Fatal("a VIEW-CHANGE carries its evidence's authenticators")
	}
	for _, kind := range []Kind{KindPrepare, KindCommit} {
		m := *forwarded
		m.Kind = kind
		p := m
		p.Payload = bare
		if !bytes.Equal(Marshal(&m), Marshal(&p)) {
			t.Fatalf("a %v frame carries its members' authenticators", kind)
		}
	}
}

// TestForwardedAuthenticatorCount: a PRE-PREPARE whose authenticator
// count is not its member count is refused.
func TestForwardedAuthenticatorCount(t *testing.T) {
	m := forwarding(batchOf(2))
	frame := Marshal(m)
	// The count sits behind Sig; the two authenticators follow it.
	at := len(frame) - 2*(4+6*crypto.TagSize) - 4
	if binary.LittleEndian.Uint32(frame[at:]) != 2 {
		t.Fatal("the test lost the count's offset")
	}
	for _, n := range []uint32{0, 1, 3, 1 << 31} {
		bad := bytes.Clone(frame)
		binary.LittleEndian.PutUint32(bad[at:], n)
		if _, err := Unmarshal(bad); err == nil {
			t.Errorf("a count of %d for 2 members was accepted", n)
		}
	}
	// One authenticator fewer, with the count to match it, is refused too.
	short := bytes.Clone(frame[:len(frame)-(4+6*crypto.TagSize)])
	binary.LittleEndian.PutUint32(short[at:], 1)
	if _, err := Unmarshal(short); err == nil {
		t.Error("a single authenticator for 2 members was accepted")
	}
}
