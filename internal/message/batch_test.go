package message

import (
	"bytes"
	"testing"

	"repro/internal/ids"
)

func batchOf(n int) []*Request {
	out := make([]*Request, n)
	for i := range out {
		out[i] = &Request{
			Op:        []byte{byte(i), 'o', 'p'},
			Timestamp: uint64(i + 1),
			Client:    ids.ClientID(i % 3),
			Sig:       []byte{byte(i), 9},
		}
	}
	return out
}

func TestBatchDigestSingleMatchesRequestDigest(t *testing.T) {
	r := sampleRequest()
	if BatchDigest([]*Request{r}) != r.Digest() {
		t.Fatal("single-request batch digest must equal D(µ)")
	}
}

func TestBatchDigestOrderSensitive(t *testing.T) {
	b := batchOf(3)
	d1 := BatchDigest(b)
	swapped := []*Request{b[1], b[0], b[2]}
	if d1 == BatchDigest(swapped) {
		t.Fatal("batch digest must bind request order")
	}
	if d1 == BatchDigest(b[:2]) {
		t.Fatal("batch digest must bind the member count")
	}
}

func TestBatchMessageRoundTrip(t *testing.T) {
	b := batchOf(4)
	m := &Message{
		Kind:    KindPrepare,
		From:    1,
		View:    2,
		Seq:     9,
		Digest:  BatchDigest(b),
		Payload: b,
		Sig:     []byte{1, 2},
	}
	got, err := Unmarshal(Marshal(m))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("batched message did not round-trip")
	}
	if len(got.Payload) != 4 {
		t.Fatalf("payload shape lost: %d members", len(got.Payload))
	}
}

func TestBatchSignedSetRoundTrip(t *testing.T) {
	b := batchOf(2)
	s := Signed{Kind: KindPrePrepare, From: 2, View: 1, Seq: 4, Digest: BatchDigest(b), Payload: b, Sig: []byte{3}}
	m := &Message{Kind: KindNewView, From: 0, View: 1, Prepares: []Signed{s}, Sig: []byte{1}}
	got, err := Unmarshal(Marshal(m))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("signed batch evidence did not round-trip")
	}
}

// TestPayloadCountBytes pins the payload encoding: an empty payload is
// the one byte 00, a lone request is 01 followed by MarshalRequest's
// request bytes (so D(µ) digests exactly what the frame carries), and a
// set of n members adds one uvarint count and nothing per member.
func TestPayloadCountBytes(t *testing.T) {
	const at = 1 + 1 + 8 + 8 + 8 + 32 + 1 // version, Kind .. Mode
	bare := &Message{Kind: KindPrepare, From: 1, View: 2, Seq: 3, Sig: []byte{7}}
	empty := Marshal(bare)
	if empty[at] != 0 {
		t.Fatalf("empty payload encodes as %x, want 00", empty[at])
	}
	r := sampleRequest()
	m := *bare
	m.Payload = []*Request{r}
	if got, want := Marshal(&m)[at:at+1+sizeRequest(r)], MarshalRequest(r); !bytes.Equal(got, want) {
		t.Fatalf("lone request encodes as %x, want %x", got, want)
	}
	for _, n := range []int{1, 2, 127, 128, MaxBatch} {
		m.Payload = batchOf(n)
		want := len(empty) + uvarintLen(uint64(n)) - 1
		for _, r := range m.Payload {
			want += sizeRequest(r)
		}
		if got := len(Marshal(&m)); got != want {
			t.Errorf("%d members: %d bytes, want %d", n, got, want)
		}
	}
}

func TestValidateRejectsMalformedBatches(t *testing.T) {
	b := batchOf(2)
	nilMember := &Message{Kind: KindPrepare, From: 0, Payload: []*Request{b[0], nil}}
	if nilMember.Validate() == nil {
		t.Error("nil batch member must be rejected")
	}
	for _, kind := range []Kind{KindRequest, KindRead} {
		for _, reqs := range [][]*Request{nil, b} {
			m := &Message{Kind: kind, From: -1, Payload: reqs}
			if m.Validate() == nil {
				t.Errorf("%v with %d requests accepted", kind, len(reqs))
			}
		}
	}
	ok := &Message{Kind: KindPrepare, From: 0, Digest: BatchDigest(b), Payload: b}
	if err := ok.Validate(); err != nil {
		t.Errorf("well-formed batch rejected: %v", err)
	}
}

// TestDecodeRejectsHostileBatches: every malformed payload in
// refusedFrames is refused (by the decoder, or for a REQUEST's member
// count by Validate), never panicking or allocating by a hostile count.
func TestDecodeRejectsHostileBatches(t *testing.T) {
	for _, c := range refusedFrames() {
		m, err := Unmarshal(c.frame)
		switch {
		case err != nil && c.validate:
			t.Errorf("%s: the decoder refused it (%v); Validate should", c.name, err)
		case err == nil && !c.validate:
			t.Errorf("%s: decoded", c.name)
		case err == nil && m.Validate() == nil:
			t.Errorf("%s: passed Validate", c.name)
		}
	}
}
