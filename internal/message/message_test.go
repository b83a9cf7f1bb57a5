package message

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/crypto"
	"repro/internal/ids"
)

func sampleRequest() *Request {
	return &Request{
		Op:        []byte("put k1 v1"),
		Timestamp: 42,
		Client:    7,
		Sig:       []byte{1, 2, 3},
	}
}

func sampleMessage() *Message {
	req := sampleRequest()
	return &Message{
		Kind:        KindPrepare,
		From:        1,
		View:        3,
		Seq:         17,
		Digest:      req.Digest(),
		Mode:        ids.Dog,
		Payload:     []*Request{req},
		Result:      []byte("ok"),
		Timestamp:   42,
		Client:      7,
		StateDigest: crypto.Sum([]byte("state")),
		CheckpointProof: []Signed{{
			Kind: KindCheckpoint, From: 0, View: 2, Seq: 10,
			Digest: crypto.Sum([]byte("cp")), Sig: []byte{9},
		}},
		Prepares: []Signed{{
			Kind: KindPrepare, From: 0, View: 2, Seq: 16,
			Digest: crypto.Sum([]byte("p")), Payload: []*Request{sampleRequest()}, Sig: []byte{8},
		}},
		Commits: []Signed{{
			Kind: KindCommit, From: 0, View: 2, Seq: 15,
			Digest: crypto.Sum([]byte("c")), Sig: []byte{7},
		}},
		Sig: []byte{5, 5, 5},
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindRequest:    "REQUEST",
		KindPrePrepare: "PRE-PREPARE",
		KindPrepare:    "PREPARE",
		KindAccept:     "ACCEPT",
		KindCommit:     "COMMIT",
		KindInform:     "INFORM",
		KindReply:      "REPLY",
		KindCheckpoint: "CHECKPOINT",
		KindViewChange: "VIEW-CHANGE",
		KindNewView:    "NEW-VIEW",
		KindModeChange: "MODE-CHANGE",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("Kind %d = %q, want %q", k, k.String(), name)
		}
		if !k.Valid() {
			t.Errorf("kind %s should be valid", name)
		}
	}
	if KindInvalid.Valid() || Kind(200).Valid() {
		t.Error("invalid kinds reported valid")
	}
	if Kind(200).String() != "Kind(200)" {
		t.Error("unknown kind formatting wrong")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	m := sampleMessage()
	frame := Marshal(m)
	got, err := Unmarshal(frame)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !got.Equal(m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
	if !reflect.DeepEqual(got.Prepares[0].Payload, m.Prepares[0].Payload) {
		t.Error("nested request in signed set lost")
	}
}

func TestMarshalEmptyMessage(t *testing.T) {
	m := &Message{Kind: KindAccept, From: 2, View: 1, Seq: 9}
	got, err := Unmarshal(Marshal(m))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
	if got.Payload != nil || got.Prepares != nil || got.Commits != nil {
		t.Error("empty fields should decode as nil")
	}
}

func TestMarshalDeterministic(t *testing.T) {
	m := sampleMessage()
	if !bytes.Equal(Marshal(m), Marshal(m)) {
		t.Fatal("Marshal is not deterministic")
	}
}

func TestUnmarshalHostileInput(t *testing.T) {
	// Truncations of a valid frame must error, never panic.
	frame := Marshal(sampleMessage())
	for n := 0; n < len(frame); n++ {
		if _, err := Unmarshal(frame[:n]); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
	// Trailing garbage rejected.
	if _, err := Unmarshal(append(append([]byte{}, frame...), 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Wrong version rejected.
	bad := append([]byte{}, frame...)
	bad[0] = 99
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("wrong wire version accepted")
	}
	// Absurd length prefix must not allocate/crash.
	var e encoder
	e.u8(wireVersion)
	e.u8(uint8(KindRequest))
	e.i64(-1)
	e.u64(0)
	e.u64(0)
	e.digest(crypto.Digest{})
	e.u8(0)
	e.u8(1)           // one request
	e.u32(0xFFFFFFFF) // hostile op length
	e.u64(0)          // the rest of a request, so the count fits the frame
	e.u64(0)
	e.u32(0)
	if _, err := Unmarshal(e.buf); err == nil {
		t.Fatal("hostile length prefix accepted")
	}
}

func TestUnmarshalRandomBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		frame := make([]byte, rng.Intn(200))
		rng.Read(frame)
		_, _ = Unmarshal(frame) // must not panic; error is fine
	}
}

func TestRequestDigestBindsAllFields(t *testing.T) {
	base := sampleRequest()
	variants := []*Request{
		{Op: []byte("put k1 v2"), Timestamp: 42, Client: 7, Sig: base.Sig},
		{Op: base.Op, Timestamp: 43, Client: 7, Sig: base.Sig},
		{Op: base.Op, Timestamp: 42, Client: 8, Sig: base.Sig},
	}
	for i, v := range variants {
		if v.Digest() == base.Digest() {
			t.Errorf("variant %d digest collides with base", i)
		}
	}
	if base.Digest() != sampleRequest().Digest() {
		t.Error("digest not deterministic")
	}
}

func TestRequestSignedBytesExcludeSig(t *testing.T) {
	a := sampleRequest()
	b := sampleRequest()
	b.Sig = []byte("different")
	if !bytes.Equal(a.SignedBytes(), b.SignedBytes()) {
		t.Fatal("SignedBytes must not cover the signature itself")
	}
}

func TestMessageSignedBytesBindFields(t *testing.T) {
	m := sampleMessage()
	base := m.SignedBytes()

	mutations := []func(*Message){
		func(m *Message) { m.Kind = KindCommit },
		func(m *Message) { m.From = 2 },
		func(m *Message) { m.View = 4 },
		func(m *Message) { m.Seq = 18 },
		func(m *Message) { m.Digest = crypto.Sum([]byte("other")) },
		func(m *Message) { m.Mode = ids.Peacock },
		func(m *Message) { m.Timestamp = 1 },
		func(m *Message) { m.Client = 8 },
		func(m *Message) { m.StateDigest = crypto.Sum([]byte("s2")) },
		func(m *Message) { m.Result = []byte("different result") },
		func(m *Message) { m.Prepares[0].Seq = 99 },
		func(m *Message) { m.Commits[0].Seq = 99 },
		func(m *Message) { m.CheckpointProof[0].Seq = 99 },
	}
	for i, mutate := range mutations {
		mm, err := Unmarshal(Marshal(m)) // deep copy
		if err != nil {
			t.Fatal(err)
		}
		mutate(mm)
		if bytes.Equal(mm.SignedBytes(), base) {
			t.Errorf("mutation %d not covered by signature bytes", i)
		}
	}
	// The signature field itself must not be covered.
	mm, _ := Unmarshal(Marshal(m))
	mm.Sig = []byte("x")
	if !bytes.Equal(mm.SignedBytes(), base) {
		t.Error("SignedBytes covers Sig; re-signing would be impossible")
	}
}

func TestSignedSignedBytes(t *testing.T) {
	s := Signed{Kind: KindPrepare, From: 1, View: 2, Seq: 3, Digest: crypto.Sum([]byte("x"))}
	a := s.SignedBytes()
	s.Payload = []*Request{sampleRequest()} // µ travels outside the signature
	if !bytes.Equal(a, s.SignedBytes()) {
		t.Error("attached request changed signed bytes; paper signs 〈PREPARE,v,n,d〉 only")
	}
	s.Seq = 4
	if bytes.Equal(a, s.SignedBytes()) {
		t.Error("sequence number not bound")
	}
}

func TestValidate(t *testing.T) {
	valid := []*Message{
		{Kind: KindRequest, From: -1, Payload: []*Request{sampleRequest()}},
		{Kind: KindPrepare, From: 0},
		{Kind: KindPrePrepare, From: 2},
		{Kind: KindAccept, From: 1},
		{Kind: KindCommit, From: 1},
		{Kind: KindInform, From: 3},
		{Kind: KindReply, From: 1, Client: 4, Mode: ids.Lion},
		{Kind: KindCheckpoint, From: 0},
		{Kind: KindViewChange, From: 1, View: 1},
		{Kind: KindNewView, From: 0, View: 1},
		{Kind: KindModeChange, From: 0, View: 2, Mode: ids.Peacock},
	}
	for _, m := range valid {
		if err := m.Validate(); err != nil {
			t.Errorf("%s unexpectedly invalid: %v", m.Kind, err)
		}
	}
	invalid := []*Message{
		{Kind: KindInvalid},
		{Kind: Kind(99)},
		{Kind: KindRequest}, // no body
		{Kind: KindPrepare, From: -1},
		{Kind: KindAccept, From: -1},
		{Kind: KindCommit, From: -1},
		{Kind: KindInform, From: -1},
		{Kind: KindReply, From: 1, Client: -1, Mode: ids.Lion},
		{Kind: KindReply, From: 1, Client: 1, Mode: ids.Mode(9)},
		{Kind: KindCheckpoint, From: -1},
		{Kind: KindViewChange, From: 1, View: 0},
		{Kind: KindViewChange, From: -1, View: 1},
		{Kind: KindNewView, From: 0, View: 0},
		{Kind: KindModeChange, From: -1, View: 1, Mode: ids.Dog},
		{Kind: KindModeChange, From: 0, View: 1, Mode: ids.Mode(9)},
	}
	for _, m := range invalid {
		if err := m.Validate(); err == nil {
			t.Errorf("%+v unexpectedly valid", m)
		}
	}
}

func TestRequestMarshalRoundTrip(t *testing.T) {
	r := sampleRequest()
	got, err := UnmarshalRequest(MarshalRequest(r))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
	if _, err := UnmarshalRequest([]byte{0}); err == nil {
		t.Error("nil request frame accepted")
	}
	if _, err := UnmarshalRequest(nil); err == nil {
		t.Error("empty frame accepted")
	}
}

// Property: arbitrary messages survive a marshal/unmarshal round trip.
func TestCodecPropertyRoundTrip(t *testing.T) {
	gen := func(rng *rand.Rand) *Message {
		m := &Message{
			Kind:      Kind(1 + rng.Intn(int(kindSentinel)-1)),
			From:      ids.ReplicaID(rng.Intn(10) - 1),
			View:      ids.View(rng.Uint64() % 1000),
			Seq:       rng.Uint64() % 100000,
			Mode:      ids.Mode(rng.Intn(3)),
			Timestamp: rng.Uint64(),
			Client:    ids.ClientID(rng.Int63n(100)),
		}
		rng.Read(m.Digest[:])
		if rng.Intn(2) == 0 {
			op := make([]byte, rng.Intn(64))
			rng.Read(op)
			m.Payload = []*Request{{Op: op, Timestamp: rng.Uint64(), Client: ids.ClientID(rng.Int63n(50))}}
		}
		if rng.Intn(2) == 0 {
			m.Result = make([]byte, rng.Intn(32))
			rng.Read(m.Result)
		}
		for i := 0; i < rng.Intn(4); i++ {
			s := Signed{
				Kind: Kind(1 + rng.Intn(int(kindSentinel)-1)),
				From: ids.ReplicaID(rng.Intn(8)),
				View: ids.View(rng.Uint64() % 100),
				Seq:  rng.Uint64() % 1000,
			}
			rng.Read(s.Digest[:])
			sig := make([]byte, rng.Intn(16))
			rng.Read(sig)
			s.Sig = sig
			m.Prepares = append(m.Prepares, s)
		}
		sig := make([]byte, rng.Intn(70))
		rng.Read(sig)
		m.Sig = sig
		return m
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		m := gen(rng)
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			t.Fatalf("iteration %d: %v (msg %+v)", i, err, m)
		}
		if !got.Equal(m) {
			t.Fatalf("iteration %d: round trip mismatch\n got %+v\nwant %+v", i, got, m)
		}
	}
}

// Property: the encoding is injective on the quick-generated domain —
// different messages produce different frames.
func TestCodecPropertyInjective(t *testing.T) {
	prop := func(s1, v1, t1, s2, v2, t2 uint64) bool {
		m1 := &Message{Kind: KindPrepare, Seq: s1, View: ids.View(v1), Timestamp: t1}
		m2 := &Message{Kind: KindPrepare, Seq: s2, View: ids.View(v2), Timestamp: t2}
		same := s1 == s2 && v1 == v2 && t1 == t2
		return bytes.Equal(Marshal(m1), Marshal(m2)) == same
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMessageStringer(t *testing.T) {
	m := &Message{Kind: KindCommit, From: 3, View: 2, Seq: 8}
	s := m.String()
	if s == "" || s[:6] != "COMMIT" {
		t.Errorf("String() = %q", s)
	}
}

func TestAuthenticatorSlots(t *testing.T) {
	var a, b [crypto.TagSize]byte
	for i := range a {
		a[i], b[i] = 0xaa, 0xbb
	}
	auth := SetTag(nil, 4, a)
	auth = SetTag(auth, 1, b) // out of order, inside what is already covered
	if len(auth) != 5*crypto.TagSize {
		t.Fatalf("authenticator is %d bytes, want five slots", len(auth))
	}
	if !bytes.Equal(TagOf(auth, 4), a[:]) || !bytes.Equal(TagOf(auth, 1), b[:]) {
		t.Fatal("a stored tag did not come back from its slot")
	}
	if !bytes.Equal(TagOf(auth, 0), make([]byte, crypto.TagSize)) {
		t.Fatal("a slot nobody filled is not zero")
	}
	for _, id := range []ids.ReplicaID{-1, 5, 1 << 50} {
		if TagOf(auth, id) != nil {
			t.Errorf("slot %d of a five-slot authenticator is not nil", id)
		}
	}
	if TagOf(auth[:5*crypto.TagSize-1], 4) != nil {
		t.Error("a truncated last slot was returned")
	}
}

// TestSealRoundTrip: a seal opens to exactly the signature and the
// authenticator that went in, whatever length of signature the suite
// makes — 64 bytes, 32, or none — and the tags filled into the opened
// authenticator are the sealed Sig's own bytes. Anything that is not a
// length byte, that many signature bytes and whole slots is refused.
func TestSealRoundTrip(t *testing.T) {
	s := &Signed{Kind: KindPrepare, From: 0, View: 3, Seq: 9, Digest: crypto.Sum([]byte("d"))}
	self, peer := crypto.ReplicaPrincipal(0), crypto.ReplicaPrincipal(2)
	for _, suite := range []crypto.Suite{
		crypto.NewEd25519Suite(5, 3, 0), crypto.NewHMACSuite(5, 3, 0), crypto.NoopSuite{},
	} {
		sig := suite.Sign(self, s.SignedBytes())
		body := s.SealedBytes(sig)
		if !bytes.Equal(body, append(s.SignedBytes(), sig...)) {
			t.Fatalf("%s: SealedBytes is not the tuple followed by the signature", suite.Name())
		}
		sealed, auth := Seal(sig, 3)
		SetTag(auth, 2, suite.Tag(self, peer, body))
		gotSig, gotAuth, ok := OpenSeal(sealed)
		if !ok || !bytes.Equal(gotSig, sig) || len(gotAuth) != 3*crypto.TagSize {
			t.Fatalf("%s: a fresh seal opens to (%d-byte signature, %d-byte authenticator, %v)",
				suite.Name(), len(gotSig), len(gotAuth), ok)
		}
		if !suite.VerifyTag(self, peer, body, TagOf(gotAuth, 2)) {
			t.Fatalf("%s: the tag stored through Seal's authenticator is not in the sealed Sig", suite.Name())
		}
		if cap(gotSig) != len(gotSig) {
			t.Fatalf("%s: appending to the opened signature would write into the authenticator behind it", suite.Name())
		}
		for what, bad := range map[string][]byte{
			"nothing":                         nil,
			"a seal one byte short":           sealed[:len(sealed)-1],
			"a seal cut inside the signature": sealed[:len(sig)],
			"a length byte past the end":      append([]byte{0xff}, sealed[1:]...),
		} {
			if _, _, ok := OpenSeal(bad); ok {
				t.Fatalf("%s: OpenSeal accepted %s (%d of %d bytes)", suite.Name(), what, len(bad), len(sealed))
			}
		}
	}
	if _, _, ok := OpenSeal(make([]byte, 64)); ok {
		t.Fatal("a bare 64-byte signature opened as a seal")
	}
}

// The seal benchmarks pin what the sealed hot path relies on: sealing a
// proposal for five peers allocates the sealed Sig and nothing else, and
// a receiver opening it and checking its slot allocates nothing — given
// the MAC input (SealedBytes), which every tag check builds once.
func benchSeal() (suite *crypto.Ed25519Suite, sig, body []byte) {
	suite = crypto.NewEd25519Suite(7, 6, 0)
	s := &Signed{Kind: KindPrepare, From: 0, View: 1, Seq: 2, Digest: crypto.Sum([]byte("d"))}
	sig = suite.Sign(crypto.ReplicaPrincipal(0), s.SignedBytes())
	return suite, sig, s.SealedBytes(sig)
}

var sealSink []byte

func BenchmarkSeal(b *testing.B) {
	suite, sig, body := benchSeal()
	seal := func() {
		sealed, auth := Seal(sig, 6)
		sealSink = sealed
		for to := ids.ReplicaID(1); to < 6; to++ {
			SetTag(auth, to, suite.Tag(crypto.ReplicaPrincipal(0), crypto.ReplicaPrincipal(int(to)), body))
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seal()
	}
	if n := testing.AllocsPerRun(100, seal); n != 1 {
		b.Fatalf("sealing for five peers allocates %v times, want 1 (the sealed Sig)", n)
	}
}

func BenchmarkOpenSeal(b *testing.B) {
	suite, sig, body := benchSeal()
	sealed, auth := Seal(sig, 6)
	SetTag(auth, 3, suite.Tag(crypto.ReplicaPrincipal(0), crypto.ReplicaPrincipal(3), body))
	open := func() bool {
		_, auth, ok := OpenSeal(sealed)
		return ok && suite.VerifyTag(crypto.ReplicaPrincipal(0), crypto.ReplicaPrincipal(3), body, TagOf(auth, 3))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !open() {
			b.Fatal("the receiver refused its own slot")
		}
	}
	if n := testing.AllocsPerRun(100, func() { open() }); n != 0 {
		b.Fatalf("opening a seal and checking a slot allocates %v times, want 0", n)
	}
}
