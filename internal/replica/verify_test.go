package replica

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
)

// member is one signature of a set under test: its claimed author (a
// client ID for requests, a replica ID for records) and its bytes.
type member struct {
	author int64
	sig    []byte
}

// setCheck builds n freshly signed members of one kind, lets edit
// change member i before the check, and runs the Engine's set check.
type setCheck func(e *Engine, s crypto.Suite, n int, edit func(i int, m *member)) bool

func checkRequests(e *Engine, s crypto.Suite, n int, edit func(int, *member)) bool {
	reqs := make([]*message.Request, n)
	for i := range reqs {
		r := &message.Request{Op: []byte{byte(i)}, Timestamp: uint64(i + 1), Client: ids.ClientID(i % 4)}
		m := member{author: int64(r.Client), sig: s.Sign(crypto.ClientPrincipal(int64(r.Client)), r.SignedBytes())}
		edit(i, &m)
		r.Client, r.Sig = ids.ClientID(m.author), m.sig
		reqs[i] = r
	}
	return e.AuthenticForwarded(reqs)
}

func checkRecords(e *Engine, s crypto.Suite, n int, edit func(int, *member)) bool {
	set := signedRecords(s, n)
	for i := range set {
		m := member{author: int64(set[i].From), sig: set[i].Sig}
		edit(i, &m)
		set[i].From, set[i].Sig = ids.ReplicaID(m.author), m.sig
	}
	return e.VerifyRecords(set)
}

// signedRecords returns n PREPARE records of distinct slots, signed by
// replicas 0..3 in turn.
func signedRecords(s crypto.Suite, n int) []message.Signed {
	set := make([]message.Signed, n)
	for i := range set {
		set[i] = message.Signed{
			Kind: message.KindPrepare, From: ids.ReplicaID(i % 4), View: 1, Seq: uint64(i + 1),
			Digest: crypto.Sum([]byte{byte(i)}),
		}
		set[i].Sig = s.Sign(crypto.ReplicaPrincipal(i%4), set[i].SignedBytes())
	}
	return set
}

// TestVerifySets pins VerifyRecords, and AuthenticForwarded on members
// that forward no authenticator (so each is taken on its signature),
// under every suite kind a replica runs: the verdict, and — under a
// Counting suite — that the check stops at the first bad signature.
func TestVerifySets(t *testing.T) {
	const n = 5
	flip := func(m *member) { m.sig = bytes.Clone(m.sig); m.sig[0] ^= 1 }
	rows := []struct {
		name         string
		size, at     int
		edit         func(m *member)
		requestsOnly bool // no-op members exist only among requests
		want         bool
		verifies     uint64
	}{
		{name: "empty", size: 0, edit: func(*member) {}, want: true, verifies: 0},
		{name: "all-no-op", size: n, at: -1, requestsOnly: true, want: true, verifies: 0},
		{name: "honest", size: n, at: -1, edit: func(*member) {}, want: true, verifies: n},
		{name: "bad-first", size: n, at: 0, edit: flip, verifies: 1},
		{name: "bad-middle", size: n, at: n / 2, edit: flip, verifies: n/2 + 1},
		{name: "bad-last", size: n, at: n - 1, edit: flip, verifies: n},
		{name: "unknown-signer", size: n, at: 1, edit: func(m *member) { m.author = 99 }, verifies: 2},
		{name: "40-byte-sig", size: n, at: 1, edit: func(m *member) {
			long := make([]byte, 40)
			copy(long, m.sig)
			m.sig = long
		}, verifies: 2},
		{name: "nil-sig", size: n, at: 1, edit: func(m *member) { m.sig = nil }, verifies: 2},
	}
	suites := []struct {
		name  string
		suite crypto.Suite
	}{
		{"ed25519", crypto.NewEd25519Suite(7, 4, 8)},
		{"hmac", crypto.NewHMACSuite(7, 4, 8)},
		{"counted-ed25519", crypto.Count(crypto.NewEd25519Suite(7, 4, 8))},
	}
	checks := []struct {
		name  string
		check setCheck
	}{{"requests", checkRequests}, {"records", checkRecords}}
	for _, su := range suites {
		s := su.suite
		counted, _ := s.(*crypto.Counting)
		e := NewEngine(Config{ID: 0, Suite: s})
		for _, c := range checks {
			for _, row := range rows {
				if row.requestsOnly && c.name != "requests" {
					continue
				}
				t.Run(su.name+"/"+c.name+"/"+row.name, func(t *testing.T) {
					var before uint64
					if counted != nil {
						before = counted.Totals().Verifies
					}
					got := c.check(e, s, row.size, func(i int, m *member) {
						switch {
						case row.requestsOnly:
							m.author, m.sig = -1, nil
						case i == row.at:
							row.edit(m)
						}
					})
					if got != row.want {
						t.Fatalf("verdict %v, want %v", got, row.want)
					}
					if counted != nil {
						if v := counted.Totals().Verifies - before; v != row.verifies {
							t.Fatalf("%d verifications counted, want %d", v, row.verifies)
						}
					}
				})
			}
		}
	}
}

// BenchmarkVerifyRecords times the NEW-VIEW and checkpoint-certificate
// check at the set sizes a view change sees, and pins that it allocates
// one buffer for the signed tuples whatever the set's size: nothing per
// signature.
func BenchmarkVerifyRecords(b *testing.B) {
	s := crypto.NewEd25519Suite(7, 4, 0)
	e := NewEngine(Config{ID: 0, Suite: s})
	for _, n := range []int{1, 16, 256} {
		set := signedRecords(s, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if a := testing.AllocsPerRun(2, func() { e.VerifyRecords(set) }); a != 1 {
				b.Fatalf("VerifyRecords allocates %v times for %d records, want 1", a, n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !e.VerifyRecords(set) {
					b.Fatal("honest set refused")
				}
			}
		})
	}
}

// BenchmarkRequestTag times what a replica checks of a client REQUEST or
// READ — its own tag in the client's authenticator, in place of the
// client's signature — and pins that the check allocates one thing, the
// MAC input (message.Request.TaggedBytes).
func BenchmarkRequestTag(b *testing.B) {
	s := crypto.NewEd25519Suite(7, 6, 1)
	e := NewEngine(Config{ID: 3, Suite: s})
	req := &message.Request{Op: make([]byte, 32), Timestamp: 1, Client: 0}
	req.Sig = s.Sign(crypto.ClientPrincipal(0), req.SignedBytes())
	auth := message.AuthenticateRequest(s, req, []ids.ReplicaID{0, 1, 2, 3, 4, 5})
	if a := testing.AllocsPerRun(100, func() { e.AuthenticRequest(req, auth) }); a != 1 {
		b.Fatalf("AuthenticRequest allocates %v times, want 1", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.AuthenticRequest(req, auth) {
			b.Fatal("honest tag refused")
		}
	}
}
