package client

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/transport"
)

// The Session tests drive the client protocol with hand-built, tagged
// REPLY frames and a fake clock: no network, no goroutine, no sleep.

var (
	sessMB    = ids.MustMembership(2, 4, 1, 1) // replicas 0–1 trusted, 2–5 public
	sessT0    = time.Unix(1_000, 0)
	sessRetry = testTiming().ClientRetry
)

const sessClient ids.ClientID = 7

func newTestSession(mode ids.Mode, cc config.Client) (*Session, crypto.Suite) {
	suite := crypto.NewHMACSuite(1, sessMB.N(), 8)
	return NewSession(sessClient, suite, NewSeeMoRePolicy(sessMB, mode), testTiming(), cc), suite
}

// reply is a REPLY from replica from to request ts, tagged for the
// session's client.
func reply(suite crypto.Suite, from ids.ReplicaID, ts uint64, result string, wm uint64, served Consistency) transport.Envelope {
	m := &message.Message{
		Kind: message.KindReply, From: from, Mode: ids.Lion, Client: sessClient,
		Timestamp: ts, Result: []byte(result), Watermark: wm, Consistency: served,
	}
	tag := suite.Tag(crypto.ReplicaPrincipal(int(from)), crypto.ClientPrincipal(int64(sessClient)), m.SignedBytes())
	m.Sig = tag[:]
	return transport.Envelope{From: transport.ReplicaAddr(from), Frame: message.Marshal(m)}
}

// sent decodes the request a Step sends and checks its targets.
func sent(t *testing.T, st Step, kind message.Kind, to ...ids.ReplicaID) *message.Message {
	t.Helper()
	if !slices.Equal(st.To, to) {
		t.Fatalf("sent to %v, want %v", st.To, to)
	}
	m, err := message.Unmarshal(st.Frame)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != kind {
		t.Fatalf("sent a %v, want a %v", m.Kind, kind)
	}
	return m
}

// write runs one write to completion, accepted on a trusted reply
// stamped wm at now; extra replies are delivered first.
func write(t *testing.T, s *Session, suite crypto.Suite, wm uint64, now time.Time, extra ...transport.Envelope) {
	t.Helper()
	st := s.Start([]byte("w"), ReadOptions{}, now)
	for _, env := range extra {
		if st = s.OnEnvelope(env, now); st.Outcome != nil {
			t.Fatal("extra reply completed the write")
		}
	}
	st = s.OnEnvelope(reply(suite, 0, s.Timestamp(), "ok", wm, Linearizable), now)
	if st.Outcome == nil || st.Outcome.Err != nil {
		t.Fatalf("write not accepted: %+v", st.Outcome)
	}
}

func TestSessionLeasedReadWithoutLeaseTargetStartsAsRequest(t *testing.T) {
	s, _ := newTestSession(ids.Peacock, config.Client{})
	st := s.Start([]byte("r"), ReadOptions{Consistency: Leased}, sessT0)
	m := sent(t, st, message.KindRequest, sessMB.Primary(ids.Peacock, 0))
	if m.Payload[0].Timestamp != 1 || !st.Deadline.Equal(sessT0.Add(sessRetry)) {
		t.Fatalf("ts %d deadline %v", m.Payload[0].Timestamp, st.Deadline)
	}
	if o, ok := s.Pending(); !ok || o.Served != Linearizable {
		t.Fatalf("pending %+v %v, want an ordered op in flight", o, ok)
	}
}

func TestSessionRefusesStaleReplyBelowFloor(t *testing.T) {
	s, suite := newTestSession(ids.Lion, config.Client{})
	write(t, s, suite, 10, sessT0)
	if s.readFloor != 10 {
		t.Fatalf("floor %d after a write vouched at 10", s.readFloor)
	}
	st := s.Start([]byte("r"), ReadOptions{Consistency: Stale}, sessT0)
	ts := sent(t, st, message.KindRead, 0).Payload[0].Timestamp
	if st = s.OnEnvelope(reply(suite, 0, ts, "old", 9, Stale), sessT0); st.Outcome != nil {
		t.Fatalf("accepted a reply at watermark 9 under floor 10: %+v", st.Outcome)
	}
	st = s.OnEnvelope(reply(suite, 1, ts, "new", 12, Stale), sessT0)
	o := st.Outcome
	if o == nil || string(o.Result) != "new" || o.Watermark != 12 || o.Floor != 10 || o.Served != Stale {
		t.Fatalf("outcome %+v, want new@12 served stale over floor 10", o)
	}
	if s.readFloor != 12 {
		t.Fatalf("floor %d, want 12", s.readFloor)
	}
}

func TestSessionStaleReadBroadcastsThenFallsBack(t *testing.T) {
	s, suite := newTestSession(ids.Lion, config.Client{})
	st := s.Start([]byte("r"), ReadOptions{Consistency: Stale}, sessT0)
	ts := sent(t, st, message.KindRead, 0).Payload[0].Timestamp

	// First timeout: the same READ to every stale target.
	st = s.OnTimer(st.Deadline)
	if m := sent(t, st, message.KindRead, sessMB.Trusted()...); m.Payload[0].Timestamp != ts {
		t.Fatalf("broadcast ts %d, want the read's %d", m.Payload[0].Timestamp, ts)
	}
	if !st.Deadline.Equal(sessT0.Add(2 * sessRetry)) {
		t.Fatalf("deadline %v", st.Deadline)
	}

	// Second timeout: order the read like a write, under a fresh timestamp.
	st = s.OnTimer(st.Deadline)
	m := sent(t, st, message.KindRequest, sessMB.Primary(ids.Lion, 0))
	if m.Payload[0].Timestamp != ts+1 || m.Consistency != Linearizable {
		t.Fatalf("fallback ts %d consistency %v, want %d linearizable", m.Payload[0].Timestamp, m.Consistency, ts+1)
	}
	now := st.Deadline
	if st = s.OnEnvelope(reply(suite, 0, ts, "late", 0, Stale), now); st.Outcome != nil {
		t.Fatal("accepted a reply to the abandoned READ")
	}
	o := s.OnEnvelope(reply(suite, 0, ts+1, "v", 3, Linearizable), now).Outcome
	if o == nil || string(o.Result) != "v" || o.Timestamp != ts+1 || o.Served != Linearizable {
		t.Fatalf("outcome %+v, want v at ts %d served linearizable", o, ts+1)
	}
}

func TestSessionMaxStalenessRaisesFloor(t *testing.T) {
	for _, tc := range []struct {
		name         string
		maxStaleness time.Duration
		want         uint64
	}{
		{"no bound: read-your-writes only", 0, 5},
		{"bound after the observation", 50 * time.Millisecond, 20},
		{"bound before the observation", 200 * time.Millisecond, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, suite := newTestSession(ids.Lion, config.Client{})
			// A public replica reports watermark 20 for a different
			// result: known freshness, but not vouching for the write.
			write(t, s, suite, 5, sessT0, reply(suite, 2, 1, "other", 20, Linearizable))
			now := sessT0.Add(100 * time.Millisecond)
			s.Start([]byte("r"), ReadOptions{Consistency: Stale, MaxStaleness: tc.maxStaleness}, now)
			if o, _ := s.Pending(); o.Floor != tc.want {
				t.Fatalf("floor %d, want %d", o.Floor, tc.want)
			}
		})
	}
}

func TestSessionExhaustedBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed uint64
		hint bool
	}{
		{"unseeded counter hints at a stale timestamp", 0, true},
		{"seeded counter", 100, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newTestSession(ids.Lion, config.Client{MaxRetries: 2, InitialTimestamp: tc.seed})
			st := s.Start([]byte("w"), ReadOptions{}, sessT0)
			for i := 0; i < 2; i++ {
				st = s.OnTimer(st.Deadline)
				sent(t, st, message.KindRequest, sessMB.All()...)
			}
			o := s.OnTimer(st.Deadline).Outcome
			if o == nil || !errors.Is(o.Err, ErrTimeout) || o.Timestamp != tc.seed+1 {
				t.Fatalf("outcome %+v, want ErrTimeout at ts %d", o, tc.seed+1)
			}
			if hint := strings.Contains(o.Err.Error(), "stale timestamp?"); hint != tc.hint {
				t.Fatalf("error %q: stale-timestamp hint %v, want %v", o.Err, hint, tc.hint)
			}
			if _, ok := s.Pending(); ok {
				t.Fatal("op still in flight after its outcome")
			}
		})
	}
}

// TestSessionReadIsUnsigned: a READ carries no signature and tags only
// for the replicas its frame can reach — the lease holder, or every
// stale target, since a stale read's first timeout re-sends the frame
// to all of them. The REQUEST a stalled read falls back to is signed
// and tagged for every replica, like a write's.
func TestSessionReadIsUnsigned(t *testing.T) {
	for _, tc := range []struct {
		c     Consistency
		reach []ids.ReplicaID
	}{
		{Leased, []ids.ReplicaID{sessMB.Primary(ids.Lion, 0)}},
		{Stale, sessMB.Trusted()},
	} {
		t.Run(tc.c.String(), func(t *testing.T) {
			s, suite := newTestSession(ids.Lion, config.Client{})
			st := s.Start([]byte("r"), ReadOptions{Consistency: tc.c}, sessT0)
			m := sent(t, st, message.KindRead, tc.reach[0])
			if len(m.Payload[0].Sig) != 0 {
				t.Fatalf("the READ carries a %d-byte signature, want none", len(m.Payload[0].Sig))
			}
			checkTags(t, suite, m, tc.reach)
			st = s.OnTimer(st.Deadline)
			if tc.c == Stale {
				sent(t, st, message.KindRead, tc.reach...)
				st = s.OnTimer(st.Deadline)
			}
			m = sent(t, st, message.KindRequest, sessMB.Primary(ids.Lion, 0))
			if !suite.Verify(crypto.ClientPrincipal(int64(sessClient)), m.Payload[0].SignedBytes(), m.Payload[0].Sig) {
				t.Fatal("the fallback REQUEST's signature does not verify")
			}
			checkTags(t, suite, m, sessMB.All())
		})
	}
}

// checkTags checks that m's client authenticator holds a good tag for
// exactly the replicas in reach.
func checkTags(t *testing.T, suite crypto.Suite, m *message.Message, reach []ids.ReplicaID) {
	t.Helper()
	for _, r := range sessMB.All() {
		good := suite.VerifyTag(crypto.ClientPrincipal(int64(sessClient)), crypto.ReplicaPrincipal(int(r)),
			m.Payload[0].TaggedBytes(), message.TagOf(m.Sig, r))
		if good != slices.Contains(reach, r) {
			t.Fatalf("the %v's tag for replica %d verifies: %v, want %v", m.Kind, r, good, !good)
		}
	}
}
