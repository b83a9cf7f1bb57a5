package ids

import (
	"testing"
	"testing/quick"
)

func TestNewMembershipValidation(t *testing.T) {
	cases := []struct {
		name       string
		s, p, c, m int
		wantErr    bool
	}{
		{"paper base case S=2 P=4 c=1 m=1", 2, 4, 1, 1, false},
		{"fig2b S=4 P=7 c=2 m=2", 4, 7, 2, 2, false},
		{"fig2c S=2 P=10 c=1 m=3", 2, 10, 1, 3, false},
		{"fig2d S=6 P=4 c=3 m=1", 6, 4, 3, 1, false},
		{"section4 example S=2 P=10 c=1 m=3", 2, 10, 1, 3, false},
		{"network too small", 2, 3, 1, 1, true},
		{"negative c", 2, 4, -1, 1, true},
		{"negative m", 2, 4, 1, -1, true},
		{"no trusted node", 0, 7, 0, 2, true},
		{"all private may crash", 1, 5, 1, 1, true},
		{"public smaller than m", 3, 1, 0, 2, true},
		{"pure crash cluster S=3 c=1 m=0", 3, 0, 1, 0, false},
		{"CFT f=2 S=5 c=2 m=0", 5, 0, 2, 0, false},
		{"CFT without a majority S=2 c=1 m=0", 2, 0, 1, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewMembership(tc.s, tc.p, tc.c, tc.m)
			if (err != nil) != tc.wantErr {
				t.Fatalf("NewMembership(%d,%d,%d,%d) err=%v, wantErr=%v",
					tc.s, tc.p, tc.c, tc.m, err, tc.wantErr)
			}
		})
	}
}

func TestMustMembershipPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustMembership with invalid sizes did not panic")
		}
	}()
	MustMembership(0, 0, 0, 0)
}

func TestTrustBoundaries(t *testing.T) {
	mb := MustMembership(2, 4, 1, 1)
	if mb.N() != 6 {
		t.Fatalf("N = %d, want 6", mb.N())
	}
	for r := ReplicaID(0); r < 2; r++ {
		if !mb.IsTrusted(r) || mb.IsUntrusted(r) {
			t.Errorf("replica %d should be trusted", r)
		}
	}
	for r := ReplicaID(2); r < 6; r++ {
		if mb.IsTrusted(r) || !mb.IsUntrusted(r) {
			t.Errorf("replica %d should be untrusted", r)
		}
	}
	if mb.IsTrusted(-1) || mb.IsUntrusted(-1) || mb.Contains(-1) {
		t.Error("negative id must be outside the cluster")
	}
	if mb.Contains(6) {
		t.Error("id N must be outside the cluster")
	}
	if got := len(mb.Trusted()); got != 2 {
		t.Errorf("len(Trusted) = %d, want 2", got)
	}
	if got := len(mb.Untrusted()); got != 4 {
		t.Errorf("len(Untrusted) = %d, want 4", got)
	}
	if got := len(mb.All()); got != 6 {
		t.Errorf("len(All) = %d, want 6", got)
	}
}

func TestPrimarySelection(t *testing.T) {
	mb := MustMembership(2, 4, 1, 1)
	// Lion/Dog: v mod S.
	for v := View(0); v < 10; v++ {
		want := ReplicaID(int(v) % 2)
		if got := mb.Primary(Lion, v); got != want {
			t.Errorf("Lion primary(v=%d) = %d, want %d", v, got, want)
		}
		if got := mb.Primary(Dog, v); got != want {
			t.Errorf("Dog primary(v=%d) = %d, want %d", v, got, want)
		}
		if !mb.IsTrusted(mb.Primary(Lion, v)) {
			t.Errorf("Lion primary(v=%d) not trusted", v)
		}
	}
	// Peacock: (v mod P) + S, always untrusted, always a proxy.
	for v := View(0); v < 10; v++ {
		want := ReplicaID(int(v)%4 + 2)
		got := mb.Primary(Peacock, v)
		if got != want {
			t.Errorf("Peacock primary(v=%d) = %d, want %d", v, got, want)
		}
		if !mb.IsUntrusted(got) {
			t.Errorf("Peacock primary(v=%d) not untrusted", v)
		}
		if !mb.IsProxy(Peacock, v, got) {
			t.Errorf("Peacock primary(v=%d) must be a proxy", v)
		}
	}
}

func TestTransferer(t *testing.T) {
	mb := MustMembership(3, 7, 1, 2)
	for v := View(0); v < 12; v++ {
		tr := mb.Transferer(Peacock, v)
		if want := ReplicaID(int(v) % 3); tr != want {
			t.Errorf("Peacock transferer(v=%d) = %d, want %d", v, tr, want)
		}
		if !mb.IsTrusted(tr) {
			t.Errorf("transferer(v=%d) must be trusted", v)
		}
		if got := mb.Transferer(Lion, v); got != mb.Primary(Lion, v) {
			t.Errorf("Lion transferer(v=%d) = %d, want primary %d", v, got, mb.Primary(Lion, v))
		}
	}
}

func TestProxySetProperties(t *testing.T) {
	// P > 3m+1 so the rotation actually matters.
	mb := MustMembership(2, 6, 1, 1)
	for v := View(0); v < 20; v++ {
		for _, md := range []Mode{Dog, Peacock} {
			ps := mb.Proxies(md, v)
			if len(ps) != mb.ProxyCount() {
				t.Fatalf("%s v=%d: %d proxies, want %d", md, v, len(ps), mb.ProxyCount())
			}
			seen := map[ReplicaID]bool{}
			for _, r := range ps {
				if !mb.IsUntrusted(r) {
					t.Errorf("%s v=%d: proxy %d is not in the public cloud", md, v, r)
				}
				if seen[r] {
					t.Errorf("%s v=%d: duplicate proxy %d", md, v, r)
				}
				seen[r] = true
				if !mb.IsProxy(md, v, r) {
					t.Errorf("%s v=%d: IsProxy(%d) = false for listed proxy", md, v, r)
				}
			}
			// Complement check: exactly P - (3m+1) public nodes are non-proxies.
			nonProxies := 0
			for _, r := range mb.Untrusted() {
				if !mb.IsProxy(md, v, r) {
					nonProxies++
				}
			}
			if want := mb.P() - mb.ProxyCount(); nonProxies != want {
				t.Errorf("%s v=%d: %d non-proxy public nodes, want %d", md, v, nonProxies, want)
			}
			// Trusted nodes are never proxies.
			for _, r := range mb.Trusted() {
				if mb.IsProxy(md, v, r) {
					t.Errorf("%s v=%d: trusted node %d marked proxy", md, v, r)
				}
			}
		}
		if mb.Proxies(Lion, v) != nil {
			t.Errorf("Lion v=%d: proxies must be nil", v)
		}
	}
}

func TestProxyRotationCoversWholePublicCloud(t *testing.T) {
	mb := MustMembership(2, 6, 1, 1)
	covered := map[ReplicaID]bool{}
	for v := View(0); v < View(mb.P()); v++ {
		for _, r := range mb.Proxies(Dog, v) {
			covered[r] = true
		}
	}
	if len(covered) != mb.P() {
		t.Fatalf("rotation covered %d public nodes, want %d", len(covered), mb.P())
	}
}

func TestParticipants(t *testing.T) {
	mb := MustMembership(2, 4, 1, 1)
	if got := len(mb.Participants(Lion, 3)); got != 6 {
		t.Errorf("Lion participants = %d, want all 6", got)
	}
	if got := len(mb.Participants(Dog, 3)); got != 4 {
		t.Errorf("Dog participants = %d, want 3m+1 = 4", got)
	}
	if got := len(mb.Participants(Peacock, 3)); got != 4 {
		t.Errorf("Peacock participants = %d, want 3m+1 = 4", got)
	}
}

func TestQuorumSizesMatchTable1(t *testing.T) {
	// Table 1 of the paper for a generic (c, m).
	mb := MustMembership(4, 7, 2, 2)
	if got := mb.AgreementQuorum(Lion); got != 2*2+2+1 {
		t.Errorf("Lion quorum = %d, want 2m+c+1 = 7", got)
	}
	if got := mb.AgreementQuorum(Dog); got != 2*2+1 {
		t.Errorf("Dog quorum = %d, want 2m+1 = 5", got)
	}
	if got := mb.AgreementQuorum(Peacock); got != 2*2+1 {
		t.Errorf("Peacock quorum = %d, want 2m+1 = 5", got)
	}
	if got := mb.ViewChangeQuorum(Lion); got != 2*2+2 {
		t.Errorf("Lion view-change quorum = %d, want 2m+c = 6", got)
	}
	if got := mb.ViewChangeQuorum(Peacock); got != 2*2+1 {
		t.Errorf("Peacock view-change quorum = %d, want 2m+1 = 5", got)
	}
	if got := mb.ProxyCount(); got != 7 {
		t.Errorf("proxy count = %d, want 3m+1 = 7", got)
	}
	if got := mb.InformQuorum(true); got != 5 {
		t.Errorf("inform quorum with prepare = %d, want 2m+1 = 5", got)
	}
	if got := mb.InformQuorum(false); got != 3 {
		t.Errorf("inform quorum without prepare = %d, want m+1 = 3", got)
	}
	if got := mb.ReplyQuorum(Lion); got != 1 {
		t.Errorf("Lion reply quorum = %d, want 1", got)
	}
	if got := mb.ReplyQuorum(Dog); got != 5 {
		t.Errorf("Dog reply quorum = %d, want 2m+1 = 5", got)
	}
	if got := mb.RetryReplyQuorum(); got != 3 {
		t.Errorf("retry reply quorum = %d, want m+1 = 3", got)
	}
}

func TestSupportsMode(t *testing.T) {
	// Minimal Lion-capable cluster whose public cloud is too small for
	// Dog/Peacock proxies: S=4, P=2, c=1, m=1 → N=6 ≥ 3m+2c+1=6, but
	// 3m+1=4 > P=2.
	mb := MustMembership(4, 2, 1, 1)
	if err := mb.SupportsMode(Lion); err != nil {
		t.Errorf("Lion should be supported: %v", err)
	}
	if err := mb.SupportsMode(Dog); err == nil {
		t.Error("Dog should not be supported with P < 3m+1")
	}
	if err := mb.SupportsMode(Peacock); err == nil {
		t.Error("Peacock should not be supported with P < 3m+1")
	}
	if err := mb.SupportsMode(Mode(42)); err == nil {
		t.Error("unknown mode must be rejected")
	}

	base := MustMembership(2, 4, 1, 1)
	for _, md := range []Mode{Lion, Dog, Peacock} {
		if err := base.SupportsMode(md); err != nil {
			t.Errorf("paper base case should support %s: %v", md, err)
		}
	}
}

func TestModeString(t *testing.T) {
	if Lion.String() != "Lion" || Dog.String() != "Dog" || Peacock.String() != "Peacock" {
		t.Error("mode names do not match the paper")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode should format as Mode(n)")
	}
	if Mode(9).Valid() {
		t.Error("Mode(9) must be invalid")
	}
}

// Property: quorum intersection. Any two agreement quorums intersect in at
// least m+1 participants, which is the safety core of Sections 5.1-5.3.
func TestQuorumIntersectionProperty(t *testing.T) {
	prop := func(cRaw, mRaw uint8) bool {
		c := int(cRaw%3) + 0
		m := int(mRaw%3) + 0
		s := c + 1   // smallest legal private cloud
		p := 3*m + 1 // smallest proxy-capable public cloud
		if s+p < 3*m+2*c+1 {
			p = 3*m + 2*c + 1 - s
		}
		mb, err := NewMembership(s, p, c, m)
		if err != nil {
			return true // skip infeasible corners
		}
		for _, md := range []Mode{Lion, Dog, Peacock} {
			n := len(mb.Participants(md, 0))
			q := mb.AgreementQuorum(md)
			// |Q1 ∩ Q2| ≥ 2q - n must be ≥ m+1.
			if 2*q-n < m+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: proxy-set determinism and size across arbitrary memberships
// and views.
func TestProxySetProperty(t *testing.T) {
	prop := func(vRaw uint16, mRaw, extraRaw uint8) bool {
		m := int(mRaw % 3)
		extra := int(extraRaw % 4)
		s := 2
		c := 1
		p := 3*m + 1 + extra
		if s+p < 3*m+2*c+1 {
			p = 3*m + 2*c + 1 - s
		}
		mb, err := NewMembership(s, p, c, m)
		if err != nil {
			return true
		}
		v := View(vRaw)
		ps1 := mb.Proxies(Peacock, v)
		ps2 := mb.Proxies(Peacock, v)
		if len(ps1) != 3*m+1 || len(ps1) != len(ps2) {
			return false
		}
		for i := range ps1 {
			if ps1[i] != ps2[i] {
				return false
			}
		}
		return ps1[0] == mb.Primary(Peacock, v)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupID(t *testing.T) {
	if GroupID(-1).Valid() {
		t.Error("negative group reports valid")
	}
	if !GroupID(0).Valid() || !GroupID(7).Valid() {
		t.Error("non-negative group reports invalid")
	}
	if got := GroupID(3).String(); got != "group:3" {
		t.Errorf("String() = %q", got)
	}
}
