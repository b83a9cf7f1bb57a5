package cluster

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/pbft"
	"repro/internal/statemachine"
	"repro/internal/transport"
)

// TestBuildNode: the one builder assembles each protocol's engine, and
// refuses a protocol it does not know (New rejects one earlier, in
// Sizes, so only a direct call reaches that branch).
func TestBuildNode(t *testing.T) {
	seemore, bft := fmt.Sprintf("%T", (*core.Replica)(nil)), fmt.Sprintf("%T", (*pbft.Replica)(nil))
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"lion", Spec{Protocol: SeeMoRe, Mode: ids.Lion, Crash: 1, Byz: 1}, seemore},
		{"dog", Spec{Protocol: SeeMoRe, Mode: ids.Dog, Crash: 1, Byz: 1}, seemore},
		{"peacock", Spec{Protocol: SeeMoRe, Mode: ids.Peacock, Crash: 1, Byz: 1}, seemore},
		{"paxos", Spec{Protocol: Paxos, Crash: 1}, seemore},
		{"pbft", Spec{Protocol: PBFT, Byz: 1}, bft},
		{"upright", Spec{Protocol: UpRight, Crash: 1, Byz: 1}, bft},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := tc.spec.Sizes()
			if err != nil {
				t.Fatal(err)
			}
			mb, err := tc.spec.Membership()
			if err != nil {
				t.Fatal(err)
			}
			tc.spec.Timing = config.DefaultTiming()
			net := transport.NewSimNetwork(transport.LAN(n, 1))
			defer net.Close()
			node, err := tc.spec.BuildNode(0, Env{
				Membership: mb, N: n, Network: net, Suite: crypto.NoopSuite{},
				StateMachine: statemachine.NewKVStore(),
			})
			if err != nil {
				t.Fatalf("BuildNode: %v", err)
			}
			defer node.Stop()
			if got := fmt.Sprintf("%T", node); got != tc.want {
				t.Errorf("replica 0 is a %s, want %s", got, tc.want)
			}
			if node.ID() != 0 {
				t.Errorf("replica ID %d, want 0", node.ID())
			}
		})
	}
	unknown := Spec{Protocol: Protocol(9), Crash: 1, Byz: 1, Timing: config.DefaultTiming()}
	if node, err := unknown.BuildNode(0, Env{}); err == nil {
		t.Errorf("unknown protocol built a %T", node)
	}
}
