// Command seemore-plan is the Section-4 capacity planner: given a
// private cloud and the public cloud's failure statistics, it computes
// how many public nodes to rent so the hybrid network-size constraint
// N = 3m + 2c + 1 holds.
//
//	seemore-plan -s 2 -c 1 -alpha 0.3
//	→ rent 10 public nodes (the paper's worked example)
//
//	seemore-plan -s 2 -c 1 -alpha 0.2 -beta 0.05   # Equation 3
//	seemore-plan -s 2 -c 1 -max-byz 1              # cluster-bound variant
//
// With -split, -merge or -move the command instead dry-runs an elastic
// reconfiguration: it bootstraps the epoch-1 placement for -shards
// owner groups (plus -spares provisioned spares), applies the commands
// in order, and prints every epoch-stamped placement along the way —
// including the pending migration each data-moving command leaves for
// the controller, and the map that survives once the handoff commits.
// Nothing is deployed; this is the planning half of the live
// `placement.Controller` path.
//
//	seemore-plan -shards 2 -spares 1 -replicas 6 -split 0:2
//	seemore-plan -shards 2 -merge 1:0
//	seemore-plan -shards 2 -spares 1 -move 0x4000000000000000-0x8000000000000000:2
//	seemore-plan -shards 1 -set-replicas 0:7
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/placement"
)

func main() {
	var (
		s        = flag.Int("s", 2, "private cloud size S")
		c        = flag.Int("c", 1, "crash bound c in the private cloud")
		alpha    = flag.Float64("alpha", -1, "malicious ratio α = m/P of the public cloud (uniform model)")
		beta     = flag.Float64("beta", 0, "crash ratio β of the public cloud (uniform model, optional)")
		maxByz   = flag.Int("max-byz", -1, "max concurrent Byzantine failures M in the rented cluster (bound model)")
		maxCrash = flag.Int("max-crash", 0, "max concurrent crash failures C in the rented cluster (bound model)")
		shards   = flag.Int("shards", 1, "consensus groups to partition the keyspace across (each group is one full hybrid cluster)")
		spares   = flag.Int("spares", 0, "spare groups provisioned beyond -shards (dry-run placement)")
		replicas = flag.Int("replicas", 6, "replicas per group for the dry-run placement (the worked example's n)")
		splitFl  = flag.String("split", "", "dry-run a range split: from:to[@0xHASH] (groups; default boundary is the range midpoint)")
		mergeFl  = flag.String("merge", "", "dry-run a range merge: from:into (groups; from returns to the spare pool)")
		moveFl   = flag.String("move", "", "dry-run an explicit range move: 0xLO-0xHI:to")
		setRepFl = flag.String("set-replicas", "", "dry-run a membership change: group:count")
	)
	flag.Parse()

	if *splitFl != "" || *mergeFl != "" || *moveFl != "" || *setRepFl != "" {
		if err := planPlacement(*shards, *spares, *replicas, *splitFl, *mergeFl, *moveFl, *setRepFl); err != nil {
			fmt.Fprintf(os.Stderr, "placement plan: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var (
		p     int
		err   error
		model string
	)
	switch {
	case *alpha >= 0 && *beta > 0:
		p, err = config.PublicNodesUniformMixed(*s, *c, *alpha, *beta)
		model = fmt.Sprintf("uniform model, α=%.3f β=%.3f (Equation 3)", *alpha, *beta)
	case *alpha >= 0:
		p, err = config.PublicNodesUniform(*s, *c, *alpha)
		model = fmt.Sprintf("uniform model, α=%.3f (Equation 2)", *alpha)
	case *maxByz >= 0 && *maxCrash > 0:
		p, err = config.PublicNodesBoundedMixed(*s, *c, *maxByz, *maxCrash)
		model = fmt.Sprintf("bound model, M=%d C=%d", *maxByz, *maxCrash)
	case *maxByz >= 0:
		p, err = config.PublicNodesBounded(*s, *c, *maxByz)
		model = fmt.Sprintf("bound model, M=%d", *maxByz)
	default:
		fmt.Fprintln(os.Stderr, "specify -alpha (uniform failure model) or -max-byz (cluster bound model)")
		flag.Usage()
		os.Exit(2)
	}
	report(p, err, *s, *c, model)
	if err == nil && *shards > 1 {
		reportShards(*s+p, *shards)
	}
}

// planPlacement is the elastic dry run: bootstrap the epoch-1 map,
// apply the requested reconfigurations in flag order, and print each
// epoch-stamped successor. Data-moving commands also print the map the
// controller would commit once the handoff finishes, because at most
// one migration may be pending — the next command applies to that
// retired map, exactly as it would against the live meta group.
func planPlacement(shards, spares, replicas int, split, merge, move, setRep string) error {
	m, err := placement.Bootstrap(shards, shards+spares, replicas)
	if err != nil {
		return err
	}
	fmt.Printf("bootstrap:\n%s", placement.Describe(m))
	var cmds []placement.Cmd
	for _, f := range []struct {
		raw   string
		parse func(string) (placement.Cmd, error)
	}{
		{split, parseSplitCmd},
		{merge, parseMergeCmd},
		{move, parseMoveCmd},
		{setRep, parseSetReplicasCmd},
	} {
		if f.raw == "" {
			continue
		}
		c, err := f.parse(f.raw)
		if err != nil {
			return err
		}
		cmds = append(cmds, c)
	}
	for _, c := range cmds {
		next, err := placement.Plan(m, c)
		if err != nil {
			return fmt.Errorf("%v: %w", c.Kind, err)
		}
		fmt.Printf("\nafter %v:\n%s", c.Kind, placement.Describe(next))
		if p := next.Pending; p != nil {
			done, err := next.CompletePending(p.Epoch)
			if err != nil {
				return err
			}
			fmt.Printf("once the controller finishes the %s handoff (group %d -> %d):\n%s",
				p.Range, int(p.From), int(p.To), placement.Describe(done))
			next = done
		}
		m = next
	}
	return nil
}

// parseSplitCmd parses "from:to" or "from:to@0xHASH".
func parseSplitCmd(s string) (placement.Cmd, error) {
	spec, atStr, hasAt := strings.Cut(s, "@")
	from, to, err := parseGroupPair(spec)
	if err != nil {
		return placement.Cmd{}, fmt.Errorf("-split %q: %w", s, err)
	}
	var at uint64
	if hasAt {
		if at, err = strconv.ParseUint(atStr, 0, 64); err != nil {
			return placement.Cmd{}, fmt.Errorf("-split %q: bad boundary: %w", s, err)
		}
	}
	return placement.Cmd{Kind: placement.CmdSplit, Group: ids.GroupID(from), To: ids.GroupID(to), At: at}, nil
}

// parseMergeCmd parses "from:into".
func parseMergeCmd(s string) (placement.Cmd, error) {
	from, into, err := parseGroupPair(s)
	if err != nil {
		return placement.Cmd{}, fmt.Errorf("-merge %q: %w", s, err)
	}
	return placement.Cmd{Kind: placement.CmdMerge, Group: ids.GroupID(from), To: ids.GroupID(into)}, nil
}

// parseMoveCmd parses "0xLO-0xHI:to".
func parseMoveCmd(s string) (placement.Cmd, error) {
	rangeStr, toStr, ok := strings.Cut(s, ":")
	if !ok {
		return placement.Cmd{}, fmt.Errorf("-move %q: want 0xLO-0xHI:to", s)
	}
	loStr, hiStr, ok := strings.Cut(rangeStr, "-")
	if !ok {
		return placement.Cmd{}, fmt.Errorf("-move %q: want 0xLO-0xHI:to", s)
	}
	lo, err := strconv.ParseUint(loStr, 0, 64)
	if err != nil {
		return placement.Cmd{}, fmt.Errorf("-move %q: bad lo: %w", s, err)
	}
	hi, err := strconv.ParseUint(hiStr, 0, 64)
	if err != nil {
		return placement.Cmd{}, fmt.Errorf("-move %q: bad hi: %w", s, err)
	}
	to, err := strconv.Atoi(toStr)
	if err != nil || to < 0 {
		return placement.Cmd{}, fmt.Errorf("-move %q: bad target group %q", s, toStr)
	}
	return placement.Cmd{Kind: placement.CmdMove, Range: placement.Range{Lo: lo, Hi: hi}, To: ids.GroupID(to)}, nil
}

// parseSetReplicasCmd parses "group:count".
func parseSetReplicasCmd(s string) (placement.Cmd, error) {
	g, n, err := parseGroupPair(s)
	if err != nil {
		return placement.Cmd{}, fmt.Errorf("-set-replicas %q: %w", s, err)
	}
	return placement.Cmd{Kind: placement.CmdSetReplicas, Group: ids.GroupID(g), Replicas: n}, nil
}

// parseGroupPair parses "a:b" into two non-negative ints.
func parseGroupPair(s string) (int, int, error) {
	aStr, bStr, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("want a:b")
	}
	a, err := strconv.Atoi(aStr)
	if err != nil || a < 0 {
		return 0, 0, fmt.Errorf("bad %q", aStr)
	}
	b, err := strconv.Atoi(bStr)
	if err != nil || b < 0 {
		return 0, 0, fmt.Errorf("bad %q", bStr)
	}
	return a, b, nil
}

// reportShards prints the per-shard placement of a sharded deployment:
// every group is one full hybrid cluster of n nodes, laid out over
// contiguous global replica indices, owning one contiguous slice of the
// hashed keyspace.
func reportShards(n, shards int) {
	sh := config.Sharding{Shards: shards, ReplicasPerShard: n}
	err := sh.Validate()
	var boot *placement.Map
	if err == nil {
		boot, err = placement.Bootstrap(shards, shards, n)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sharding: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("sharded deployment: %d groups × %d nodes = %d replicas total\n", shards, n, shards*n)
	for _, e := range boot.Ranges {
		lo, hi := sh.Range(e.Group)
		hashHi := fmt.Sprintf("%#016x", e.Range.Hi)
		if e.Range.Hi == 0 {
			hashHi = "2^64" // the last range is closed by the top of the hash space
		}
		fmt.Printf("  shard %d: replicas %d..%d, key hashes [%#016x, %s)\n",
			int(e.Group), lo, hi-1, e.Range.Lo, hashHi)
	}
	fmt.Printf("  run each group as its own cluster (cmd/seemore -shards %d -shard-of <g>); clients route with -shards %d\n",
		shards, shards)
}

func report(p int, err error, s, c int, model string) {
	fmt.Printf("private cloud: S=%d, tolerating c=%d crashes\n", s, c)
	fmt.Printf("public cloud model: %s\n", model)
	switch {
	case errors.Is(err, config.ErrNoRentalNeeded):
		fmt.Printf("→ no rental needed: S ≥ 2c+1 = %d, run a crash fault-tolerant protocol locally\n", 2*c+1)
	case errors.Is(err, config.ErrPrivateCloudUseless):
		fmt.Println("→ the private cloud contributes no healthy majority (S ≤ c); rent everything and run plain BFT")
	case errors.Is(err, config.ErrPublicCloudTooFaulty):
		fmt.Println("→ infeasible: the public cloud's failure ratio is too high (α ≥ 1/3); choose another provider")
	case err != nil:
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	default:
		fmt.Printf("→ rent P = %d public nodes (network size N = %d)\n", p, s+p)
		if mb, merr := ids.NewMembership(s, p, c, estimateByz(p, model)); merr == nil {
			fmt.Printf("  quorums: Lion %d, Dog/Peacock %d (proxies: %d)\n",
				mb.AgreementQuorum(ids.Lion), mb.AgreementQuorum(ids.Dog), mb.ProxyCount())
		}
	}
}

// estimateByz derives the m implied by the model for quorum reporting;
// a rough helper, not part of the protocol.
func estimateByz(p int, model string) int {
	var alpha float64
	if _, err := fmt.Sscanf(model, "uniform model, α=%f", &alpha); err == nil {
		return int(alpha * float64(p))
	}
	var m int
	if _, err := fmt.Sscanf(model, "bound model, M=%d", &m); err == nil {
		return m
	}
	return 0
}
