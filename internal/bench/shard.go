package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/statemachine"
	"repro/internal/transport"
)

// Sharding ablation: the horizontal throughput axis. A single consensus
// group saturates at its primary's pipeline no matter how much hardware
// the deployment adds; partitioning the keyspace across S independent
// groups multiplies the number of primaries. The sweep keeps the
// per-shard cluster fixed (same membership, same failure bounds) and
// varies only the shard count, so the curve isolates the horizontal
// scaling from every vertical knob (batching, pipelining).

// ShardNet is the simulated network the shard sweep runs on: LAN
// latencies, but with each node's virtual per-message processing budget
// raised well above the host's real per-message CPU cost. The sweep
// measures how aggregate capacity grows with the number of primaries,
// so the bottleneck must be the simulated nodes — per-group, scaling
// with shards — rather than the host cores running the simulation,
// which don't (CI often grants a single core). This is the same
// per-node virtual bottleneck philosophy SimConfig.PerMessageSend
// documents, dialed up until it dominates.
func ShardNet(seed int64) transport.SimConfig {
	c := transport.LAN(2, seed)
	c.PerMessageSend = 250 * time.Microsecond
	c.PerMessageRecv = 50 * time.Microsecond
	return c
}

// ShardKey returns the i-th key of client cid's keyspace slice. Keys
// spread uniformly across shards under hash placement, modeling a
// uniform single-key workload.
func ShardKey(cid int64, i int) string { return fmt.Sprintf("c%d-k%d", cid, i) }

// MeasureShardPoint runs `clients` closed-loop clients against a fresh
// sharded deployment built from spec (spec.Shards groups), each client
// routing uniformly distributed single-key PUTs through a shard-aware
// Router, and reports the aggregate committed-ops throughput across all
// shards. The workload is the KV store — routing needs real keys — with
// small values, so the measured cost is consensus, not execution.
func MeasureShardPoint(spec cluster.Spec, clients int, opts Options) (Point, error) {
	opts.defaults()
	spec.Timing = opts.Timing
	if spec.Pipelining.Depth == 0 {
		spec.Pipelining = opts.Pipeline
	}
	if spec.Client == (config.Client{}) {
		spec.Client = opts.Client
	}
	spec.NewStateMachine = func() statemachine.StateMachine { return statemachine.NewKVStore() }
	if spec.MaxClients < int64(clients) {
		spec.MaxClients = int64(clients) + 1
	}
	c, err := cluster.New(spec)
	if err != nil {
		return Point{}, err
	}
	defer c.Stop()

	return measureLoop(clients, opts,
		func(cid int64) (invoker, error) {
			r, err := c.NewRouter(ids.ClientID(cid))
			if err != nil {
				return invoker{}, err
			}
			return invoker{invoke: r.Invoke, close: r.Close}, nil
		},
		func(cid int64, seq int) []byte {
			return statemachine.EncodePut(ShardKey(cid, seq%128), []byte("v"))
		}), nil
}

// AblationShard sweeps the shard count on one SeeMoRe mode with the
// per-shard cluster fixed (c=1, m=1 → 6 replicas per group). Every
// point uses the same total client population, so the curve reports
// what partitioning buys a fixed user base.
func AblationShard(mode ids.Mode, shardCounts []int, clients int, opts Options, seed int64) ([]Series, error) {
	var out []Series
	for _, shards := range shardCounts {
		net := ShardNet(seed)
		spec := cluster.Spec{
			Protocol: cluster.SeeMoRe, Mode: mode,
			Crash: 1, Byz: 1, Seed: seed, Net: &net,
			Shards: shards,
		}
		p, err := MeasureShardPoint(spec, clients, opts)
		if err != nil {
			return out, fmt.Errorf("shards=%d: %w", shards, err)
		}
		out = append(out, Series{
			Label:  fmt.Sprintf("%s/shards=%d", mode, shards),
			Points: []Point{p},
		})
	}
	return out, nil
}
