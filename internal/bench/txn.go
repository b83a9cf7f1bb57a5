package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/statemachine"
)

// Cross-shard transaction ablation: what atomicity costs. A single-key
// PUT is one consensus slot in one group; a cross-shard MultiPut is a
// full two-phase commit — a prepare slot in every participant group, a
// decision slot at the coordinator group, and a commit slot in every
// participant again, all coordinated by one closed-loop client. The
// sweep holds the per-shard cluster fixed and varies the shard count,
// pairing each point with the single-key baseline from the same
// deployment shape, so the curve isolates the 2PC overhead from the
// horizontal scaling the sharding sweep already established.

// txnSpan is how many keys each benchmark transaction writes. Two is
// the canonical cross-shard case: under the hash partitioner the keys
// of one transaction land on distinct shards most of the time once
// there is more than one shard.
const txnSpan = 2

// MeasureTxnPoint runs `clients` closed-loop clients against a fresh
// sharded deployment, each client committing multi-key transactions
// (txnSpan keys per MultiPut) through the shard-aware router's 2PC
// coordinator, and reports aggregate committed-transaction throughput.
// Each client writes its own key range, so transactions never conflict
// and the measured cost is pure protocol, not lock contention.
func MeasureTxnPoint(spec cluster.Spec, clients int, opts Options) (Point, error) {
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
			seq := 0
			vals := make([][]byte, txnSpan)
			for j := range vals {
				vals[j] = []byte("v")
			}
			invoke := func([]byte) ([]byte, error) {
				keys := make([]string, txnSpan)
				for j := range keys {
					keys[j] = ShardKey(cid, (seq*txnSpan+j)%128)
				}
				seq++
				return nil, r.MultiPut(keys, vals)
			}
			return invoker{invoke: invoke, close: r.Close}, nil
		},
		func(int64, int) []byte { return nil }), nil
}

// AblationTxn sweeps the shard count on one SeeMoRe mode with the
// per-shard cluster fixed (c=1, m=1 → 6 replicas per group), measuring
// cross-shard transactional MultiPut throughput against the single-key
// PUT baseline on an identical deployment. Every point uses the same
// total client population.
func AblationTxn(mode ids.Mode, shardCounts []int, clients int, opts Options, seed int64) ([]Series, error) {
	var out []Series
	for _, shards := range shardCounts {
		mkSpec := func() cluster.Spec {
			net := ShardNet(seed)
			return cluster.Spec{
				Protocol: cluster.SeeMoRe, Mode: mode,
				Crash: 1, Byz: 1, Seed: seed, Net: &net,
				Shards: shards,
			}
		}
		single, err := MeasureShardPoint(mkSpec(), clients, opts)
		if err != nil {
			return out, fmt.Errorf("shards=%d single-key: %w", shards, err)
		}
		out = append(out, Series{
			Label:  fmt.Sprintf("%s/shards=%d/single-key", mode, shards),
			Points: []Point{single},
		})
		txp, err := MeasureTxnPoint(mkSpec(), clients, opts)
		if err != nil {
			return out, fmt.Errorf("shards=%d txn: %w", shards, err)
		}
		out = append(out, Series{
			Label:  fmt.Sprintf("%s/shards=%d/txn%d", mode, shards, txnSpan),
			Points: []Point{txp},
		})
	}
	return out, nil
}
