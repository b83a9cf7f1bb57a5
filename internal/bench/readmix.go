package bench

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/statemachine"
)

// Read-mix ablation: what the fast read path buys. Ordering a read
// through consensus costs the primary a full agreement round of
// messages; a leased read costs it one receive and one reply, and a
// stale read does not even involve the primary. The sweep fixes the
// cluster and the client population and varies only the read fraction
// and the consistency level, so the curves isolate the read path from
// every other knob.

// ReadMixLeases returns the lease knob the read-mix runs use: half the
// view-change timer, with generous skew allowance — comfortably inside
// config.Leases's safety bound while staying renewed by the write
// fraction of the mix.
func ReadMixLeases(t config.Timing) config.Leases {
	return config.Leases{Duration: t.ViewChange / 2, MaxClockSkew: t.ViewChange / 8}
}

// MeasureReadMixPoint runs `clients` closed-loop clients against a
// fresh deployment built from spec, each issuing `readPct`% GETs served
// at consistency `cons` (the rest are consensus-ordered PUTs), and
// reports aggregate committed-ops throughput. Reads dispatch through
// Client.Read, writes through Invoke — exactly the split the KV facade
// performs.
func MeasureReadMixPoint(spec cluster.Spec, clients, readPct int, cons client.Consistency, opts Options) (Point, error) {
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

	ro := client.ReadOptions{Consistency: cons, MaxStaleness: 100 * time.Millisecond}
	return measureLoop(clients, opts,
		func(cid int64) (invoker, error) {
			cl := c.NewClient(ids.ClientID(cid))
			return invoker{
				invoke: func(op []byte) ([]byte, error) {
					if statemachine.IsKVRead(op) {
						return cl.Read(op, ro)
					}
					return cl.Invoke(op)
				},
				close: cl.Close,
			}, nil
		},
		func(cid int64, seq int) []byte {
			key := ShardKey(cid, seq%128)
			if seq%100 < readPct {
				return statemachine.EncodeGet(key)
			}
			return statemachine.EncodePut(key, []byte("v"))
		}), nil
}

// AblationReadMix sweeps consistency level × read fraction on one Lion
// cluster shape (c=1, m=1, leases on, per-message node budgets
// dominating — see ShardNet). The Linearizable rows are the baseline:
// every read ordered through consensus. The Leased and Stale rows show
// the same workload with reads taken off the agreement path.
func AblationReadMix(clients int, opts Options, seed int64) ([]Series, error) {
	opts.defaults()
	var out []Series
	for _, readPct := range []int{95, 50} {
		for _, cons := range []client.Consistency{client.Linearizable, client.Leased, client.Stale} {
			net := ShardNet(seed)
			spec := cluster.Spec{
				Protocol: cluster.SeeMoRe, Mode: ids.Lion,
				Crash: 1, Byz: 1, Seed: seed, Net: &net,
				Leases: ReadMixLeases(opts.Timing),
			}
			p, err := MeasureReadMixPoint(spec, clients, readPct, cons, opts)
			if err != nil {
				return out, fmt.Errorf("readmix %d%%/%v: %w", readPct, cons, err)
			}
			out = append(out, Series{
				Label:  fmt.Sprintf("%v/read=%d%%", cons, readPct),
				Points: []Point{p},
			})
		}
	}
	return out, nil
}
