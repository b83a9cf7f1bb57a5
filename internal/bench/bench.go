// Package bench regenerates the paper's evaluation (Section 6): the
// throughput/latency curves of Figures 2 and 3, the view-change timeline
// of Figure 4, and Table 1's protocol comparison, plus the ablation
// studies ARCHITECTURE.md calls out. Workloads follow the paper's
// micro-benchmarks: closed-loop clients ("each client waits for the
// reply before sending a subsequent request") issuing requests with
// configurable request/reply payload sizes (0/0, 0/4, 4/0).
package bench

//lint:file-allow clockcheck benchmark harness: measures real elapsed time on the host clock by design

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/statemachine"
)

// Workload is a micro-benchmark in the paper's a/b notation: request and
// reply payload sizes in bytes.
type Workload struct {
	Name        string
	RequestSize int
	ReplySize   int
}

// Benchmark00 is the 0/0 micro-benchmark (Section 6.1).
func Benchmark00() Workload { return Workload{Name: "0/0", RequestSize: 0, ReplySize: 0} }

// Benchmark04 is 0/4: empty requests, 4 KB replies (Section 6.2).
func Benchmark04() Workload { return Workload{Name: "0/4", RequestSize: 0, ReplySize: 4096} }

// Benchmark40 is 4/0: 4 KB requests, empty replies (Section 6.2).
func Benchmark40() Workload { return Workload{Name: "4/0", RequestSize: 4096, ReplySize: 0} }

// NewStateMachine builds the echo service producing this workload's
// replies.
func (w Workload) NewStateMachine() statemachine.StateMachine {
	return statemachine.NewEcho(w.ReplySize)
}

// NewOp builds one request payload.
func (w Workload) NewOp() []byte { return make([]byte, w.RequestSize) }

// Point is one measured load point: the paper's figures plot Throughput
// on x and mean Latency on y.
type Point struct {
	Clients    int
	Throughput float64 // requests per second
	Mean       time.Duration
	P50        time.Duration
	P99        time.Duration
	Errors     int
}

// Series is one protocol line across a load sweep.
type Series struct {
	Label  string
	Points []Point
}

// Options tunes a measurement run.
type Options struct {
	// Warmup runs before measurement starts (default 150ms).
	Warmup time.Duration
	// Measure is the measurement window (default 400ms).
	Measure time.Duration
	// Timing overrides protocol timers.
	Timing config.Timing
	// Pipeline, when set, is applied to every cluster the run builds
	// whose spec does not already pin a pipeline depth (the -pipeline
	// flag of cmd/seemore-bench).
	Pipeline config.Pipelining
	// Client, when set, tunes the retry behavior of every measurement
	// client (the -retry flags of cmd/seemore-bench).
	Client config.Client
}

func (o *Options) defaults() {
	if o.Warmup <= 0 {
		o.Warmup = 150 * time.Millisecond
	}
	if o.Measure <= 0 {
		o.Measure = 400 * time.Millisecond
	}
	if o.Timing == (config.Timing{}) {
		// No-failure throughput runs: timers far above any observable
		// latency so a loaded host can never trigger spurious view
		// changes mid-measurement (the paper's Figure 2/3 runs are
		// failure-free).
		o.Timing = config.Timing{
			ViewChange:       2 * time.Second,
			ClientRetry:      3 * time.Second,
			CheckpointPeriod: 2048,
			HighWaterMarkLag: 16384,
		}
	}
}

// invoker is one closed-loop measurement client: an Invoke plus its
// teardown. MeasurePoint runs protocol clients, MeasureShardPoint runs
// shard-aware routers; the measurement loop is shared.
type invoker struct {
	invoke func(op []byte) ([]byte, error)
	close  func()
}

// measureLoop drives `clients` closed-loop invokers against a running
// cluster through warmup and measurement phases and aggregates the
// committed-ops throughput and latency distribution of the window.
// newOp builds the operation for a client's seq-th request.
func measureLoop(clients int, opts Options,
	newInvoker func(cid int64) (invoker, error),
	newOp func(cid int64, seq int) []byte) Point {
	var (
		phase     atomic.Int32 // 0 warmup, 1 measuring, 2 done
		count     atomic.Int64
		errs      atomic.Int64
		latMu     sync.Mutex
		latencies []time.Duration
		wg        sync.WaitGroup
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(cid int64) {
			defer wg.Done()
			in, err := newInvoker(cid)
			if err != nil {
				errs.Add(1)
				return
			}
			defer in.close()
			var local []time.Duration
			for seq := 0; phase.Load() < 2; seq++ {
				start := time.Now()
				_, err := in.invoke(newOp(cid, seq))
				elapsed := time.Since(start)
				if phase.Load() != 1 {
					continue
				}
				if err != nil {
					errs.Add(1)
					continue
				}
				count.Add(1)
				local = append(local, elapsed)
			}
			latMu.Lock()
			latencies = append(latencies, local...)
			latMu.Unlock()
		}(int64(i))
	}

	time.Sleep(opts.Warmup)
	phase.Store(1)
	time.Sleep(opts.Measure)
	phase.Store(2)
	wg.Wait()

	p := Point{
		Clients:    clients,
		Throughput: float64(count.Load()) / opts.Measure.Seconds(),
		Errors:     int(errs.Load()),
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		var sum time.Duration
		for _, l := range latencies {
			sum += l
		}
		p.Mean = sum / time.Duration(len(latencies))
		p.P50 = latencies[len(latencies)/2]
		p.P99 = latencies[(len(latencies)*99)/100]
	}
	return p
}

// MeasurePoint runs `clients` closed-loop clients against a fresh
// cluster built from spec and reports the sustained throughput and
// latency distribution during the measurement window.
func MeasurePoint(spec cluster.Spec, w Workload, clients int, opts Options) (Point, error) {
	opts.defaults()
	spec.Timing = opts.Timing
	if spec.Pipelining.Depth == 0 {
		spec.Pipelining = opts.Pipeline
	}
	if spec.Client == (config.Client{}) {
		spec.Client = opts.Client
	}
	spec.NewStateMachine = w.NewStateMachine
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
			cl := c.NewClient(ids.ClientID(cid))
			return invoker{invoke: cl.Invoke, close: cl.Close}, nil
		},
		func(int64, int) []byte { return w.NewOp() }), nil
}

// Sweep measures a protocol line across increasing client counts.
func Sweep(label string, spec cluster.Spec, w Workload, clientCounts []int, opts Options) (Series, error) {
	s := Series{Label: label}
	for _, n := range clientCounts {
		p, err := MeasurePoint(spec, w, n, opts)
		if err != nil {
			return s, fmt.Errorf("%s @ %d clients: %w", label, n, err)
		}
		s.Points = append(s.Points, p)
	}
	return s, nil
}

// DefaultClientCounts is the load sweep used by the figure runners.
func DefaultClientCounts() []int { return []int{1, 2, 4, 8, 16, 32, 64} }

// Competitors returns the protocol lines of the paper's figures for a
// given failure mix: CFT, BFT, S-UpRight and the three SeeMoRe modes.
// Dog and Peacock require m ≥ 0 proxies; all specs share the seed.
func Competitors(c, m int, seed int64) []struct {
	Label string
	Spec  cluster.Spec
} {
	mk := func(p cluster.Protocol, mode ids.Mode) cluster.Spec {
		return cluster.Spec{Protocol: p, Mode: mode, Crash: c, Byz: m, Seed: seed}
	}
	return []struct {
		Label string
		Spec  cluster.Spec
	}{
		{"BFT", mk(cluster.PBFT, 0)},
		{"S-UpRight", mk(cluster.UpRight, 0)},
		{"Peacock", mk(cluster.SeeMoRe, ids.Peacock)},
		{"Dog", mk(cluster.SeeMoRe, ids.Dog)},
		{"Lion", mk(cluster.SeeMoRe, ids.Lion)},
		{"CFT", mk(cluster.Paxos, 0)},
	}
}
