package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/ids"
	"repro/internal/transport"
)

// Ablation studies for the design choices ARCHITECTURE.md calls out. Each
// returns labeled series over the same load sweep so the effect of one
// knob is isolated.

// AblationSigner compares signature schemes on the Lion mode: ed25519
// (the paper's standard public-key assumption), HMAC (MAC-vector-style
// authenticators, BFT-SMaRt's default), and none (upper bound).
func AblationSigner(clientCounts []int, opts Options, seed int64) ([]Series, error) {
	var out []Series
	for _, suite := range []string{"ed25519", "hmac", "none"} {
		spec := cluster.Spec{
			Protocol: cluster.SeeMoRe, Mode: ids.Lion,
			Crash: 1, Byz: 1, Suite: suite, Seed: seed,
		}
		s, err := Sweep("lion/"+suite, spec, Benchmark00(), clientCounts, opts)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

// AblationProxyCount compares a Dog deployment with exactly 3m+1 public
// nodes against over-provisioned public clouds. The paper: "The public
// cloud might have more than 3m+1 replicas, however, 3m+1 is enough to
// reach consensus and any additional replicas may degrade the
// performance."
func AblationProxyCount(clientCounts []int, opts Options, seed int64) ([]Series, error) {
	var out []Series
	for _, extra := range []int{0, 2, 4} {
		spec := cluster.Spec{
			Protocol: cluster.SeeMoRe, Mode: ids.Dog,
			Crash: 1, Byz: 1, ExtraPublic: extra, Seed: seed,
		}
		s, err := Sweep(fmt.Sprintf("dog/P=%d", 4+extra), spec, Benchmark00(), clientCounts, opts)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

// AblationCommitPayload compares Lion with the paper's full commits
// (µ attached) against digest-only commits, using the 4/0 benchmark
// where the attached request is 4 KB and the bandwidth cost shows.
func AblationCommitPayload(clientCounts []int, opts Options, seed int64) ([]Series, error) {
	var out []Series
	for _, lean := range []bool{false, true} {
		label := "lion/commit+µ"
		if lean {
			label = "lion/commit-digest"
		}
		spec := cluster.Spec{
			Protocol: cluster.SeeMoRe, Mode: ids.Lion,
			Crash: 1, Byz: 1, LeanCommits: lean, Seed: seed,
		}
		s, err := Sweep(label, spec, Benchmark40(), clientCounts, opts)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

// BatchSizes is the request-batching sweep used by the batching
// ablation: unbatched, a small batch, and a deep batch.
func BatchSizes() []int { return []int{1, 8, 64} }

// AblationBatchSize sweeps the primary's request batch size on one
// SeeMoRe mode. Batching amortizes a whole agreement round — and its
// per-message signing work — over up to BatchSize requests, which is
// the standard BFT throughput lever the paper's per-request rounds
// leave on the table. Ed25519 signatures (the paper's standard
// assumption) make the amortized cost visible.
func AblationBatchSize(mode ids.Mode, clientCounts []int, opts Options, seed int64) ([]Series, error) {
	var out []Series
	for _, bs := range BatchSizes() {
		spec := cluster.Spec{
			Protocol: cluster.SeeMoRe, Mode: mode,
			Crash: 1, Byz: 1, Suite: "ed25519", Seed: seed,
			Batching: config.Batching{BatchSize: bs},
		}
		s, err := Sweep(fmt.Sprintf("%s/batch=%d", mode, bs), spec, Benchmark00(), clientCounts, opts)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

// AblationBatchSizeAllModes runs the batch-size sweep over Lion, Dog
// and Peacock, returning one series per (mode, batch size) pair — the
// batched-vs-unbatched throughput comparison across every consensus
// mode.
func AblationBatchSizeAllModes(clientCounts []int, opts Options, seed int64) ([]Series, error) {
	var out []Series
	for _, mode := range []ids.Mode{ids.Lion, ids.Dog, ids.Peacock} {
		series, err := AblationBatchSize(mode, clientCounts, opts, seed)
		if err != nil {
			return out, err
		}
		out = append(out, series...)
	}
	return out, nil
}

// PipelineDepths is the proposal-window sweep of the pipelining
// ablation: stop-and-wait, a shallow window, and a deep one.
func PipelineDepths() []int { return []int{1, 4, 16} }

// AblationPipelineCrossCloud is the inter-cloud one-way latency the
// pipelining ablation runs under: what the pipeline exists to hide is
// the agreement round trips between the private and public clouds, so
// the sweep uses the paper's hybrid setting (clouds a WAN hop apart)
// rather than the µs-scale LAN where crypto, not latency, is the
// ceiling.
const AblationPipelineCrossCloud = time.Millisecond

// AblationPipeline crosses pipeline depth with batch size on one
// SeeMoRe mode. Depth 1 is stop-and-wait — one slot must commit before
// the next is proposed — so the sweep isolates how much throughput
// comes from overlapping the agreement round trips of independent slots
// versus from packing more requests into each slot. Ed25519 keeps the
// signing cost realistic: every signature a replica checks costs one
// full verification, which larger batches do not amortize.
func AblationPipeline(mode ids.Mode, clientCounts []int, opts Options, seed int64) ([]Series, error) {
	var out []Series
	for _, depth := range PipelineDepths() {
		for _, bs := range []int{1, 8} {
			net := transport.WAN(2, AblationPipelineCrossCloud, seed)
			spec := cluster.Spec{
				Protocol: cluster.SeeMoRe, Mode: mode,
				Crash: 1, Byz: 1, Suite: "ed25519", Seed: seed, Net: &net,
				Batching:   config.Batching{BatchSize: bs},
				Pipelining: config.Pipelining{Depth: depth},
			}
			label := fmt.Sprintf("%s/depth=%d/batch=%d", mode, depth, bs)
			s, err := Sweep(label, spec, Benchmark00(), clientCounts, opts)
			if err != nil {
				return out, err
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// AblationCheckpointPeriod sweeps the checkpoint period on Lion. Small
// periods pay constant snapshot+broadcast overhead; huge periods grow
// the log and slow view changes — the knob behind the paper's
// 10000-request period choice.
func AblationCheckpointPeriod(clientCounts []int, opts Options, seed int64) ([]Series, error) {
	opts.defaults()
	var out []Series
	for _, period := range []uint64{64, 512, 4096} {
		timing := opts.Timing
		timing.CheckpointPeriod = period
		if timing.HighWaterMarkLag < 8*period {
			timing.HighWaterMarkLag = 8 * period
		}
		o := opts
		o.Timing = timing
		spec := cluster.Spec{
			Protocol: cluster.SeeMoRe, Mode: ids.Lion,
			Crash: 1, Byz: 1, Seed: seed,
		}
		s, err := Sweep(fmt.Sprintf("lion/ckpt=%d", period), spec, Benchmark00(), clientCounts, o)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

// AblationCrossCloudLatency finds the crossover that motivates the
// Peacock mode (Section 5.3): as the private↔public distance grows, the
// extra in-cloud phase becomes cheaper than cross-cloud round trips.
// Clients sit near the public cloud, as in the paper's motivating
// scenario ("a high percentage of requests are sent by clients that are
// ... much closer to the public cloud").
func AblationCrossCloudLatency(crossCloud []time.Duration, clients int, opts Options, seed int64) ([]Series, error) {
	modes := []ids.Mode{ids.Lion, ids.Peacock}
	out := make([]Series, len(modes))
	for i, mode := range modes {
		out[i].Label = "seemore/" + mode.String()
	}
	for _, cc := range crossCloud {
		for i, mode := range modes {
			net := transport.WAN(2, cc, seed) // S = 2c = 2 private nodes
			spec := cluster.Spec{
				Protocol: cluster.SeeMoRe, Mode: mode,
				Crash: 1, Byz: 1, Net: &net, Seed: seed,
			}
			p, err := MeasurePoint(spec, Benchmark00(), clients, opts)
			if err != nil {
				return out, err
			}
			// Re-purpose Clients to carry the swept latency in µs so the
			// printer can show it.
			p.Clients = int(cc / time.Microsecond)
			out[i].Points = append(out[i].Points, p)
		}
	}
	return out, nil
}

// PrintAblation renders ablation series generically.
func PrintAblation(w io.Writer, title, xlabel string, series []Series) {
	fmt.Fprintf(w, "Ablation: %s\n", title)
	fmt.Fprintf(w, "%-20s %10s %14s %12s %12s %7s\n",
		"variant", xlabel, "kreq/s", "mean(ms)", "p99(ms)", "errors")
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(w, "%-20s %10d %14.2f %12.3f %12.3f %7d\n",
				s.Label, p.Clients, p.Throughput/1000, ms(p.Mean), ms(p.P99), p.Errors)
		}
	}
}
