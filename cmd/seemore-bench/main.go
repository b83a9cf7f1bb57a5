// Command seemore-bench regenerates the paper's evaluation with CLI
// control over measurement windows and load sweeps.
//
//	seemore-bench -exp all                # everything (several minutes)
//	seemore-bench -exp fig2a              # one figure
//	seemore-bench -exp table1
//	seemore-bench -exp fig4
//	seemore-bench -exp ablation-signer
//	seemore-bench -exp ablation-pipeline
//	seemore-bench -exp fig2a -measure 1s -clients 1,4,16,64,128
//	seemore-bench -exp fig2a -pipeline 16      # pipelined primaries everywhere
//	seemore-bench -exp fig2a -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/config"
	"repro/internal/ids"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: all, table1, fig2a, fig2b, fig2c, fig2d, fig3a, fig3b, fig4, ablation-signer, ablation-proxies, ablation-commit, ablation-checkpoint, ablation-crosscloud, ablation-batch, ablation-pipeline, ablation-shard, ablation-txn, ablation-readmix, ablation-reshard")
		measure  = flag.Duration("measure", 500*time.Millisecond, "measurement window per load point")
		warmup   = flag.Duration("warmup", 150*time.Millisecond, "warmup before each measurement")
		clients  = flag.String("clients", "1,2,4,8,16,32,64", "comma-separated closed-loop client counts")
		seed     = flag.Int64("seed", 1, "simulation seed")
		pipeline = flag.Int("pipeline", 0, "pipeline depth applied to every experiment cluster (0: default window)")
		shards   = flag.String("shards", "1,2,4", "comma-separated shard counts for ablation-shard")
		shardCl  = flag.Int("shard-clients", 48, "closed-loop clients per ablation-shard point (fixed across shard counts)")
		reqs     = flag.Int("table1-requests", 100, "requests per protocol for Table 1 message counting")
		retries  = flag.Int("max-retries", 0, "client broadcast retransmissions per request (0: default)")
		retryTmo = flag.Duration("retry-timeout", 0, "client wait before the first retransmission (0: the protocol timer)")
		backoff  = flag.Float64("retry-backoff", 0, "client timeout multiplier per retry (≤1: fixed)")
		jsonOut  = flag.String("json", "", "also write every measured sweep to this JSON file (machine-readable; CI uploads it as an artifact)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with `go tool pprof`)")
		memProf  = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			log.Printf("wrote CPU profile to %s", *cpuProf)
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
				return
			}
			log.Printf("wrote heap profile to %s", *memProf)
		}()
	}

	counts, err := parseCounts(*clients)
	if err != nil {
		log.Fatal(err)
	}
	shardCounts, err := parseCounts(*shards)
	if err != nil {
		log.Fatal(err)
	}
	opts := bench.Options{
		Warmup: *warmup, Measure: *measure,
		Pipeline: config.Pipelining{Depth: *pipeline},
		Client:   config.Client{MaxRetries: *retries, RetryTimeout: *retryTmo, Backoff: *backoff},
	}
	if err := opts.Client.Validate(); err != nil {
		log.Fatal(err)
	}

	var collected []bench.JSONExperiment
	record := func(name string, series []bench.Series) {
		if *jsonOut == "" {
			return
		}
		collected = append(collected, bench.JSONExperiment{Name: name, Series: bench.ExportSeries(series)})
	}

	run := func(name string) {
		switch name {
		case "table1":
			rows, err := bench.MeasureTable1(1, 1, *reqs, *seed)
			if err != nil {
				log.Fatalf("table1: %v", err)
			}
			bench.PrintTable1(os.Stdout, rows, 1, 1)
		case "fig2a", "fig2b", "fig2c", "fig2d", "fig3a", "fig3b":
			id := strings.TrimPrefix(name, "fig")
			fig, ok := bench.FigureByID(id)
			if !ok {
				log.Fatalf("unknown figure %s", id)
			}
			series, err := bench.RunFigure(fig, counts, opts, *seed)
			if err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			record(name, series)
			bench.PrintFigure(os.Stdout, fig, series)
		case "fig4":
			tlOpts := bench.TimelineOptions{
				Clients:   16,
				Bucket:    20 * time.Millisecond,
				RunFor:    2400 * time.Millisecond,
				FailAfter: 800 * time.Millisecond,
			}
			var tls []bench.Timeline
			for _, comp := range bench.Figure4Competitors(*seed) {
				tl, err := bench.RunTimeline(comp.Label, comp.Spec, tlOpts, *seed)
				if err != nil {
					log.Fatalf("fig4 %s: %v", comp.Label, err)
				}
				tls = append(tls, tl)
			}
			bench.PrintTimelines(os.Stdout, tls, tlOpts)
		case "ablation-signer":
			series, err := bench.AblationSigner(counts, opts, *seed)
			if err != nil {
				log.Fatal(err)
			}
			record(name, series)
			bench.PrintAblation(os.Stdout, "signature scheme (Lion, 0/0)", "clients", series)
		case "ablation-proxies":
			series, err := bench.AblationProxyCount(counts, opts, *seed)
			if err != nil {
				log.Fatal(err)
			}
			record(name, series)
			bench.PrintAblation(os.Stdout, "public cloud size (Dog, 0/0)", "clients", series)
		case "ablation-commit":
			series, err := bench.AblationCommitPayload(counts, opts, *seed)
			if err != nil {
				log.Fatal(err)
			}
			record(name, series)
			bench.PrintAblation(os.Stdout, "Lion commit payload (4/0)", "clients", series)
		case "ablation-checkpoint":
			series, err := bench.AblationCheckpointPeriod(counts, opts, *seed)
			if err != nil {
				log.Fatal(err)
			}
			record(name, series)
			bench.PrintAblation(os.Stdout, "checkpoint period (Lion, 0/0)", "clients", series)
		case "ablation-batch":
			series, err := bench.AblationBatchSizeAllModes(counts, opts, *seed)
			if err != nil {
				log.Fatal(err)
			}
			record(name, series)
			bench.PrintAblation(os.Stdout, "request batch size (all modes, 0/0, ed25519)", "clients", series)
		case "ablation-pipeline":
			series, err := bench.AblationPipeline(ids.Lion, counts, opts, *seed)
			if err != nil {
				log.Fatal(err)
			}
			record(name, series)
			bench.PrintAblation(os.Stdout, "pipeline depth × batch size (Lion, 0/0, ed25519)", "clients", series)
		case "ablation-shard":
			series, err := bench.AblationShard(ids.Lion, shardCounts, *shardCl, opts, *seed)
			if err != nil {
				log.Fatal(err)
			}
			record(name, series)
			bench.PrintAblation(os.Stdout, "shard count (Lion, fixed per-shard cluster, put workload)", "clients", series)
		case "ablation-txn":
			series, err := bench.AblationTxn(ids.Lion, shardCounts, *shardCl, opts, *seed)
			if err != nil {
				log.Fatal(err)
			}
			record(name, series)
			bench.PrintAblation(os.Stdout, "cross-shard 2PC vs single-key (Lion, put workload)", "clients", series)
		case "ablation-readmix":
			series, err := bench.AblationReadMix(*shardCl, opts, *seed)
			if err != nil {
				log.Fatal(err)
			}
			record(name, series)
			bench.PrintAblation(os.Stdout, "read consistency × read fraction (Lion, leases on)", "clients", series)
		case "ablation-reshard":
			series, err := bench.AblationReshard(*shardCl, opts, *seed)
			if err != nil {
				log.Fatal(err)
			}
			record(name, series)
			bench.PrintAblation(os.Stdout, "throughput before/during/after a live 2→4 shard split (Lion, elastic)", "clients", series)
		case "ablation-crosscloud":
			lat := []time.Duration{50 * time.Microsecond, 250 * time.Microsecond, time.Millisecond, 4 * time.Millisecond}
			series, err := bench.AblationCrossCloudLatency(lat, 16, opts, *seed)
			if err != nil {
				log.Fatal(err)
			}
			// Not recorded to -json: this sweep re-purposes the Clients
			// field to carry the swept latency in µs, which would read
			// as a client count in the machine-readable schema.
			bench.PrintAblation(os.Stdout, "cross-cloud latency (Lion vs Peacock)", "lat(µs)", series)
		default:
			log.Fatalf("unknown experiment %q", name)
		}
		fmt.Println()
	}

	if *exp == "all" {
		for _, name := range []string{
			"table1", "fig2a", "fig2b", "fig2c", "fig2d", "fig3a", "fig3b", "fig4",
			"ablation-signer", "ablation-proxies", "ablation-commit",
			"ablation-checkpoint", "ablation-crosscloud", "ablation-batch",
			"ablation-pipeline", "ablation-shard", "ablation-txn",
			"ablation-readmix", "ablation-reshard",
		} {
			fmt.Printf("=== %s ===\n", name)
			run(name)
		}
	} else {
		run(*exp)
	}

	if *jsonOut != "" {
		if err := bench.WriteJSONReport(*jsonOut, opts, *seed, collected); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d experiment(s) to %s", len(collected), *jsonOut)
	}
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad client count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
