// Command benchmark is the repository's end-to-end benchmark: per
// workload it builds a full SeeMoRe cluster (S=2, P=4, c=1, m=1,
// Ed25519, KVStore) on loopback TCP with real fsyncs, drives it from
// in-process client sessions, checks the outputs and prints every
// metric by name with its unit. No delay is injected: latency here is
// CPU + kernel loopback + fsync. See README.md.
//
//	bash benchmark/run.sh                                  # every workload, untraced then traced
//	bash benchmark/run.sh --workload lion_durable --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -compare a.json b.json
package main

//lint:file-allow clockcheck the benchmark measures wall-clock time on real sockets and a real disk

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// options is what one run of one workload needs.
type options struct {
	seed     int64
	window   time.Duration
	keys     int // working-set size; totalKeys except in the smoke test
	setups   int // how many times set-up is repeated to take a median
	dataDir  string
	trace    bool
	traceOut string
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run reports; its JSON form is the last line of
// standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how many clusters a run builds and preloads: set-up
// time is reported as their median, and the last one carries the load.
const setupRepeats = 3

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: all, untraced then traced)")
		seed     = flag.Int64("seed", 1, "seed of the operation sequences and values")
		seconds  = flag.Int("seconds", 10, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 wraps the layer seams and reports the per-layer metrics instead of the end-to-end ones")
		out      = flag.String("out", "", "also write the results as JSON to this file")
		traceOut = flag.String("trace-out", "", "write the traced run's spans as JSON lines to this file")
		dataDir  = flag.String("data-dir", ".bench_build/data", "directory for the replicas' WALs and snapshots")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareFiles(flag.Args()))
	}
	o := options{
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		keys:     totalKeys,
		setups:   setupRepeats,
		dataDir:  *dataDir,
		traceOut: *traceOut,
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds %d: the window must be at least a second", *seconds))
	}
	if *name == "" {
		os.Exit(runAll(o, *out))
	}
	wl, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	o.trace = *trace != 0
	res, err := runWorkload(wl, o)
	if err != nil {
		fatal(err)
	}
	printMetrics(wl.name, res)
	if *out != "" {
		if err := writeReport(*out, o, map[string]result{runKey(wl.name, o.trace): res}); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runWorkload sets the workload up (several times, for a steady set-up
// time), drives the load for the window, verifies the outputs and
// reports the end-to-end metrics, or the per-layer ones on a traced run.
func runWorkload(wl workload, o options) (result, error) {
	var (
		c       *cluster
		tr      *tracer
		setupS  []float64
		firstMS float64
		epoch   = time.Now() // every time of the run is nanoseconds since this
	)
	for i := 0; i < o.setups; i++ {
		if c != nil {
			c.stop()
		}
		t0 := time.Now()
		if o.trace {
			tr = newTracer(epoch)
		}
		var err error
		if c, err = buildCluster(wl, o, tr); err != nil {
			return result{}, err
		}
		if firstMS, err = c.preload(); err != nil {
			c.stop()
			return result{}, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	var w window
	if wl.openLoopRate > 0 {
		w = c.runOpen(epoch, o.window)
	} else {
		w = c.runClosed(epoch, o.window)
	}
	checked, wrong, err := c.verify()
	c.stop()
	if err != nil {
		return result{}, err
	}
	diverged := c.checkReplicas()

	ops := c.ops()
	res := result{Attempted: len(ops) + checked, Failed: wrong + diverged}
	for _, r := range ops {
		if !r.ok {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	if o.trace {
		j := newJoin(c, tr.collect())
		res.Metrics = perLayer(j, w, firstMS)
		if o.traceOut != "" {
			if err := writeSpans(o.traceOut, j); err != nil {
				return result{}, err
			}
		}
	} else {
		res.Metrics = endToEnd(ops, w, median(setupS))
	}
	return res, nil
}

// endToEnd derives what a user of the cluster sees.
func endToEnd(ops []opRec, w window, setupS float64) map[string]metric {
	var lat []float64
	for _, r := range ops {
		if r.ok {
			lat = append(lat, r.latencyMS())
		}
	}
	return map[string]metric{
		"throughput_ops": {float64(len(lat)) / w.seconds(), "1/s"},
		"p50_ms":         {median(lat), "ms"},
		"cpu_ms_per_op":  {per(w.cpuMS, float64(len(lat))), "ms"},
		"setup_s":        {setupS, "s"},
	}
}

func printMetrics(title string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s: attempted %d, failed %d, correct %v\n", title, res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// runKey names a run in a report file.
func runKey(workload string, traced bool) string {
	if traced {
		return workload + "/traced"
	}
	return workload
}

// report is the -out file: the runs of one invocation plus what they
// ran on.
type report struct {
	Go      string            `json:"go"`
	NumCPU  int               `json:"nproc"`
	Seed    int64             `json:"seed"`
	Seconds float64           `json:"seconds"`
	Runs    map[string]result `json:"runs"`
}

func writeReport(path string, o options, runs map[string]result) error {
	b, err := json.MarshalIndent(report{
		Go:      runtime.Version(),
		NumCPU:  runtime.NumCPU(),
		Seed:    o.seed,
		Seconds: o.window.Seconds(),
		Runs:    runs,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll is the one command that prints every metric: each workload
// untraced for the end-to-end numbers, then traced for the layers, with
// the tracing overhead taken from the pair.
func runAll(o options, out string) int {
	runs := make(map[string]result)
	code := 0
	spans := o.traceOut
	for _, wl := range workloads {
		var untraced float64
		if spans != "" {
			o.traceOut = spans + "." + wl.name
		}
		for _, traced := range []bool{false, true} {
			o.trace = traced
			res, err := runWorkload(wl, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
				return 2
			}
			if traced {
				t := res.Metrics["trace.throughput_ops"].Value
				res.Metrics["trace.overhead_pct"] = metric{100 * (1 - per(t, untraced)), "%"}
			} else {
				untraced = res.Metrics["throughput_ops"].Value
			}
			printMetrics(runKey(wl.name, traced), res)
			runs[runKey(wl.name, traced)] = res
			if !res.Correct {
				code = 1
			}
		}
	}
	if out != "" {
		if err := writeReport(out, o, runs); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	return code
}
