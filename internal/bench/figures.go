package bench

//lint:file-allow clockcheck benchmark harness: measures real elapsed time on the host clock by design

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/ids"
)

// FigureSpec identifies one of the paper's throughput/latency figures.
type FigureSpec struct {
	ID       string // "2a".."2d", "3a", "3b"
	Title    string
	Crash    int
	Byz      int
	Workload Workload
}

// Figures returns every throughput/latency figure in the paper.
func Figures() []FigureSpec {
	return []FigureSpec{
		{ID: "2a", Title: "f = 2 (c = 1, m = 1), 0/0", Crash: 1, Byz: 1, Workload: Benchmark00()},
		{ID: "2b", Title: "f = 4 (c = 2, m = 2), 0/0", Crash: 2, Byz: 2, Workload: Benchmark00()},
		{ID: "2c", Title: "f = 4 (c = 1, m = 3), 0/0", Crash: 1, Byz: 3, Workload: Benchmark00()},
		{ID: "2d", Title: "f = 4 (c = 3, m = 1), 0/0", Crash: 3, Byz: 1, Workload: Benchmark00()},
		{ID: "3a", Title: "c = 1, m = 1, benchmark 0/4", Crash: 1, Byz: 1, Workload: Benchmark04()},
		{ID: "3b", Title: "c = 1, m = 1, benchmark 4/0", Crash: 1, Byz: 1, Workload: Benchmark40()},
	}
}

// FigureByID finds a figure spec.
func FigureByID(id string) (FigureSpec, bool) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, true
		}
	}
	return FigureSpec{}, false
}

// RunFigure measures every competitor line of one figure.
func RunFigure(f FigureSpec, clientCounts []int, opts Options, seed int64) ([]Series, error) {
	var out []Series
	for _, comp := range Competitors(f.Crash, f.Byz, seed) {
		s, err := Sweep(comp.Label, comp.Spec, f.Workload, clientCounts, opts)
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

// PrintFigure renders series the way the paper plots them: throughput
// (x) against latency (y), one block per protocol.
func PrintFigure(w io.Writer, f FigureSpec, series []Series) {
	fmt.Fprintf(w, "Figure %s: %s\n", f.ID, f.Title)
	fmt.Fprintf(w, "%-10s %8s %14s %12s %12s %12s %7s\n",
		"protocol", "clients", "kreq/s", "mean(ms)", "p50(ms)", "p99(ms)", "errors")
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(w, "%-10s %8d %14.2f %12.3f %12.3f %12.3f %7d\n",
				s.Label, p.Clients, p.Throughput/1000,
				ms(p.Mean), ms(p.P50), ms(p.P99), p.Errors)
		}
	}
	fmt.Fprintf(w, "peak throughput: ")
	for i, s := range series {
		if i > 0 {
			fmt.Fprintf(w, ", ")
		}
		fmt.Fprintf(w, "%s=%.1fk", s.Label, Peak(s)/1000)
	}
	fmt.Fprintln(w)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Peak returns a series' maximum throughput.
func Peak(s Series) float64 {
	best := 0.0
	for _, p := range s.Points {
		if p.Throughput > best {
			best = p.Throughput
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Figure 4: throughput timeline across a primary failure.

// TimelineBucket is one throughput sample.
type TimelineBucket struct {
	At         time.Duration
	Throughput float64 // requests/s completed in this bucket
}

// Timeline is one protocol's Figure-4 line.
type Timeline struct {
	Label   string
	Buckets []TimelineBucket
	// Outage is the longest completion gap observed after the failure
	// injection: the paper's "temporarily out of service" interval.
	Outage time.Duration
}

// TimelineOptions tunes the Figure-4 run.
type TimelineOptions struct {
	Clients   int
	Bucket    time.Duration // sample width (default 20ms)
	RunFor    time.Duration // total run (default 2.4s)
	FailAfter time.Duration // when to crash the primary (default 1/3 of RunFor)
	Timing    config.Timing
}

func (o *TimelineOptions) defaults() {
	if o.Clients <= 0 {
		o.Clients = 16
	}
	if o.Bucket <= 0 {
		o.Bucket = 20 * time.Millisecond
	}
	if o.RunFor <= 0 {
		o.RunFor = 2400 * time.Millisecond
	}
	if o.FailAfter <= 0 {
		o.FailAfter = o.RunFor / 3
	}
	if o.Timing == (config.Timing{}) {
		o.Timing = config.Timing{
			// The paper uses a checkpoint period of 10000 requests at
			// ~15-20 kreq/s, i.e. roughly 0.6s of traffic between
			// checkpoints. Our simulated clusters peak lower, so the
			// period is scaled to keep the same GC cadence — otherwise a
			// whole run fits inside one period and view-change messages
			// must carry every slot since genesis, which is precisely
			// the worst case the paper's periodic checkpoints exist to
			// bound.
			ViewChange:       120 * time.Millisecond,
			ClientRetry:      150 * time.Millisecond,
			CheckpointPeriod: 1024,
			HighWaterMarkLag: 16384,
		}
	}
}

// RunTimeline drives one protocol through a primary crash and samples
// completion throughput, reproducing Figure 4's shape: steady state,
// outage at the failure, recovery to the original level.
func RunTimeline(label string, spec cluster.Spec, opts TimelineOptions, seed int64) (Timeline, error) {
	opts.defaults()
	spec.Timing = opts.Timing
	spec.Seed = seed
	w := Benchmark00()
	spec.NewStateMachine = w.NewStateMachine
	if spec.MaxClients < int64(opts.Clients) {
		spec.MaxClients = int64(opts.Clients) + 1
	}
	c, err := cluster.New(spec)
	if err != nil {
		return Timeline{}, err
	}
	defer c.Stop()

	nBuckets := int(opts.RunFor/opts.Bucket) + 1
	counts := make([]atomic.Int64, nBuckets)
	var completions sync.Map // ordinal -> completion offset (for outage scan)
	var ordinal atomic.Int64

	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < opts.Clients; i++ {
		wg.Add(1)
		go func(cid int64) {
			defer wg.Done()
			cl := c.NewClient(ids.ClientID(cid))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.Invoke(w.NewOp()); err != nil {
					continue
				}
				at := time.Since(start)
				if b := int(at / opts.Bucket); b >= 0 && b < nBuckets {
					counts[b].Add(1)
				}
				completions.Store(ordinal.Add(1), at)
			}
		}(int64(i))
	}

	time.Sleep(opts.FailAfter)
	c.CrashNode(primaryOf(c)) // fail the current primary
	time.Sleep(opts.RunFor - opts.FailAfter)
	close(stop)
	wg.Wait()

	tl := Timeline{Label: label}
	for b := 0; b < nBuckets; b++ {
		tl.Buckets = append(tl.Buckets, TimelineBucket{
			At:         time.Duration(b) * opts.Bucket,
			Throughput: float64(counts[b].Load()) / opts.Bucket.Seconds(),
		})
	}
	tl.Outage = longestGap(&completions, opts.FailAfter, opts.RunFor)
	return tl, nil
}

// primaryOf returns the replica that is primary at view 0 for the
// cluster's protocol/mode.
func primaryOf(c *cluster.Cluster) ids.ReplicaID {
	switch c.Spec.Protocol {
	case cluster.SeeMoRe:
		return c.Membership.Primary(c.Spec.Mode, 0)
	default:
		return 0
	}
}

// longestGap finds the largest interval between consecutive completions
// after the failure point.
func longestGap(completions *sync.Map, failAt, runFor time.Duration) time.Duration {
	var times []time.Duration
	completions.Range(func(_, v interface{}) bool {
		times = append(times, v.(time.Duration))
		return true
	})
	if len(times) == 0 {
		return runFor - failAt
	}
	sortDurations(times)
	gapStart := failAt
	var longest time.Duration
	for _, t := range times {
		if t < failAt {
			continue
		}
		if g := t - gapStart; g > longest {
			longest = g
		}
		gapStart = t
	}
	if g := runFor - gapStart; g > longest {
		longest = g
	}
	return longest
}

func sortDurations(ds []time.Duration) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

// Figure4Competitors returns the protocol lines of Figure 4: the three
// SeeMoRe modes, S-UpRight and BFT (c = m = 1).
func Figure4Competitors(seed int64) []struct {
	Label string
	Spec  cluster.Spec
} {
	all := Competitors(1, 1, seed)
	var out []struct {
		Label string
		Spec  cluster.Spec
	}
	for _, comp := range all {
		if comp.Label == "CFT" {
			continue // Figure 4 plots BFT, S-UpRight and the three modes
		}
		out = append(out, comp)
	}
	return out
}

// PrintTimelines renders Figure 4.
func PrintTimelines(w io.Writer, tls []Timeline, opts TimelineOptions) {
	opts.defaults()
	fmt.Fprintf(w, "Figure 4: throughput timeline, primary crash at %v (c = m = 1, 0/0)\n", opts.FailAfter)
	fmt.Fprintf(w, "%-10s", "t(ms)")
	for _, tl := range tls {
		fmt.Fprintf(w, " %12s", tl.Label)
	}
	fmt.Fprintln(w)
	if len(tls) == 0 {
		return
	}
	for b := range tls[0].Buckets {
		fmt.Fprintf(w, "%-10.0f", ms(tls[0].Buckets[b].At))
		for _, tl := range tls {
			fmt.Fprintf(w, " %12.1f", tl.Buckets[b].Throughput/1000)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "outage after crash: ")
	for i, tl := range tls {
		if i > 0 {
			fmt.Fprintf(w, ", ")
		}
		fmt.Fprintf(w, "%s=%.0fms", tl.Label, ms(tl.Outage))
	}
	fmt.Fprintln(w)
}

// ---------------------------------------------------------------------------
// Table 1: phases, messages, receiving network and quorum sizes.

// TableRow is one protocol's Table-1 entry, both analytic (from the
// protocol definitions) and measured (from an instrumented run).
type TableRow struct {
	Protocol          string
	Phases            int
	MessageComplexity string
	ReceivingNetwork  string
	QuorumSize        string
	// MeasuredMsgs is the average number of protocol messages the
	// network carried per committed request in a live run.
	MeasuredMsgs float64
	// MeasuredBytes is the average payload bytes per request.
	MeasuredBytes float64
}

// AnalyticTable1 returns the paper's Table 1 rows.
func AnalyticTable1() []TableRow {
	return []TableRow{
		{Protocol: "Lion", Phases: 2, MessageComplexity: "O(n)", ReceivingNetwork: "3m+2c+1", QuorumSize: "2m+c+1"},
		{Protocol: "Dog", Phases: 2, MessageComplexity: "O(n^2)", ReceivingNetwork: "3m+1", QuorumSize: "2m+1"},
		{Protocol: "Peacock", Phases: 3, MessageComplexity: "O(n^2)", ReceivingNetwork: "3m+1", QuorumSize: "2m+1"},
		{Protocol: "CFT", Phases: 2, MessageComplexity: "O(n)", ReceivingNetwork: "2f+1", QuorumSize: "f+1"},
		{Protocol: "BFT", Phases: 3, MessageComplexity: "O(n^2)", ReceivingNetwork: "3f+1", QuorumSize: "2f+1"},
		{Protocol: "S-UpRight", Phases: 2, MessageComplexity: "O(n^2)", ReceivingNetwork: "3m+2c+1", QuorumSize: "2m+c+1"},
	}
}

// MeasureTable1 runs each protocol with one closed-loop client for
// `requests` operations and measures messages and bytes per request from
// the simulated network's counters.
func MeasureTable1(c, m int, requests int, seed int64) ([]TableRow, error) {
	rows := AnalyticTable1()
	timing := config.Timing{
		ViewChange:       300 * time.Millisecond,
		ClientRetry:      500 * time.Millisecond,
		CheckpointPeriod: uint64(requests) * 4, // keep checkpoint traffic out of the steady-state measure
		HighWaterMarkLag: uint64(requests) * 8,
	}
	for i := range rows {
		spec, ok := specForLabel(rows[i].Protocol, c, m, seed)
		if !ok {
			continue
		}
		spec.Timing = timing
		w := Benchmark00()
		spec.NewStateMachine = w.NewStateMachine
		cl, err := cluster.New(spec)
		if err != nil {
			return rows, err
		}
		client := cl.NewClient(0)
		// Warm up one request so connection-independent costs (none in
		// the simulator, but keep the shape) settle, then measure.
		if _, err := client.Invoke(w.NewOp()); err != nil {
			cl.Stop()
			return rows, fmt.Errorf("%s warmup: %w", rows[i].Protocol, err)
		}
		before := cl.Net.Stats()
		for k := 0; k < requests; k++ {
			if _, err := client.Invoke(w.NewOp()); err != nil {
				cl.Stop()
				return rows, fmt.Errorf("%s request %d: %w", rows[i].Protocol, k, err)
			}
		}
		after := cl.Net.Stats()
		cl.Stop()
		rows[i].MeasuredMsgs = float64(after.Sent-before.Sent) / float64(requests)
		rows[i].MeasuredBytes = float64(after.BytesSent-before.BytesSent) / float64(requests)
	}
	return rows, nil
}

func specForLabel(label string, c, m int, seed int64) (cluster.Spec, bool) {
	for _, comp := range Competitors(c, m, seed) {
		if comp.Label == label {
			return comp.Spec, true
		}
	}
	return cluster.Spec{}, false
}

// PrintTable1 renders the comparison.
func PrintTable1(w io.Writer, rows []TableRow, c, m int) {
	fmt.Fprintf(w, "Table 1: comparison of fault-tolerant protocols (measured with c=%d, m=%d, one client)\n", c, m)
	fmt.Fprintf(w, "%-10s %7s %10s %10s %8s %12s %12s\n",
		"protocol", "phases", "messages", "network", "quorum", "msgs/req", "bytes/req")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %7d %10s %10s %8s %12.1f %12.0f\n",
			r.Protocol, r.Phases, r.MessageComplexity, r.ReceivingNetwork, r.QuorumSize,
			r.MeasuredMsgs, r.MeasuredBytes)
	}
}
