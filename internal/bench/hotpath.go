package bench

//lint:file-allow clockcheck benchmark harness: measures real elapsed time on the host clock by design

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/message"
	"repro/internal/storage"
)

// Hot-path microbenchmarks: the two optimizations this layer leans on
// (pooled zero-alloc encoding, WAL group commit) each ship with an
// in-tree baseline, and `seemore-bench -exp hotpath` measures both sides
// so BENCH_hotpath.json records the actual speedups on the machine that
// ran CI — not just the ones claimed in a PR description.

// HotpathResult is one measured microbenchmark.
type HotpathResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// HotpathComparison pairs an optimized path with the baseline it
// replaced. Speedup is baseline ns/op over optimized ns/op.
type HotpathComparison struct {
	Name      string        `json:"name"`
	Baseline  HotpathResult `json:"baseline"`
	Optimized HotpathResult `json:"optimized"`
	Speedup   float64       `json:"speedup"`
}

// HotpathReport is the machine-readable document behind
// BENCH_hotpath.json.
type HotpathReport struct {
	GeneratedAt string              `json:"generated_at"`
	GoMaxProcs  int                 `json:"gomaxprocs"`
	Codec       []HotpathComparison `json:"codec"`
	WAL         []HotpathComparison `json:"wal"`
}

func toResult(name string, r testing.BenchmarkResult) HotpathResult {
	return HotpathResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
}

func compare(name string, baseline, optimized HotpathResult) HotpathComparison {
	c := HotpathComparison{Name: name, Baseline: baseline, Optimized: optimized}
	if optimized.NsPerOp > 0 {
		c.Speedup = baseline.NsPerOp / optimized.NsPerOp
	}
	return c
}

// hotpathMessages are the steady-state frame shapes the replica hot path
// encodes: a client request, an agreement vote, and a batched proposal
// (16 requests, the default batch cap).
func hotpathMessages() map[string]*message.Message {
	req := &message.Request{Op: bytes.Repeat([]byte{0x5e}, 64), Timestamp: 7, Client: 3, Sig: bytes.Repeat([]byte{1}, 64)}
	batch := make([]*message.Request, 16)
	for i := range batch {
		batch[i] = &message.Request{Op: bytes.Repeat([]byte{byte(i)}, 64), Timestamp: uint64(i), Client: 3, Sig: bytes.Repeat([]byte{2}, 64)}
	}
	return map[string]*message.Message{
		"request": {Kind: message.KindRequest, From: -1, Request: req},
		"vote":    {Kind: message.KindCommit, From: 2, View: 1, Seq: 99, Digest: req.Digest(), Sig: bytes.Repeat([]byte{3}, 64)},
		"commit-batch": {
			Kind: message.KindPrepare, From: 0, View: 1, Seq: 100,
			Digest: message.BatchDigest(batch), Batch: batch, Sig: bytes.Repeat([]byte{4}, 64),
		},
	}
}

// hotpathCodec measures pooled Encode against allocating Marshal for
// each steady-state shape. The acceptance bar is 0 allocs/op on the
// Encode side.
func hotpathCodec() []HotpathComparison {
	var out []HotpathComparison
	for _, name := range []string{"request", "vote", "commit-batch"} {
		m := hotpathMessages()[name]
		base := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = message.Marshal(m)
			}
		})
		opt := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := message.Encode(m)
				f.Release()
			}
		})
		out = append(out, compare("encode/"+name,
			toResult("marshal", base), toResult("pooled-encode", opt)))
	}
	return out
}

// hotpathWAL measures Append at FsyncEvery:1 with 1 writer (one fsync
// per append, the pre-group-commit behaviour) and 8 concurrent writers
// (where coalescing earns its keep; acceptance bar ≥3×). Real fsyncs are
// noisy, so each point is the best of three runs.
func hotpathWAL() ([]HotpathComparison, error) {
	run := func(writers int) (res testing.BenchmarkResult, err error) {
		dir, err := os.MkdirTemp("", "hotpath-wal-")
		if err != nil {
			return testing.BenchmarkResult{}, err
		}
		defer os.RemoveAll(dir)
		d, err := storage.Open(dir, storage.DiskOptions{FsyncEvery: 1})
		if err != nil {
			return testing.BenchmarkResult{}, err
		}
		// A sticky fsync error would have surfaced through Append and
		// failed the benchmark already; a close failure here means the
		// measured numbers came off a sick disk, so surface it too.
		defer func() {
			if cerr := d.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		payload := make([]byte, 256)
		rec := storage.Record{
			Kind: storage.KindProposal, Seq: 1, View: 3, Mode: 1,
			Digest: crypto.Sum(payload), Payload: payload,
		}
		res = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.SetParallelism(writers) // workers = writers × GOMAXPROCS
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := d.Append(rec); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
		return res, nil
	}
	best := func(writers int) (testing.BenchmarkResult, error) {
		var b testing.BenchmarkResult
		for i := 0; i < 3; i++ {
			r, err := run(writers)
			if err != nil {
				return b, err
			}
			if b.N == 0 || r.NsPerOp() < b.NsPerOp() {
				b = r
			}
		}
		return b, nil
	}
	serial, err := best(1)
	if err != nil {
		return nil, err
	}
	grouped, err := best(8)
	if err != nil {
		return nil, err
	}
	return []HotpathComparison{compare("wal-append/fsync-every-1",
		toResult("writers=1", serial), toResult("writers=8", grouped))}, nil
}

// RunHotpath runs every hot-path microbenchmark and collects the report.
func RunHotpath() (HotpathReport, error) {
	rep := HotpathReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Codec:       hotpathCodec(),
	}
	wal, err := hotpathWAL()
	if err != nil {
		return rep, err
	}
	rep.WAL = wal
	return rep, nil
}

// PrintHotpath renders the report as an aligned text table.
func PrintHotpath(w io.Writer, rep HotpathReport) {
	fmt.Fprintf(w, "hot-path microbenchmarks (GOMAXPROCS=%d)\n", rep.GoMaxProcs)
	fmt.Fprintf(w, "%-24s %-14s %12s %10s %10s %9s\n",
		"comparison", "side", "ns/op", "B/op", "allocs/op", "speedup")
	for _, group := range [][]HotpathComparison{rep.Codec, rep.WAL} {
		for _, c := range group {
			for i, r := range []HotpathResult{c.Baseline, c.Optimized} {
				speedup := ""
				if i == 1 {
					speedup = fmt.Sprintf("%.2fx", c.Speedup)
				}
				fmt.Fprintf(w, "%-24s %-14s %12.1f %10d %10d %9s\n",
					c.Name, r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, speedup)
			}
		}
	}
}

// WriteHotpathJSON writes the report to path (temp + rename, like
// WriteJSONReport).
func WriteHotpathJSON(path string, rep HotpathReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	b = append(b, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}
