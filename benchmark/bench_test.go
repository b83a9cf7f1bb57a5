package main

//lint:file-allow clockcheck the smoke test runs the wall-clock benchmark for a fraction of a second

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/message"
	"repro/internal/replica"
	"repro/internal/statemachine"
	"repro/internal/transport"
)

// The traced cluster hands replicas the concrete suite, never a
// wrapper: crypto.BatchVerify type-asserts an unexported capability, so
// a wrapped suite would silently verify batches one signature at a time.
// The field's static type is the guard; this fails to compile if it is
// ever widened to the crypto.Suite interface.
var _ *crypto.Ed25519Suite = (&cluster{}).suite

// benchmarkJSON is the part of ../BENCHMARK.json the tests check the
// program against.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	var bj benchmarkJSON
	if err := readJSON("../BENCHMARK.json", &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestSmoke runs lion_durable for half a second untraced and half a
// second traced on a small keyspace: operations complete, none fails,
// and the two runs report exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	wl, ok := findWorkload("lion_durable")
	if !ok {
		t.Fatal("lion_durable is not defined")
	}
	o := options{seed: 1, window: 500 * time.Millisecond, keys: 64, setups: 1, dataDir: t.TempDir()}

	check := func(res result, want []struct{ Name string }, rate string) {
		t.Helper()
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%d of %d operations failed", res.Failed, res.Attempted)
		}
		if res.Metrics[rate].Value <= 0 {
			t.Fatalf("%s = %v, want > 0", rate, res.Metrics[rate].Value)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("run reports %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
		}
		for _, m := range want {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("metric %s is named in BENCHMARK.json but not reported", m.Name)
			}
		}
	}
	res, err := runWorkload(wl, o)
	if err != nil {
		t.Fatal(err)
	}
	check(res, bj.EndToEnd, "throughput_ops")

	o.trace = true
	o.traceOut = t.TempDir() + "/spans.jsonl"
	res, err = runWorkload(wl, o)
	if err != nil {
		t.Fatal(err)
	}
	check(res, bj.PerLayer, "trace.throughput_ops")
	if got := res.Metrics["trace.joined_pct"].Value; got < 99 {
		t.Errorf("only %.1f%% of writes were joined to their proposal and reply frames", got)
	}
	if got := res.Metrics["storage.appends_per_op"].Value; got < 11.5 || got > 12.5 {
		t.Errorf("storage.appends_per_op = %.2f, want 12 (a proposal and a commit record on each of 6 replicas)", got)
	}
	spans, err := os.ReadFile(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var first spanJSON
	if err := json.Unmarshal(spans[:bytes.IndexByte(spans, '\n')], &first); err != nil || first.Name != "client.invoke" {
		t.Errorf("first span line = %+v, %v; want a client.invoke root", first, err)
	}
}

// TestWorkloadsMatchBenchmarkJSON keeps the two lists of workload names
// the same.
func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program defines %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s is named in BENCHMARK.json but not defined", w.Name)
		}
	}
	for _, w := range workloads {
		if _, err := w.clusterConfig(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// TestTracedStateMachineKeepsCapabilities: the executor finds Query and
// PlacementEpoch by type assertion. A wrapper that hid them would turn
// every leased read into a consensus round without any error.
func TestTracedStateMachineKeepsCapabilities(t *testing.T) {
	kv := statemachine.NewKVStore()
	sm := newTracer(time.Now()).stateMachine(0, kv)
	x := replica.NewExecutor(sm, 512)
	sm.Apply(statemachine.EncodePut("k", []byte("v")))
	res, ok := x.Query(statemachine.EncodeGet("k"))
	if !ok {
		t.Fatal("Executor.Query cannot see Query through the wrapper")
	}
	if st, v := statemachine.DecodeResult(res); st != statemachine.KVOK || string(v) != "v" {
		t.Fatalf("Query returned status %d value %q", st, v)
	}
	if got, want := x.PlacementEpoch(), kv.PlacementEpoch(); got != want {
		t.Fatalf("PlacementEpoch through the wrapper = %d, want %d", got, want)
	}
	seen := make(map[spanName]int)
	for _, s := range sm.log.spans {
		seen[s.name]++
	}
	if seen[spanApply] != 1 || seen[spanQuery] != 1 {
		t.Fatalf("spans by name = %v, want one apply and one query", seen)
	}
}

// nullEndpoint swallows frames.
type nullEndpoint struct{}

func (nullEndpoint) Addr() transport.Addr             { return transport.ReplicaAddr(0) }
func (nullEndpoint) Send(transport.Addr, []byte)      {}
func (nullEndpoint) Inbox() <-chan transport.Envelope { return nil }
func (nullEndpoint) Close()                           {}

// TestTracedEndpointCopiesFrames: callers encode into pooled buffers
// they reuse the moment Send returns, so whatever the wrapper keeps
// must be its own copy.
func TestTracedEndpointCopiesFrames(t *testing.T) {
	tr := newTracer(time.Now())
	ep := tr.endpoint(nullEndpoint{})
	frame := message.Marshal(&message.Message{Kind: message.KindAccept, Seq: 7})
	pristine := append([]byte(nil), frame...)

	ep.Send(transport.ReplicaAddr(1), frame)
	for i := range frame {
		frame[i] = 0xff // the caller reuses its buffer
	}
	if !bytes.Equal(ep.last, pristine) {
		t.Fatal("the endpoint wrapper kept the caller's buffer instead of a copy")
	}
	if got := tr.samples[message.KindAccept]; len(got) != 1 || !bytes.Equal(got[0], pristine) {
		t.Fatal("the codec sample aliases the caller's buffer")
	}
	ep.Send(transport.ReplicaAddr(2), pristine)
	spans := tr.collect()
	if len(spans) != 2 || !spans[0].first || spans[1].first || spans[0].frame != spans[1].frame {
		t.Fatalf("two sends of one encoding must share one frameInfo and count one message: %+v", spans)
	}
	if spans[0].frame.kind != message.KindAccept || spans[0].seq != 7 {
		t.Fatalf("frame described as %v seq %d, want ACCEPT seq 7", spans[0].frame.kind, spans[0].seq)
	}
}
