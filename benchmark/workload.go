package main

//lint:file-allow clockcheck the benchmark configures real protocol timers for a wall-clock run on real sockets

import (
	"time"

	"repro/internal/config"
	"repro/internal/ids"
)

// Cluster shape shared by every workload: the paper's base deployment
// with S=2 private and P=4 public nodes tolerating c=1 crash and m=1
// Byzantine fault.
const (
	privateNodes = 2
	publicNodes  = 4
	crashBound   = 1
	byzBound     = 1
)

// totalKeys is the working set; every session owns totalKeys/sessions
// of them so a session's reads can be checked against its own writes.
const totalKeys = 1024

// workload is one set of inputs the benchmark runs. The names are
// fixed: later issues refer to them.
type workload struct {
	name string
	why  string

	mode      ids.Mode
	durable   bool // storage.Disk{FsyncEvery: 1} under every replica
	batch     config.Batching
	pipeline  config.Pipelining
	leases    config.Leases
	timing    config.Timing
	valueSize int
	sessions  int
	readPct   int // share of ops that are Leased Gets of the session's own keys

	// openLoopRate > 0 makes the load open-loop: one dispatcher issues
	// this many requests per second on a fixed schedule and each request
	// is timed from when it was due. failover crashes the primary at a
	// quarter of the window and recovers it at half.
	openLoopRate int
	failover     bool
}

// steady is generous enough that no timer fires on a healthy cluster:
// any view change or client retransmission in a steady workload is a
// finding, not noise.
var steady = config.Timing{
	ViewChange:       2 * time.Second,
	ClientRetry:      time.Second,
	CheckpointPeriod: 512,
	HighWaterMarkLag: 4096,
}

// failoverTiming keeps the outage short enough to fit a ten-second
// window several times over.
var failoverTiming = config.Timing{
	ViewChange:       300 * time.Millisecond,
	ClientRetry:      400 * time.Millisecond,
	CheckpointPeriod: 512,
	HighWaterMarkLag: 4096,
}

var workloads = []workload{
	{
		name: "lion_durable",
		why:  "Lion, one request per slot, fsync on every WAL append, 2 closed-loop sessions: storage does most of the work",
		mode: ids.Lion, durable: true, timing: steady, valueSize: 64, sessions: 2,
	},
	{
		name: "peacock_mem",
		why:  "Peacock, no storage, 2 closed-loop sessions: crypto, codec, transport and the three-phase rounds do all the work; a WAL gain must not show here",
		mode: ids.Peacock, timing: steady, valueSize: 64, sessions: 2,
	},
	{
		name: "lion_batched",
		why:  "Lion, batch 8, pipeline depth 4, fsync, 1 KiB Puts, 8 sessions: the only workload where the batcher, pipeline window, batch verification and group commit are on the path",
		mode: ids.Lion, durable: true, timing: steady, valueSize: 1024, sessions: 8,
		batch: config.Batching{BatchSize: 8}, pipeline: config.Pipelining{Depth: 4},
	},
	{
		name: "lion_readmix",
		why:  "lion_durable's cluster with leases, 90% Leased Gets and 10% Puts per session: the read path, so a write-path gain that costs reads (or the reverse) shows",
		mode: ids.Lion, durable: true, timing: steady, valueSize: 64, sessions: 2, readPct: 90,
		leases: config.Leases{Duration: 500 * time.Millisecond, MaxClockSkew: 10 * time.Millisecond},
	},
	{
		name: "lion_failover",
		why:  "lion_durable's cluster under an open-loop 100 req/s schedule with the primary crashed and recovered: the only workload through view change, re-proposal and catch-up",
		mode: ids.Lion, durable: true, timing: failoverTiming, valueSize: 64, sessions: 2,
		openLoopRate: 100, failover: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// clusterConfig assembles the validated cluster configuration the same
// way cmd/seemore does from its flags.
func (w workload) clusterConfig() (config.Cluster, error) {
	mb, err := ids.NewMembership(privateNodes, publicNodes, crashBound, byzBound)
	if err != nil {
		return config.Cluster{}, err
	}
	cl, err := config.NewCluster(mb, w.mode, w.timing)
	if err != nil {
		return config.Cluster{}, err
	}
	cl.Batching = w.batch
	cl.Pipelining = w.pipeline
	cl.Leases = w.leases
	if err := cl.Leases.Validate(cl.Timing); err != nil {
		return config.Cluster{}, err
	}
	return cl, nil
}
