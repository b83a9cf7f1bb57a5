// Command seemore runs one SeeMoRe replica over real TCP, for
// multi-process (or multi-machine) deployments.
//
// Example 6-node hybrid cluster (S=2, P=4, c=1, m=1) on one machine:
//
//	for i in 0 1 2 3 4 5; do
//	  seemore -id $i -s 2 -p 4 -c 1 -m 1 \
//	    -listen 127.0.0.1:$((7000+i)) \
//	    -peers 0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002,3=127.0.0.1:7003,4=127.0.0.1:7004,5=127.0.0.1:7005 &
//	done
//
// Then issue requests with cmd/seemore-client. All nodes must share
// -seed (deterministic key derivation stands in for key distribution).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
)

func main() {
	var (
		id       = flag.Int("id", 0, "replica id in [0, S+P)")
		s        = flag.Int("s", 2, "private cloud size S")
		p        = flag.Int("p", 4, "public cloud size P")
		c        = flag.Int("c", 1, "crash bound c (private cloud)")
		m        = flag.Int("m", 1, "Byzantine bound m (public cloud)")
		mode     = flag.String("mode", "lion", "initial mode: lion, dog, peacock")
		listen   = flag.String("listen", "127.0.0.1:7000", "listen address")
		peers    = flag.String("peers", "", "comma-separated id=host:port peer list")
		seed     = flag.Int64("seed", 1, "shared key-derivation seed")
		clients  = flag.Int64("clients", 64, "number of client identities in the keyring")
		suite    = flag.String("suite", "ed25519", "signature suite: ed25519, hmac, none")
		batch    = flag.Int("batch", 1, "max requests per consensus slot (1 disables batching)")
		batchTmo = flag.Duration("batch-timeout", config.DefaultBatchTimeout, "partial-batch flush deadline")
		pipeline = flag.Int("pipeline", 0, "max consensus slots the primary keeps in flight (0: default window)")
		lease    = flag.Duration("lease", 0, "leader lease duration for local leased reads (0 disables; trusted modes only)")
		leaseSkw = flag.Duration("lease-skew", 0, "assumed clock-skew bound backing the lease safety margin")
		dataDir  = flag.String("data-dir", "", "durable storage directory (WAL + snapshots); empty runs fully in memory")
		fsyncEv  = flag.Int("fsync-every", 1, "fsync the WAL only once N appends are pending (1: before anything appended is sent; >1 trades a bounded power-failure window for throughput)")
		shards   = flag.Int("shards", 1, "total consensus groups in the sharded deployment this replica belongs to")
		shardOf  = flag.Int("shard-of", 0, "which group this replica serves, in [0, shards)")
	)
	flag.Parse()

	sh := config.Sharding{Shards: *shards}.Normalized()
	if err := sh.Validate(); err != nil {
		log.Fatalf("sharding: %v", err)
	}
	group := ids.GroupID(*shardOf)
	if !group.Valid() || int(group) >= sh.Shards {
		log.Fatalf("sharding: -shard-of %d outside [0, %d)", *shardOf, sh.Shards)
	}

	mb, err := ids.NewMembership(*s, *p, *c, *m)
	if err != nil {
		log.Fatalf("membership: %v", err)
	}
	md, err := parseMode(*mode)
	if err != nil {
		log.Fatal(err)
	}
	cl, err := config.NewCluster(mb, md, config.DefaultTiming())
	if err != nil {
		log.Fatalf("cluster config: %v", err)
	}
	cl.Batching = config.Batching{BatchSize: *batch, BatchTimeout: *batchTmo}
	if err := cl.Batching.Validate(); err != nil {
		log.Fatalf("batching: %v", err)
	}
	cl.Pipelining = config.Pipelining{Depth: *pipeline}
	if err := cl.Pipelining.Validate(); err != nil {
		log.Fatalf("pipelining: %v", err)
	}
	cl.Leases = config.Leases{Duration: *lease, MaxClockSkew: *leaseSkw}
	if err := cl.Leases.Validate(cl.Timing); err != nil {
		log.Fatalf("leases: %v", err)
	}

	// Each consensus group of a sharded deployment is its own TCP
	// cluster (own peer list, own ports) and its own durability domain:
	// one host directory can hold several groups' replicas without
	// collisions.
	dir := *dataDir
	if dir != "" && sh.Enabled() {
		dir = filepath.Join(dir, fmt.Sprintf("g%d", group))
	}
	cl.Durability = config.Durability{Dir: dir, FsyncEvery: *fsyncEv}
	if err := cl.Durability.Validate(); err != nil {
		log.Fatalf("durability: %v", err)
	}

	peerMap, err := parsePeers(*peers)
	if err != nil {
		log.Fatalf("peers: %v", err)
	}
	node, err := transport.NewTCPNode(transport.ReplicaAddr(ids.ReplicaID(*id)), *listen, peerMap)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}

	var store storage.Store
	if cl.Durability.Enabled() {
		store, err = storage.Open(cl.Durability.Dir, storage.DiskOptions{FsyncEvery: cl.Durability.FsyncEvery})
		if err != nil {
			log.Fatalf("storage: %v", err)
		}
	}

	replica, err := core.NewReplica(core.Options{
		ID:           ids.ReplicaID(*id),
		Cluster:      cl,
		Suite:        pickSuite(*suite, *seed, mb.N(), *clients),
		Network:      transport.Single(node),
		StateMachine: statemachine.NewKVStore(),
		Storage:      store, // the replica recovers from it and owns it
	})
	if err != nil {
		log.Fatalf("replica: %v", err)
	}
	replica.Start()
	durable := "in-memory"
	if store != nil {
		durable = "data-dir " + dir
	}
	shardInfo := ""
	if sh.Enabled() {
		shardInfo = fmt.Sprintf(", shard %d/%d", group, sh.Shards)
	}
	log.Printf("seemore replica %d up: %v, mode %s%s, listening on %s (%s)", *id, mb, md, shardInfo, node.ListenAddr(), durable)

	// Graceful shutdown: stop the engine first (no new proposals or
	// votes; the replica flushes and closes its WAL), then the
	// transport. A second signal aborts immediately for operators who
	// cannot wait.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	first := <-sig
	log.Printf("%s: shutting down gracefully (signal again to force)", first)
	go func() {
		<-sig
		log.Printf("forced exit")
		os.Exit(1)
	}()
	replica.Stop() // stops proposing, syncs and closes the durable store
	node.Close()   // drains and closes every connection
	log.Printf("shutdown complete")
}

func parseMode(s string) (ids.Mode, error) {
	switch strings.ToLower(s) {
	case "lion":
		return ids.Lion, nil
	case "dog":
		return ids.Dog, nil
	case "peacock":
		return ids.Peacock, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (lion, dog, peacock)", s)
	}
}

func parsePeers(s string) (map[transport.Addr]string, error) {
	out := make(map[transport.Addr]string)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("malformed peer entry %q (want id=host:port)", part)
		}
		var id int
		if _, err := fmt.Sscanf(kv[0], "%d", &id); err != nil {
			return nil, fmt.Errorf("malformed peer id %q", kv[0])
		}
		out[transport.ReplicaAddr(ids.ReplicaID(id))] = kv[1]
	}
	return out, nil
}

func pickSuite(name string, seed int64, replicas int, clients int64) crypto.Suite {
	switch strings.ToLower(name) {
	case "ed25519":
		return crypto.NewEd25519Suite(seed, replicas, clients)
	case "hmac":
		return crypto.NewHMACSuite(seed, replicas, clients)
	case "none":
		return crypto.NoopSuite{}
	default:
		log.Fatalf("unknown suite %q", name)
		return nil
	}
}
