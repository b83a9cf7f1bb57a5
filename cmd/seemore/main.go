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

	"repro/internal/cluster"
	"repro/internal/config"
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
	md, err := ids.ParseMode(*mode)
	if err != nil {
		log.Fatal(err)
	}
	if err := mb.SupportsMode(md); err != nil {
		log.Fatalf("cluster config: %v", err)
	}
	// The membership comes from -s/-p, which need not be the 2c/3m+1
	// shape the Spec would derive, so it travels in the Env.
	spec := cluster.Spec{
		Protocol: cluster.SeeMoRe, Mode: md, Crash: *c, Byz: *m,
		Timing:     config.DefaultTiming(),
		Batching:   config.Batching{BatchSize: *batch, BatchTimeout: *batchTmo},
		Pipelining: config.Pipelining{Depth: *pipeline},
		Leases:     config.Leases{Duration: *lease, MaxClockSkew: *leaseSkw},
	}
	if err := spec.Batching.Validate(); err != nil {
		log.Fatalf("batching: %v", err)
	}
	if err := spec.Pipelining.Validate(); err != nil {
		log.Fatalf("pipelining: %v", err)
	}
	if err := spec.Leases.Validate(spec.Timing); err != nil {
		log.Fatalf("leases: %v", err)
	}
	keys, err := crypto.NewSuite(*suite, *seed, mb.N(), *clients)
	if err != nil {
		log.Fatal(err)
	}

	// Each consensus group of a sharded deployment is its own TCP
	// cluster (own peer list, own ports) and its own durability domain:
	// one host directory can hold several groups' replicas without
	// collisions.
	dir := *dataDir
	if dir != "" && sh.Enabled() {
		dir = filepath.Join(dir, fmt.Sprintf("g%d", group))
	}
	spec.Durability = config.Durability{Dir: dir}

	peerMap, err := parsePeers(*peers)
	if err != nil {
		log.Fatalf("peers: %v", err)
	}
	node, err := transport.NewTCPNode(transport.ReplicaAddr(ids.ReplicaID(*id)), *listen, peerMap)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}

	var store storage.Store
	if spec.Durability.Enabled() {
		store, err = storage.Open(spec.Durability.Dir, storage.DiskOptions{})
		if err != nil {
			log.Fatalf("storage: %v", err)
		}
	}

	replica, err := spec.BuildNode(ids.ReplicaID(*id), cluster.Env{
		Membership:   mb,
		N:            mb.N(),
		Network:      transport.Single(node),
		Suite:        keys,
		StateMachine: statemachine.NewKVStore(),
		Store:        store, // the replica recovers from it and owns it
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
