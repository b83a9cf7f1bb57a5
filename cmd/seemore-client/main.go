// Command seemore-client issues key/value operations against a TCP
// SeeMoRe cluster started with cmd/seemore.
//
//	seemore-client -peers 0=127.0.0.1:7000,...,5=127.0.0.1:7005 \
//	  -s 2 -p 4 -c 1 -m 1 -op put -key greeting -value hello
//	seemore-client ... -op get -key greeting
//
// Against a sharded deployment, prefix each peer with its group and
// pass the shard count; single-key operations route to their owner
// group and -op mget fans reads out across groups:
//
//	seemore-client -shards 2 \
//	  -peers 0:0=127.0.0.1:7000,...,0:5=127.0.0.1:7005,1:0=127.0.0.1:7100,...,1:5=127.0.0.1:7105 \
//	  -op put -key greeting -value hello
//	seemore-client -shards 2 -peers ... -op mget -keys greeting,other
//
// txput writes several keys atomically — two-phase commit across their
// owner groups when they span shards:
//
//	seemore-client -shards 2 -peers ... -op txput -keys k1,k2 -values v1,v2
//
// Reads take a -consistency level: linearizable (the default) orders
// the read through consensus; leased lets a leader with a valid lease
// answer locally; stale reads any trusted replica's local state,
// bounded by -max-staleness. Range scans stream merge-sorted pairs
// across shards and page with -lo/-hi/-limit:
//
//	seemore-client ... -op get -key greeting -consistency leased
//	seemore-client ... -op get -key greeting -consistency stale -max-staleness 100ms
//	seemore-client -shards 2 -peers ... -op scan -lo user/ -hi user0 -limit 50
//
// The router starts from the epoch-1 placement of -shards groups and
// follows epoch-stamped placement: against an elastic deployment (one
// whose groups were placement-bootstrapped and may be mid-reshard), a
// group that no longer owns a key rejects the request with the current
// map attached, and the router adopts it and reroutes. A static
// deployment never leaves epoch 1. -v logs each wrong-epoch retry:
//
//	seemore-client -shards 2 -peers ... -v -op get -key greeting
//
// Request timestamps are seeded from wall-clock nanoseconds, so a
// restarted process reusing a -client id keeps getting replies from a
// durable cluster (the replicated client table only executes strictly
// newer timestamps); -initial-ts overrides the seed for reproducible
// runs.
package main

//lint:file-allow clockcheck CLI: -initial-ts mints wall-clock client timestamps and latency lines report real elapsed time

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/config"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/placement"
	"repro/internal/transport"
)

func main() {
	var (
		id       = flag.Int64("client", 0, "client id")
		s        = flag.Int("s", 2, "private cloud size S")
		p        = flag.Int("p", 4, "public cloud size P")
		c        = flag.Int("c", 1, "crash bound c")
		m        = flag.Int("m", 1, "Byzantine bound m")
		mode     = flag.String("mode", "lion", "cluster's initial mode: lion, dog, peacock")
		peers    = flag.String("peers", "", "comma-separated [group:]id=host:port replica list")
		shards   = flag.Int("shards", 1, "consensus groups the deployment is partitioned into")
		seed     = flag.Int64("seed", 1, "shared key-derivation seed")
		clients  = flag.Int64("clients", 64, "keyring client count (must match the servers)")
		suiteFl  = flag.String("suite", "ed25519", "signature suite: ed25519, hmac, none")
		op       = flag.String("op", "get", "operation: get, put, del, add, scan, mget, txput")
		key      = flag.String("key", "", "key")
		keys     = flag.String("keys", "", "comma-separated keys (mget, txput)")
		value    = flag.String("value", "", "value (put)")
		values   = flag.String("values", "", "comma-separated values (txput)")
		delta    = flag.Int64("delta", 0, "delta (add)")
		consist  = flag.String("consistency", "linearizable", "read consistency: linearizable, leased, stale (get, scan)")
		maxStale = flag.Duration("max-staleness", 0, "freshness bound for stale reads (0: only this client's own monotonic floor)")
		scanLo   = flag.String("lo", "", "scan range start, inclusive")
		scanHi   = flag.String("hi", "", "scan range end, exclusive (empty: unbounded)")
		scanN    = flag.Int("limit", 100, "max pairs per scan")
		repeat   = flag.Int("n", 1, "repeat the operation n times")
		retries  = flag.Int("max-retries", 0, "broadcast retransmissions per request (0: default)")
		retryTmo = flag.Duration("retry-timeout", 0, "wait before the first retransmission (0: the protocol timer)")
		backoff  = flag.Float64("retry-backoff", 0, "timeout multiplier per retry (≤1: fixed timeout)")
		initTS   = flag.Int64("initial-ts", -1, "initial request timestamp (-1: wall-clock nanos, the safe default for reused client ids)")
		verbose  = flag.Bool("v", false, "log placement traffic: every wrong-epoch rejection absorbed and the epoch adopted")
	)
	flag.Parse()

	mb, err := ids.NewMembership(*s, *p, *c, *m)
	if err != nil {
		log.Fatalf("membership: %v", err)
	}
	md, err := parseMode(*mode)
	if err != nil {
		log.Fatal(err)
	}
	sh := config.Sharding{Shards: *shards, ReplicasPerShard: mb.N()}.Normalized()
	if err := sh.Validate(); err != nil {
		log.Fatalf("sharding: %v", err)
	}
	// Seed the timestamp counter from the wall clock by default: the
	// replicated client table (which survives restarts on a durable
	// cluster) silently discards timestamps it has already seen, so a
	// restarted process reusing this client id must start above its
	// previous run's counter.
	ts := uint64(*initTS)
	if *initTS < 0 {
		ts = uint64(time.Now().UnixNano())
	}
	cc := config.Client{MaxRetries: *retries, RetryTimeout: *retryTmo, Backoff: *backoff, InitialTimestamp: ts}
	if err := cc.Validate(); err != nil {
		log.Fatalf("client config: %v", err)
	}
	groupPeers, err := parsePeers(*peers, sh.Shards)
	if err != nil {
		log.Fatalf("peers: %v", err)
	}
	for g := 0; g < sh.Shards; g++ {
		if len(groupPeers[g]) != mb.N() {
			log.Fatalf("group %d peer list has %d entries, cluster has %d replicas", g, len(groupPeers[g]), mb.N())
		}
	}

	var suite crypto.Suite
	switch strings.ToLower(*suiteFl) {
	case "ed25519":
		suite = crypto.NewEd25519Suite(*seed, mb.N(), *clients)
	case "hmac":
		suite = crypto.NewHMACSuite(*seed, mb.N(), *clients)
	case "none":
		suite = crypto.NoopSuite{}
	default:
		log.Fatalf("unknown suite %q", *suiteFl)
	}

	// One TCP node (and one underlying client) per group: the groups are
	// disjoint TCP clusters, and the router owns the key→group mapping.
	perGroup := make([]*client.Client, sh.Shards)
	for g := range perGroup {
		node, err := transport.NewTCPNode(transport.ClientAddr(ids.ClientID(*id)), "127.0.0.1:0", groupPeers[g])
		if err != nil {
			log.Fatalf("group %d client transport: %v", g, err)
		}
		perGroup[g] = client.NewWithConfig(ids.ClientID(*id), suite, transport.Single(node),
			client.NewSeeMoRePolicy(mb, md), config.DefaultTiming(), cc)
	}
	pm, err := placement.Bootstrap(sh.Shards, sh.Shards, mb.N())
	if err != nil {
		log.Fatalf("placement: %v", err)
	}
	router, err := client.NewRouter(perGroup, placement.NewCache(pm), nil)
	if err != nil {
		log.Fatalf("router: %v", err)
	}
	defer router.Close()
	if *verbose {
		router.OnWrongEpoch = func(g ids.GroupID, m *placement.Map) {
			log.Printf("wrong epoch at group %d: adopting epoch %d placement and rerouting", int(g), m.Epoch)
		}
	}

	if strings.EqualFold(*op, "txput") {
		// Keys and values must stay positionally aligned, so both use
		// the same tokenization (trim, keep empties — an empty value is
		// legal, an empty key is not).
		ks := splitList(*keys)
		vs := splitList(*values)
		if len(ks) == 0 || len(ks) != len(vs) {
			log.Fatalf("txput needs -keys k1,k2,... and a matching -values v1,v2,... (got %d keys, %d values)", len(ks), len(vs))
		}
		vals := make([][]byte, len(vs))
		for i, v := range vs {
			if ks[i] == "" {
				log.Fatalf("txput key %d is empty", i)
			}
			vals[i] = []byte(v)
		}
		start := time.Now()
		if err := router.MultiPut(ks, vals); err != nil {
			log.Fatalf("txput: %v", err)
		}
		fmt.Printf("OK: %d keys committed atomically across %d shard(s) in %v\n",
			len(ks), router.Shards(), time.Since(start))
		return
	}

	if strings.EqualFold(*op, "mget") {
		ks := splitKeys(*keys)
		if len(ks) == 0 {
			log.Fatal("mget needs -keys k1,k2,...")
		}
		start := time.Now()
		vals, err := router.MultiGet(ks)
		if err != nil {
			log.Fatalf("mget: %v", err)
		}
		for i, k := range ks {
			if vals[i] == nil {
				fmt.Printf("%s: NOT FOUND\n", k)
			} else {
				fmt.Printf("%s: OK %q\n", k, vals[i])
			}
		}
		fmt.Printf("(%d keys across %d shard(s) in %v)\n", len(ks), router.Shards(), time.Since(start))
		return
	}

	ropts, err := parseReadOptions(*consist, *maxStale)
	if err != nil {
		log.Fatal(err)
	}
	kv := client.NewKV(router)
	for i := 0; i < *repeat; i++ {
		switch strings.ToLower(*op) {
		case "get":
			v, found, err := kv.Get(*key, ropts)
			switch {
			case err != nil:
				reportKVError("get", err)
			case found:
				fmt.Printf("OK %q\n", v)
			default:
				fmt.Println("NOT FOUND")
			}
		case "put":
			if err := kv.Put(*key, []byte(*value)); err != nil {
				reportKVError("put", err)
			} else {
				fmt.Printf("OK %q\n", []byte(nil))
			}
		case "del":
			found, err := kv.Delete(*key)
			switch {
			case err != nil:
				reportKVError("del", err)
			case found:
				fmt.Printf("OK %q\n", []byte(nil))
			default:
				fmt.Println("NOT FOUND")
			}
		case "add":
			sum, err := kv.Add(*key, *delta)
			if err != nil {
				reportKVError("add", err)
			} else {
				fmt.Printf("OK %d\n", sum)
			}
		case "scan":
			pairs, more, err := kv.Scan(*scanLo, *scanHi, *scanN, ropts)
			if err != nil {
				log.Fatalf("scan: %v", err)
			}
			for _, p := range pairs {
				fmt.Printf("%s: %q\n", p.Key, p.Value)
			}
			if more {
				fmt.Printf("(more keys remain; resume with -lo %q)\n", pairs[len(pairs)-1].Key+"\x00")
			} else {
				fmt.Printf("(%d pairs, range exhausted)\n", len(pairs))
			}
		default:
			log.Fatalf("unknown op %q", *op)
		}
	}
}

// parseReadOptions maps the -consistency / -max-staleness flags onto
// client.ReadOptions.
func parseReadOptions(consistency string, maxStaleness time.Duration) (client.ReadOptions, error) {
	var c client.Consistency
	switch strings.ToLower(consistency) {
	case "linearizable":
		c = client.Linearizable
	case "leased":
		c = client.Leased
	case "stale":
		c = client.Stale
	default:
		return client.ReadOptions{}, fmt.Errorf("unknown consistency %q (want linearizable, leased or stale)", consistency)
	}
	return client.ReadOptions{Consistency: c, MaxStaleness: maxStaleness}, nil
}

// reportKVError renders a typed facade error, keeping the LOCKED hint
// the hand-rolled decoder used to print.
func reportKVError(op string, err error) {
	var locked *client.LockedError
	if errors.As(err, &locked) {
		fmt.Printf("LOCKED by %v — an in-flight or abandoned transaction holds this key; retry, or issue a txput touching it to trigger presumed-abort recovery\n", locked.Holder)
		return
	}
	log.Fatalf("%s: %v", op, err)
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
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}

// parsePeers splits a peer list into per-group address maps. Entries
// are id=host:port (group 0) or group:id=host:port.
func parsePeers(s string, shards int) ([]map[transport.Addr]string, error) {
	out := make([]map[transport.Addr]string, shards)
	for g := range out {
		out[g] = make(map[transport.Addr]string)
	}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("malformed peer entry %q", part)
		}
		g, id := 0, 0
		if strings.Contains(kv[0], ":") {
			if _, err := fmt.Sscanf(kv[0], "%d:%d", &g, &id); err != nil {
				return nil, fmt.Errorf("malformed peer id %q (want [group:]id)", kv[0])
			}
		} else if _, err := fmt.Sscanf(kv[0], "%d", &id); err != nil {
			return nil, fmt.Errorf("malformed peer id %q", kv[0])
		}
		if g < 0 || g >= shards {
			return nil, fmt.Errorf("peer %q names group %d outside [0, %d)", part, g, shards)
		}
		out[g][transport.ReplicaAddr(ids.ReplicaID(id))] = kv[1]
	}
	return out, nil
}

func splitKeys(s string) []string {
	var out []string
	for _, k := range strings.Split(s, ",") {
		if k = strings.TrimSpace(k); k != "" {
			out = append(out, k)
		}
	}
	return out
}

// splitList splits a comma-separated list, trimming whitespace but
// keeping empty elements, so parallel lists (txput keys/values) stay
// positionally aligned.
func splitList(s string) []string {
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
