package main

//lint:file-allow clockcheck the benchmark measures wall-clock set-up time of a real TCP cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/client"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
)

// cluster is one full in-process SeeMoRe deployment wired exactly like
// cmd/seemore and cmd/seemore-client: one TCPNode per replica on a
// loopback port, core.NewReplica on top, and every client session on a
// TCPNode of its own.
type cluster struct {
	wl       workload
	cfg      config.Cluster
	suite    *crypto.Ed25519Suite
	nodes    []*transport.TCPNode
	replicas []*core.Replica
	kvs      []*statemachine.KVStore
	sessions []*session
	dir      string
	tr       *tracer // nil on untraced runs
}

// clusterSerial keeps the data directories of the clusters one run
// builds apart.
var clusterSerial atomic.Int64

// buildCluster starts the replicas and connects the sessions. With a
// non-nil tracer the endpoint, store and state-machine seams are wrapped
// from outside; the crypto suite never is, because crypto.BatchVerify
// type-asserts an unexported capability and a wrapper would silently
// turn batch verification off.
func buildCluster(wl workload, o options, tr *tracer) (c *cluster, err error) {
	cfg, err := wl.clusterConfig()
	if err != nil {
		return nil, err
	}
	mb := cfg.Membership
	c = &cluster{
		wl:    wl,
		cfg:   cfg,
		suite: crypto.NewEd25519Suite(o.seed, mb.N(), int64(wl.sessions)),
		tr:    tr,
	}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	if wl.durable {
		c.dir = filepath.Join(o.dataDir, fmt.Sprintf("%s-%d-%d", wl.name, os.Getpid(), clusterSerial.Add(1)))
	}

	addrs := make(map[transport.Addr]string, mb.N())
	for i := 0; i < mb.N(); i++ {
		n, err := transport.NewTCPNode(transport.ReplicaAddr(ids.ReplicaID(i)), "127.0.0.1:0", nil)
		if err != nil {
			return c, err
		}
		c.nodes = append(c.nodes, n)
		addrs[n.Addr()] = n.ListenAddr()
	}
	for _, n := range c.nodes {
		for a, hostport := range addrs {
			if a != n.Addr() {
				n.AddPeer(a, hostport)
			}
		}
	}

	for i, n := range c.nodes {
		kv := statemachine.NewKVStore()
		c.kvs = append(c.kvs, kv)
		var (
			ep    transport.Endpoint        = n
			sm    statemachine.StateMachine = kv
			store storage.Store
			tsm   *tracedSM
		)
		if wl.durable {
			disk, err := storage.Open(filepath.Join(c.dir, fmt.Sprintf("r%d", i)), storage.DiskOptions{FsyncEvery: 1})
			if err != nil {
				return c, err
			}
			store = disk
		}
		if tr != nil {
			ep = tr.endpoint(n)
			tsm = tr.stateMachine(i, kv)
			sm = tsm
			if store != nil {
				store = tr.store(i, store)
			}
		}
		r, err := core.NewReplica(core.Options{
			ID:           ids.ReplicaID(i),
			Cluster:      cfg,
			Suite:        c.suite,
			Network:      transport.Single(ep),
			StateMachine: sm,
			Storage:      store, // the replica owns it from here
		})
		if err != nil {
			if store != nil {
				// NewReplica failed before taking ownership of the store.
				err = errors.Join(err, store.Close())
			}
			return c, err
		}
		if tsm != nil {
			// Apply carries no slot number; the execute probe fires on
			// the same goroutine right after it and supplies one.
			r.SetProbe(core.Probe{OnExecute: func(seq uint64, req *message.Request, _ []byte) {
				tsm.tagLastApply(seq, req)
			}})
		}
		c.replicas = append(c.replicas, r)
		r.Start()
	}

	for i := 0; i < wl.sessions; i++ {
		id := ids.ClientID(i)
		n, err := transport.NewTCPNode(transport.ClientAddr(id), "127.0.0.1:0", addrs)
		if err != nil {
			return c, err
		}
		var ep transport.Endpoint = n
		if tr != nil {
			ep = tr.endpoint(n)
		}
		cl := client.New(id, c.suite, transport.Single(ep), client.NewSeeMoRePolicy(mb, wl.mode), cfg.Timing)
		c.sessions = append(c.sessions, newSession(i, cl, wl, o))
	}
	return c, nil
}

// primary returns the replica that leads view 0.
func (c *cluster) primary() *core.Replica {
	return c.replicas[c.cfg.Membership.Primary(c.wl.mode, 0)]
}

// stop tears the cluster down and waits for every goroutine it owns:
// clients first so no load is in flight, then the engines (which flush
// and close their stores), then the sockets.
func (c *cluster) stop() {
	for _, s := range c.sessions {
		s.cl.Close()
	}
	var wg sync.WaitGroup
	for _, r := range c.replicas {
		wg.Add(1)
		go func(r *core.Replica) {
			defer wg.Done()
			r.Stop()
		}(r)
	}
	wg.Wait()
	for _, n := range c.nodes {
		n.Close()
	}
	if c.dir != "" {
		_ = os.RemoveAll(c.dir) // scratch WALs; a leftover directory is harmless and .gitignore covers it
	}
}

// checkReplicas compares the state machines after stop: replicas that
// executed the same prefix must hold the same state. It returns the
// number of replicas that disagree with a peer at equal LastExecuted.
func (c *cluster) checkReplicas() int {
	byExec := make(map[uint64]crypto.Digest)
	bad := 0
	for i, r := range c.replicas {
		d := statemachine.Digest(c.kvs[i])
		if first, seen := byExec[r.LastExecuted()]; !seen {
			byExec[r.LastExecuted()] = d
		} else if first != d {
			bad++
		}
	}
	return bad
}
