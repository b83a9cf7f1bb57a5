package main

//lint:file-allow clockcheck the load generator times requests on the host clock; that is the measurement

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/ids"
)

// opRec is one operation a session issued. Times are nanoseconds since
// the run's epoch; an open-loop request starts when it was due, not
// when a session got to it.
type opRec struct {
	start, end int64
	ts         uint64 // client timestamp of the request: with the client id, the request id spans join on
	read       bool
	ok         bool
}

func (r opRec) latencyMS() float64 { return float64(r.end-r.start) / 1e6 }

// session is one closed protocol principal: a client with one
// outstanding request, the keys it owns, and its model of what those
// keys must hold.
type session struct {
	cl   *client.Client
	kv   *client.KV
	wl   workload
	rng  *rand.Rand
	keys []string
	vals [][]byte // last acknowledged value per key
	alts [][]byte // value of a failed Put, which may or may not have applied
	ops  []opRec
}

func newSession(id int, cl *client.Client, wl workload, o options) *session {
	s := &session{
		cl:  cl,
		kv:  client.NewKV(cl),
		wl:  wl,
		rng: rand.New(rand.NewSource(o.seed*1_000_003 + int64(id))),
	}
	n := o.keys / wl.sessions
	s.keys = make([]string, n)
	s.vals = make([][]byte, n)
	s.alts = make([][]byte, n)
	for i := range s.keys {
		s.keys[i] = fmt.Sprintf("k%d-%04d", id, i)
	}
	return s
}

// put writes a fresh random value to key i and updates the model.
func (s *session) put(i int) bool {
	val := make([]byte, s.wl.valueSize)
	s.rng.Read(val)
	if err := s.kv.Put(s.keys[i], val); err != nil {
		s.alts[i] = val
		return false
	}
	s.vals[i], s.alts[i] = val, nil
	return true
}

// get issues a Leased Get of key i: the session is the key's only
// writer and has no write in flight, so anything but its last
// acknowledged value is a linearizability violation.
func (s *session) get(i int) bool {
	v, found, err := s.kv.Get(s.keys[i], client.ReadOptions{Consistency: client.Leased})
	return err == nil && found && s.holds(i, v)
}

// holds reports whether v is a value key i may hold.
func (s *session) holds(i int, v []byte) bool {
	return bytes.Equal(v, s.vals[i]) || (s.alts[i] != nil && bytes.Equal(v, s.alts[i]))
}

// step issues the next operation of the session's seeded sequence.
func (s *session) step(epoch time.Time, start int64) {
	i := s.rng.Intn(len(s.keys))
	rec := opRec{start: start, read: s.wl.readPct > 0 && s.rng.Intn(100) < s.wl.readPct}
	if rec.read {
		rec.ok = s.get(i)
	} else {
		rec.ok = s.put(i)
	}
	rec.end = int64(time.Since(epoch))
	rec.ts = s.cl.Timestamp()
	s.ops = append(s.ops, rec)
}

// preload is the warm-up: every session Puts each of its keys once, so
// connections are dialed, the first-request stall of the public-proxy
// modes is behind us and every later Get finds its key. It returns the
// slowest session's first-request latency.
func (c *cluster) preload() (firstMS float64, err error) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for _, s := range c.sessions {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			for i := range s.keys {
				t0 := time.Now()
				ok := s.put(i)
				mu.Lock()
				if !ok && err == nil {
					err = fmt.Errorf("preload: could not write %s", s.keys[i])
				}
				if ms := float64(time.Since(t0)) / 1e6; i == 0 && ms > firstMS {
					firstMS = ms
				}
				mu.Unlock()
				if !ok {
					return
				}
			}
		}(s)
	}
	wg.Wait()
	return firstMS, err
}

// ops returns every operation the sessions issued in the window.
func (c *cluster) ops() []opRec {
	var all []opRec
	for _, s := range c.sessions {
		all = append(all, s.ops...)
	}
	return all
}

// window is what one measured run of the load produced.
type window struct {
	start, end int64   // ns since epoch: first request due, last completion
	cpuMS      float64 // process user+sys CPU between start and end
	lateMS     []float64
	crashAt    int64 // failover only
	outageMS   float64
	catchupMS  float64
}

// seconds is the time the window's operations took, first request due
// to last completion: a closed loop overruns its deadline by the
// requests in flight, and an open loop by whatever backlog is left to
// drain.
func (w window) seconds() float64 { return float64(w.end-w.start) / 1e9 }

func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail with these arguments
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runClosed drives every session closed-loop for d: a session sends its
// next request only when the previous one has completed, as the paper's
// clients do.
func (c *cluster) runClosed(epoch time.Time, d time.Duration) window {
	w := window{start: int64(time.Since(epoch))}
	cpu0 := cpuNow()
	deadline := w.start + int64(d)
	var wg sync.WaitGroup
	for _, s := range c.sessions {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			for now := int64(time.Since(epoch)); now < deadline; now = int64(time.Since(epoch)) {
				s.step(epoch, now)
			}
		}(s)
	}
	wg.Wait()
	w.end = int64(time.Since(epoch))
	w.cpuMS = cpuNow() - cpu0
	return w
}

// runOpen drives a fixed-rate schedule: one dispatcher releases request
// i at start + i/rate whether or not earlier ones have completed, the
// sessions take requests in order, and each is timed from its due time.
// With failover set the view-0 primary is crashed at a quarter of the
// schedule and recovered at half.
func (c *cluster) runOpen(epoch time.Time, d time.Duration) window {
	w := window{start: int64(time.Since(epoch))}
	cpu0 := cpuNow()
	interval := time.Second / time.Duration(c.wl.openLoopRate)
	n := int(d / interval)
	// Sized to the whole schedule so the dispatcher never blocks on a
	// stalled cluster: lateness it reports is its own.
	due := make(chan int64, n)

	var wg sync.WaitGroup
	for _, s := range c.sessions {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			for at := range due {
				s.step(epoch, at)
			}
		}(s)
	}

	faults := make(chan struct{})
	go func() {
		defer close(faults)
		if !c.wl.failover {
			return
		}
		p := c.primary()
		time.Sleep(time.Duration(w.start) + d/4 - time.Since(epoch))
		p.Crash()
		w.crashAt = int64(time.Since(epoch))
		time.Sleep(time.Duration(w.start) + d/2 - time.Since(epoch))
		p.Recover()
		recoverAt := int64(time.Since(epoch))
		// Caught up: the recovered replica has executed everything the
		// rest of the group has. Give up at the end of the schedule.
		for int64(time.Since(epoch)) < w.start+int64(d) {
			if p.LastExecuted() >= c.groupExecuted(p.ID()) {
				w.catchupMS = float64(int64(time.Since(epoch))-recoverAt) / 1e6
				return
			}
			time.Sleep(time.Millisecond)
		}
		w.catchupMS = float64(w.start+int64(d)-recoverAt) / 1e6
	}()

	w.lateMS = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		at := w.start + int64(i)*int64(interval)
		time.Sleep(time.Duration(at) - time.Since(epoch))
		w.lateMS = append(w.lateMS, float64(int64(time.Since(epoch))-at)/1e6)
		due <- at
	}
	close(due)
	wg.Wait()
	w.end = int64(time.Since(epoch))
	w.cpuMS = cpuNow() - cpu0
	<-faults

	if c.wl.failover {
		// Outage: from the crash to the first completion of a request
		// that was due after it.
		first := int64(-1)
		for _, s := range c.sessions {
			for _, r := range s.ops {
				if r.ok && r.start >= w.crashAt && (first < 0 || r.end < first) {
					first = r.end
				}
			}
		}
		if first >= 0 {
			w.outageMS = float64(first-w.crashAt) / 1e6
		}
	}
	return w
}

// groupExecuted returns the highest LastExecuted among the replicas
// other than self.
func (c *cluster) groupExecuted(self ids.ReplicaID) uint64 {
	var high uint64
	for _, r := range c.replicas {
		if e := r.LastExecuted(); r.ID() != self && e > high {
			high = e
		}
	}
	return high
}

// verify reads every key back through consensus after the window (one
// ordered Scan, so the read is linearizable and also sees keys nobody
// should have written) and checks each against its owner's model. It
// returns how many keys were checked and how many were wrong.
func (c *cluster) verify() (checked, wrong int, err error) {
	pairs, more, err := c.sessions[0].kv.Scan("", "", 0, client.ReadOptions{})
	if err != nil {
		return 0, 0, fmt.Errorf("verify: %w", err)
	}
	got := make(map[string][]byte, len(pairs))
	for _, p := range pairs {
		got[p.Key] = p.Value
	}
	for _, s := range c.sessions {
		for i, k := range s.keys {
			checked++
			if v, found := got[k]; !found || !s.holds(i, v) {
				wrong++
			}
			delete(got, k)
		}
	}
	if more || len(got) > 0 {
		wrong += len(got) + 1
	}
	return checked, wrong, nil
}
