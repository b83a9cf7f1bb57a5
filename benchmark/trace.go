package main

//lint:file-allow clockcheck spans are stamped with the host clock; the traced run measures real time at the layer seams

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/message"
	"repro/internal/statemachine"
	"repro/internal/storage"
	"repro/internal/transport"
)

// The traced run wraps the seams between layers from outside — the
// endpoint every replica and client sends through, the store every
// replica journals to, and the state machine it applies to — and records
// one span per boundary crossing. Nothing inside internal/ changes.

// spanName is the boundary a span crossed.
type spanName uint8

const (
	spanSend spanName = iota
	spanAppend
	spanSync
	spanSaveSnapshot
	spanTruncate
	spanApply
	spanQuery
	spanSnapshot
	spanRestore
)

var spanNames = [...]string{
	spanSend:         "transport.send",
	spanAppend:       "storage.append",
	spanSync:         "storage.sync",
	spanSaveSnapshot: "storage.snapshot",
	spanTruncate:     "storage.truncate",
	spanApply:        "statemachine.apply",
	spanQuery:        "statemachine.query",
	spanSnapshot:     "statemachine.snapshot",
	spanRestore:      "statemachine.restore",
}

// reqID identifies one client request across every layer.
type reqID struct {
	client ids.ClientID
	ts     uint64
}

func (r reqID) String() string { return fmt.Sprintf("c%d.%d", int64(r.client), r.ts) }

// frameInfo is what one encoded message says about itself. A multicast
// sends one encoding to many peers; their spans share one frameInfo.
type frameInfo struct {
	kind   message.Kind
	seq    uint64
	signed bool
	// reqs are the requests the frame carries: the REQUEST or READ
	// itself, or the batch of a proposal. This is what joins a request
	// to its slot.
	reqs []reqID
	// reply is the request a REPLY answers.
	reply reqID
}

// span is one boundary crossing. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	name       spanName
	node       transport.Addr // the replica or client that crossed the boundary
	start, end int64
	bytes      int
	seq        uint64
	req        reqID // an apply's request, once the execute probe has tagged it

	// Sends only.
	to    transport.Addr
	frame *frameInfo
	first bool // the send that carried this encoding first: counts messages, not copies

	recKind storage.Kind // appends only
}

func (s span) us() float64 { return float64(s.end-s.start) / 1e3 }

// spanLog is one wrapper's spans. Each seam is crossed by one goroutine
// at a time, so the lock is uncontended; it is there for the final
// collection.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// samplesPerKind bounds the frames kept per message kind for the
// standalone codec timing.
const samplesPerKind = 32

type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	logs    []*spanLog
	samples map[message.Kind][][]byte
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, samples: make(map[message.Kind][][]byte)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newLog() *spanLog {
	l := &spanLog{}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

// collect returns every span recorded so far. Call it after the cluster
// has stopped.
func (t *tracer) collect() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []span
	for _, l := range t.logs {
		l.mu.Lock()
		all = append(all, l.spans...)
		l.mu.Unlock()
	}
	return all
}

// describe decodes a sent frame. frame must already be the tracer's own
// copy: it may be kept as a codec sample.
func (t *tracer) describe(frame []byte) *frameInfo {
	m, err := message.Unmarshal(frame)
	if err != nil {
		return &frameInfo{} // KindInvalid: counted as a frame, joined to nothing
	}
	info := &frameInfo{kind: m.Kind, seq: m.Seq, signed: len(m.Sig) > 0}
	if m.Kind == message.KindReply {
		info.reply = reqID{m.Client, m.Timestamp}
	}
	for _, r := range m.Requests() {
		info.reqs = append(info.reqs, reqID{r.Client, r.Timestamp})
	}
	t.mu.Lock()
	if have := t.samples[m.Kind]; len(have) < samplesPerKind {
		t.samples[m.Kind] = append(have, append([]byte(nil), frame...))
	}
	t.mu.Unlock()
	return info
}

// ---------------------------------------------------------------------------
// transport seam

// tracedEndpoint times Endpoint.Send — the synchronous TCP write inside
// the engine loop — and records what each frame was.
type tracedEndpoint struct {
	transport.Endpoint
	tr  *tracer
	log *spanLog

	mu   sync.Mutex
	last []byte // the tracer's copy of the last distinct frame sent
	info *frameInfo
}

func (t *tracer) endpoint(ep transport.Endpoint) *tracedEndpoint {
	return &tracedEndpoint{Endpoint: ep, tr: t, log: t.newLog()}
}

// Send implements transport.Endpoint.
func (e *tracedEndpoint) Send(to transport.Addr, frame []byte) {
	start := e.tr.now()
	e.Endpoint.Send(to, frame)
	end := e.tr.now()

	e.mu.Lock()
	first := !bytes.Equal(e.last, frame)
	if first {
		// Send must not retain frame — the caller reuses its pooled
		// buffer the moment Send returns — so keep a copy, never the
		// slice itself.
		e.last = append(e.last[:0], frame...)
		e.info = e.tr.describe(e.last)
	}
	info := e.info
	e.mu.Unlock()
	e.log.add(span{
		name: spanSend, node: e.Addr(), to: to, start: start, end: end,
		bytes: len(frame), seq: info.seq, frame: info, first: first,
	})
}

// ---------------------------------------------------------------------------
// storage seam

// tracedStore times the calls that write; reads (Replay,
// LatestSnapshot) and Close pass straight through.
type tracedStore struct {
	storage.Store
	tr   *tracer
	log  *spanLog
	node transport.Addr
}

func (t *tracer) store(replica int, st storage.Store) *tracedStore {
	return &tracedStore{Store: st, tr: t, log: t.newLog(), node: transport.ReplicaAddr(ids.ReplicaID(replica))}
}

func (s *tracedStore) timed(sp span, call func() error) error {
	sp.node = s.node
	sp.start = s.tr.now()
	err := call()
	sp.end = s.tr.now()
	s.log.add(sp)
	return err
}

// Append implements storage.Store.
func (s *tracedStore) Append(rec storage.Record) error {
	return s.timed(span{name: spanAppend, seq: rec.Seq, recKind: rec.Kind, bytes: len(rec.Payload)},
		func() error { return s.Store.Append(rec) })
}

// Sync implements storage.Store.
func (s *tracedStore) Sync() error {
	return s.timed(span{name: spanSync}, s.Store.Sync)
}

// SaveSnapshot implements storage.Store.
func (s *tracedStore) SaveSnapshot(snap storage.Snapshot) error {
	return s.timed(span{name: spanSaveSnapshot, seq: snap.Seq, bytes: len(snap.Data)},
		func() error { return s.Store.SaveSnapshot(snap) })
}

// Truncate implements storage.Store.
func (s *tracedStore) Truncate(seq uint64, epoch []storage.Record) error {
	return s.timed(span{name: spanTruncate, seq: seq},
		func() error { return s.Store.Truncate(seq, epoch) })
}

// ---------------------------------------------------------------------------
// state-machine seam

// tracedSM times the state machine. It forwards the two optional
// capabilities the executor type-asserts for — Query (without it leased
// reads silently degrade to consensus) and PlacementEpoch — so the
// traced cluster takes the same code paths as the plain one.
type tracedSM struct {
	inner *statemachine.KVStore
	tr    *tracer
	log   *spanLog
	node  transport.Addr
}

func (t *tracer) stateMachine(replica int, kv *statemachine.KVStore) *tracedSM {
	return &tracedSM{inner: kv, tr: t, log: t.newLog(), node: transport.ReplicaAddr(ids.ReplicaID(replica))}
}

func (m *tracedSM) record(name spanName, bytes int, start int64) {
	m.log.add(span{name: name, node: m.node, start: start, end: m.tr.now(), bytes: bytes})
}

// Apply implements statemachine.StateMachine.
func (m *tracedSM) Apply(op []byte) []byte {
	start := m.tr.now()
	res := m.inner.Apply(op)
	m.record(spanApply, len(op), start)
	return res
}

// Snapshot implements statemachine.StateMachine.
func (m *tracedSM) Snapshot() []byte {
	start := m.tr.now()
	snap := m.inner.Snapshot()
	m.record(spanSnapshot, len(snap), start)
	return snap
}

// Restore implements statemachine.StateMachine.
func (m *tracedSM) Restore(snapshot []byte) error {
	start := m.tr.now()
	err := m.inner.Restore(snapshot)
	m.record(spanRestore, len(snapshot), start)
	return err
}

// Query is the executor's optional local-read capability.
func (m *tracedSM) Query(op []byte) ([]byte, bool) {
	start := m.tr.now()
	res, ok := m.inner.Query(op)
	m.record(spanQuery, len(op), start)
	return res, ok
}

// PlacementEpoch is the executor's optional placement capability.
func (m *tracedSM) PlacementEpoch() uint64 { return m.inner.PlacementEpoch() }

// tagLastApply stamps the most recent span — the Apply that just
// returned on this same engine goroutine — with its slot and request.
func (m *tracedSM) tagLastApply(seq uint64, req *message.Request) {
	m.log.mu.Lock()
	if n := len(m.log.spans); n > 0 && m.log.spans[n-1].name == spanApply {
		m.log.spans[n-1].seq = seq
		m.log.spans[n-1].req = reqID{req.Client, req.Timestamp}
	}
	m.log.mu.Unlock()
}

// ---------------------------------------------------------------------------
// span export

// spanJSON is one line of the -trace-out file.
type spanJSON struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // the span that caused this one; 0 for a root
	Node   string `json:"node,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    string `json:"req,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
	Kind   string `json:"kind,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
}

// writeSpans writes every span of the run as JSON lines: one
// client.invoke root per request with its three stage spans as
// children, and every boundary crossing parented to the stage whose self
// time it is subtracted from, or else to the root of the request (or of
// its slot's first request) it worked for.
func writeSpans(path string, j *join) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // error paths only: the success path checks Close below
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	c := j.c

	next := 0
	emit := func(s spanJSON) (int, error) {
		next++
		s.ID = next
		return next, enc.Encode(s)
	}
	roots := make(map[reqID]int)
	stageOf := make(map[*span]int) // boundary spans charged to a stage
	for _, s := range c.sessions {
		node := transport.ClientAddr(s.cl.ID())
		for _, op := range s.ops {
			id := reqID{s.cl.ID(), op.ts}
			root, err := emit(spanJSON{Name: "client.invoke", Node: node.String(), Start: op.start, End: op.end, Req: id.String()})
			if err != nil {
				return err
			}
			roots[id] = root
			st, ok := j.stages(id, op)
			if !ok {
				continue
			}
			for _, stage := range []struct {
				name       string
				start, end int64
				children   []*span
			}{
				{"replica.submit", op.start, st.proposed, st.submitKids},
				{"core.order", st.proposed, st.replied, st.orderKids},
				{"client.reply", st.replied, op.end, nil},
			} {
				sid, err := emit(spanJSON{Name: stage.name, Parent: root, Start: stage.start, End: stage.end, Req: id.String(), Seq: st.seq})
				if err != nil {
					return err
				}
				for _, k := range stage.children {
					// A batched slot's crossings are children of every one
					// of its requests' stages; the file parents them to
					// the first.
					if _, taken := stageOf[k]; !taken {
						stageOf[k] = sid
					}
				}
			}
		}
	}
	for i := range j.spans {
		s := &j.spans[i]
		out := spanJSON{Name: spanNames[s.name], Node: s.node.String(), Start: s.start, End: s.end, Seq: s.seq, Bytes: s.bytes}
		owner, owned := j.owner(s)
		if owned {
			out.Req = owner.String()
			out.Parent = roots[owner]
		}
		if sid, ok := stageOf[s]; ok {
			out.Parent = sid
		}
		switch s.name {
		case spanSend:
			out.Kind = s.frame.kind.String()
		case spanAppend:
			out.Kind = s.recKind.String()
		}
		if _, err := emit(out); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
