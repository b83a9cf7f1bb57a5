package sim

import (
	"time"

	"repro/internal/transport"
)

// simNet implements transport.Network over the harness event loop.
// Endpoints never expose a usable inbox: nodes built on this network
// are driven synchronously through their Step entry points, and every
// frame travels through the event heap instead of a channel.
type simNet struct{ s *Sim }

// Endpoint implements transport.Network.
func (n simNet) Endpoint(a transport.Addr) transport.Endpoint {
	return &simEndpoint{s: n.s, addr: a}
}

// Close implements transport.Network (the harness owns all teardown).
func (n simNet) Close() {}

type simEndpoint struct {
	s    *Sim
	addr transport.Addr
}

func (e *simEndpoint) Addr() transport.Addr { return e.addr }

// Send implements transport.Endpoint by routing through the harness.
func (e *simEndpoint) Send(to transport.Addr, frame []byte) {
	e.s.onSend(e.addr, to, frame)
}

// Inbox implements transport.Endpoint. It returns nil: a nil channel
// blocks forever, and nothing ever reads it — simulation nodes must be
// stepped, never started.
func (e *simEndpoint) Inbox() <-chan transport.Envelope { return nil }

// Close implements transport.Endpoint as a no-op.
func (e *simEndpoint) Close() {}

// linkStream returns the per-link random stream, creating it on first
// use. Each link owning its own counter is what makes delivery
// schedules immune to send-order permutations inside one handler.
func (s *Sim) linkStream(from, to transport.Addr) *stream {
	k := [2]transport.Addr{from, to}
	if st, ok := s.linkRNG[k]; ok {
		return st
	}
	id := mix64(uint64(int64(from))+0x1234567) ^ mix64(uint64(int64(to))<<1|1)
	st := newStream(s.cfg.Seed, id)
	s.linkRNG[k] = st
	return st
}

// linkCut reports whether the link from → to is currently severed by a
// partition or node isolation.
func (s *Sim) linkCut(from, to transport.Addr) bool {
	if s.isolated[from] || s.isolated[to] {
		return true
	}
	a, b := from, to
	if a > b {
		a, b = b, a
	}
	return s.blocked[[2]transport.Addr{a, b}]
}

// onSend is the harness frame path: loss, duplication and delay are
// drawn from the link's stream, and each surviving copy becomes a
// delivery event.
func (s *Sim) onSend(from, to transport.Addr, frame []byte) {
	if s.linkCut(from, to) {
		return
	}
	st := s.linkStream(from, to)
	net := s.netCfg
	if net.DropRate > 0 && st.float64() < net.DropRate {
		return
	}
	copies := 1
	if net.DupRate > 0 && st.float64() < net.DupRate {
		copies = 2
	}
	for i := 0; i < copies; i++ {
		delay := net.BaseLatency(from, to) + net.PerMessageSend + net.PerMessageRecv
		if net.Jitter > 0 && delay > 0 {
			f := 1 + net.Jitter*(2*st.float64()-1)
			delay = time.Duration(float64(delay) * f)
		}
		if delay <= 0 {
			delay = time.Nanosecond
		}
		s.scheduleIn(delay, &event{
			kind: evDeliver,
			to:   to,
			env:  transport.Envelope{From: from, Frame: frame},
		})
	}
}

// deliver routes one due delivery event, re-checking partitions so
// frames in flight when a cut starts also die, exactly like the
// goroutine SimNetwork.
func (s *Sim) deliver(ev *event) {
	if s.linkCut(ev.env.From, ev.to) {
		return
	}
	if ev.to.IsClient() {
		if id := int(ev.to.Client()); id >= 0 && id < len(s.clients) {
			s.clients[id].onEnvelope(ev.env)
		}
		return
	}
	id := int(ev.to.Replica())
	if id >= 0 && id < len(s.nodes) {
		s.nodes[id].StepEnvelope(ev.env)
	}
}
