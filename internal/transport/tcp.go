package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// maxFrameSize bounds a TCP frame; larger frames are treated as a
// protocol violation and the connection is dropped.
const maxFrameSize = 64 << 20

// TCPNode is a real-network endpoint for multi-process deployments
// (cmd/seemore). Each node listens on its own address and lazily dials
// peers. Frames are length-prefixed; the first frame on every outbound
// connection is a hello declaring the sender's cluster address.
//
// TCPNode implements Endpoint directly; there is no Network object
// because each process owns exactly one node.
type TCPNode struct {
	addr  Addr
	ln    net.Listener
	peers map[Addr]string

	mu      sync.Mutex
	conns   map[Addr]net.Conn
	inbound map[net.Conn]struct{}
	// inboundByAddr indexes inbound connections by the sender's declared
	// cluster address, so replies can reuse the connection a client (or
	// peer behind NAT) opened to us instead of dialing back.
	inboundByAddr map[Addr]net.Conn
	closed        bool

	inbox chan Envelope
	// dropped counts received frames discarded on a full inbox.
	dropped atomic.Uint64
	wg      sync.WaitGroup
}

// NewTCPNode starts a node for cluster address addr, listening on
// listenAddr ("host:port"; ":0" picks a free port) and knowing peers'
// dialable addresses. Client endpoints may pass an empty peers map and
// add destinations later with AddPeer. A client node connects to every
// peer it is given here before it returns (see dialAll).
func NewTCPNode(addr Addr, listenAddr string, peers map[Addr]string) (*TCPNode, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	n := &TCPNode{
		addr:          addr,
		ln:            ln,
		peers:         make(map[Addr]string, len(peers)),
		conns:         make(map[Addr]net.Conn),
		inbound:       make(map[net.Conn]struct{}),
		inboundByAddr: make(map[Addr]net.Conn),
		inbox:         make(chan Envelope, 8192),
	}
	for a, s := range peers {
		n.peers[a] = s
	}
	n.wg.Add(1)
	go n.acceptLoop()
	if addr.IsClient() {
		n.dialAll()
	}
	return n, nil
}

// dialAll opens a connection to every known peer, in parallel, and
// waits for the dials, each bounded as Send's is. Nothing is sent but
// the hello, which is enough: a replica answers a client over the
// connection the client opened (conn), so a Dog or Peacock proxy can
// reply to a client's first request, which went to the primary alone,
// instead of dropping the reply until the client's retry broadcasts.
// A failed dial is dropped as Send drops it; the next Send dials again.
func (n *TCPNode) dialAll() {
	var wg sync.WaitGroup
	for a := range n.peers {
		wg.Add(1)
		go func(a Addr) {
			defer wg.Done()
			_, _ = n.conn(a) // best-effort, like Send
		}(a)
	}
	wg.Wait()
}

// ListenAddr returns the bound listen address (useful with ":0").
func (n *TCPNode) ListenAddr() string { return n.ln.Addr().String() }

// AddPeer registers or updates a peer's dialable address.
func (n *TCPNode) AddPeer(a Addr, hostport string) {
	n.mu.Lock()
	n.peers[a] = hostport
	n.mu.Unlock()
}

// Addr implements Endpoint.
func (n *TCPNode) Addr() Addr { return n.addr }

// Inbox implements Endpoint.
func (n *TCPNode) Inbox() <-chan Envelope { return n.inbox }

// Dropped returns how many received frames the node has discarded
// because its inbox was full.
func (n *TCPNode) Dropped() uint64 { return n.dropped.Load() }

// Send implements Endpoint. Delivery is best-effort: dial or write
// failures drop the frame and reset the cached connection, matching the
// asynchronous network model.
func (n *TCPNode) Send(to Addr, frame []byte) {
	conn, err := n.conn(to)
	if err != nil {
		return
	}
	if err := writeFrame(conn, frame); err != nil {
		n.dropConn(to, conn)
	}
}

// Close implements Endpoint.
func (n *TCPNode) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	conns := make([]net.Conn, 0, len(n.conns)+len(n.inbound))
	for _, c := range n.conns {
		conns = append(conns, c)
	}
	for c := range n.inbound {
		conns = append(conns, c)
	}
	n.conns = map[Addr]net.Conn{}
	n.inbound = map[net.Conn]struct{}{}
	n.inboundByAddr = map[Addr]net.Conn{}
	n.mu.Unlock()

	n.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	n.wg.Wait()
	close(n.inbox)
}

func (n *TCPNode) conn(to Addr) (net.Conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, errors.New("transport: node closed")
	}
	if c, ok := n.conns[to]; ok {
		n.mu.Unlock()
		return c, nil
	}
	// An inbound connection from that address serves replies without a
	// dial-back (clients are not in the peers map).
	if c, ok := n.inboundByAddr[to]; ok {
		n.mu.Unlock()
		return c, nil
	}
	hostport, ok := n.peers[to]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: unknown peer %s", to)
	}

	c, err := net.DialTimeout("tcp", hostport, 2*time.Second)
	if err != nil {
		return nil, err
	}
	// Hello: declare our cluster address so the receiver can stamp
	// envelopes. Real deployments would authenticate this handshake
	// (e.g. TLS client certs); the protocol layer's signatures are the
	// actual trust anchor for Byzantine-relevant messages.
	var hello [8]byte
	binary.BigEndian.PutUint64(hello[:], uint64(n.addr))
	if err := writeFrame(c, hello[:]); err != nil {
		c.Close()
		return nil, err
	}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		c.Close()
		return nil, errors.New("transport: node closed")
	}
	if existing, ok := n.conns[to]; ok {
		n.mu.Unlock()
		c.Close()
		return existing, nil
	}
	n.conns[to] = c
	n.mu.Unlock()
	// Read the reverse direction too: peers reply over the connection we
	// opened rather than dialing back.
	n.wg.Add(1)
	go n.readLoop(c, to, false)
	return c, nil
}

func (n *TCPNode) dropConn(to Addr, c net.Conn) {
	n.mu.Lock()
	if n.conns[to] == c {
		delete(n.conns, to)
	}
	if n.inboundByAddr[to] == c {
		delete(n.inboundByAddr, to)
	}
	n.mu.Unlock()
	c.Close()
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close()
			return
		}
		n.inbound[c] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(c, 0, true)
	}
}

// readLoop consumes frames from one connection. Accepted connections
// (needHello) learn the peer's cluster address from the hello frame;
// dialed connections already know it.
func (n *TCPNode) readLoop(c net.Conn, from Addr, needHello bool) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.inbound, c)
		for a, ic := range n.inboundByAddr {
			if ic == c {
				delete(n.inboundByAddr, a)
			}
		}
		if n.conns[from] == c {
			delete(n.conns, from)
		}
		n.mu.Unlock()
		c.Close()
	}()
	// One buffered reader per connection: a frame that fits its buffer,
	// header and body, arrives in one read syscall.
	br := bufio.NewReaderSize(c, readBufSize)
	if needHello {
		hello, err := readFrame(br)
		if err != nil || len(hello) != 8 {
			return
		}
		from = Addr(binary.BigEndian.Uint64(hello))
		n.mu.Lock()
		if _, taken := n.inboundByAddr[from]; !taken {
			n.inboundByAddr[from] = c
		}
		n.mu.Unlock()
	}
	for {
		frame, err := readFrame(br)
		if err != nil {
			return
		}
		n.mu.Lock()
		closed := n.closed
		n.mu.Unlock()
		if closed {
			return
		}
		select {
		case n.inbox <- Envelope{From: from, Frame: frame}:
		default:
			// Inbox overflow: drop, like the simulated network, and count
			// the drop.
			n.dropped.Add(1)
		}
	}
}

// writeBufs pools header+frame staging buffers so each send issues one
// Write (one syscall, and no header/body interleaving between frames
// racing on the same connection) without allocating per frame.
var writeBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

func writeFrame(w io.Writer, frame []byte) error {
	bp := writeBufs.Get().(*[]byte)
	buf := append((*bp)[:0], 0, 0, 0, 0)
	binary.BigEndian.PutUint32(buf, uint32(len(frame)))
	buf = append(buf, frame...)
	_, err := w.Write(buf)
	*bp = buf[:0]
	writeBufs.Put(bp)
	return err
}

// readBufSize is each connection's read buffer: every protocol frame
// but a large state transfer or batch fits it.
const readBufSize = 32 << 10

// readFrame reads one length-prefixed frame. A frame that fits r's
// buffer is allocated once, exactly; a larger one grows as its bytes
// arrive, so a length header alone — even an unauthenticated hello's —
// cannot make the node allocate maxFrameSize.
func readFrame(r *bufio.Reader) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return nil, err
	}
	size := int(binary.BigEndian.Uint32(hdr))
	r.Discard(4)
	if size > maxFrameSize {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	if size <= r.Size() {
		frame := make([]byte, size)
		if _, err := io.ReadFull(r, frame); err != nil {
			return nil, err
		}
		return frame, nil
	}
	frame := make([]byte, 0, r.Size())
	for len(frame) < size {
		frame = slices.Grow(frame, min(len(frame), size-len(frame)))
		end := min(cap(frame), size)
		if _, err := io.ReadFull(r, frame[len(frame):end]); err != nil {
			return nil, err
		}
		frame = frame[:end]
	}
	return frame, nil
}
