package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"
)

// rawFrame is frame behind its length header, as writeFrame sends it.
func rawFrame(frame []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(frame))), frame...)
}

// helloFrame is the hello a node at addr sends first on a connection.
func helloFrame(addr Addr) []byte {
	return rawFrame(binary.BigEndian.AppendUint64(nil, uint64(addr)))
}

// waitNoInbound waits until n has closed every connection it accepted.
func waitNoInbound(t *testing.T, n *TCPNode) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n.mu.Lock()
		open := len(n.inbound)
		n.mu.Unlock()
		if open == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d accepted connections still open", open)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPHeaderAloneAllocatesLittle: a length header announcing the
// largest frame allowed, followed by ten bytes and a close, costs the
// node well under a megabyte — whether it comes in place of the
// unauthenticated hello or after it. A header alone must not pin
// maxFrameSize.
func TestTCPHeaderAloneAllocatesLittle(t *testing.T) {
	n, err := NewTCPNode(ReplicaAddr(0), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	hostile := append(binary.BigEndian.AppendUint32(nil, maxFrameSize), make([]byte, 10)...)
	for _, tc := range []struct {
		name   string
		stream []byte
	}{
		{"in place of the hello", hostile},
		{"after the hello", append(helloFrame(ClientAddr(7)), hostile...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c, err := net.Dial("tcp", n.ListenAddr())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Write(tc.stream); err != nil {
				t.Fatal(err)
			}
			c.Close()
			waitNoInbound(t, n)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("a %d-byte header and 10 bytes allocated %d bytes", maxFrameSize, grew)
			}
		})
	}
}

// TestTCPHelloAndFramesInOneWrite: the buffered reader that reads the
// hello keeps what came behind it. Two frames in the hello's own
// segment arrive, in order, stamped with the hello's address.
func TestTCPHelloAndFramesInOneWrite(t *testing.T) {
	n, err := NewTCPNode(ReplicaAddr(0), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	c, err := net.Dial("tcp", n.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stream := append(helloFrame(ReplicaAddr(3)), rawFrame([]byte("first"))...)
	if _, err := c.Write(append(stream, rawFrame([]byte("second"))...)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"first", "second"} {
		env, ok := recvFrame(t, n, 2*time.Second)
		if !ok || env.From != ReplicaAddr(3) || string(env.Frame) != want {
			t.Fatalf("got %q from %v (ok %v), want %q from %v", env.Frame, env.From, ok, want, ReplicaAddr(3))
		}
	}
}

// TestTCPLargeFrameRoundTrip: a frame far larger than the read buffer
// arrives whole, grown as its bytes come in.
func TestTCPLargeFrameRoundTrip(t *testing.T) {
	a, err := NewTCPNode(ReplicaAddr(0), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPNode(ReplicaAddr(1), "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer(b.Addr(), b.ListenAddr())
	frame := make([]byte, 1<<20)
	for i := range frame {
		frame[i] = byte(i * 7)
	}
	a.Send(b.Addr(), frame)
	a.Send(b.Addr(), []byte("after"))
	for _, want := range [][]byte{frame, []byte("after")} {
		env, ok := recvFrame(t, b, 5*time.Second)
		if !ok || !bytes.Equal(env.Frame, want) {
			t.Fatalf("got a %d-byte frame (ok %v), want %d bytes", len(env.Frame), ok, len(want))
		}
	}
}

// BenchmarkReadFrame reads a buffered stream of frames of mixed sizes,
// from a vote's to most of the read buffer, and pins one allocation per
// frame: the frame itself.
func BenchmarkReadFrame(b *testing.B) {
	sizes := []int{96, 300, 1 << 10, 4 << 10, 24 << 10}
	var stream []byte
	for _, size := range sizes {
		stream = append(stream, rawFrame(make([]byte, size))...)
	}
	src := bytes.NewReader(stream)
	r := bufio.NewReaderSize(src, readBufSize)
	next := 0
	read := func() {
		if next == len(sizes) {
			src.Reset(stream)
			r.Reset(src)
			next = 0
		}
		frame, err := readFrame(r)
		if err != nil || len(frame) != sizes[next] {
			b.Fatalf("frame %d: %d bytes, %v; want %d bytes", next, len(frame), err, sizes[next])
		}
		next++
	}
	b.SetBytes(int64(len(stream) / len(sizes)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		read()
	}
	if n := testing.AllocsPerRun(100, read); n != 1 {
		b.Fatalf("reading a frame allocates %v times, want 1", n)
	}
}
