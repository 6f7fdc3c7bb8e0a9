// TCPTransport: the real-deployment transport. Every process listens on
// one address and lazily dials each peer; envelopes travel as
// length-prefixed binary frames. The transport is deliberately
// best-effort — a send while a peer is unreachable, a full send buffer,
// or a torn connection all just LOSE messages, because the layers above
// were built for fair-lossy links: retransmission is the round
// structure's job (every round resends fresh state), not the socket's.
// That keeps reconnect logic trivial and maps the paper's transmission
// faults one-to-one onto real network weather.
//
// Framing is batched in both directions, because a round's envelopes
// are small (tens of bytes) and a syscall apiece would cost more CPU
// than the replica spends on them. Outbound, Send frames each envelope
// straight into its peer's pending buffer, and one writer per peer
// swaps that buffer for its spare and hands everything sent while its
// previous write ran to a single conn.Write (a coalescing,
// double-buffered writer; the per-peer mutex guards only the append and
// the swap, never a syscall). The pending buffer is capped at
// sendBufCap bytes and overflow is loss. Inbound, each connection is
// read through a bufio.Reader, so one read() yields many frames.

package live

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"time"

	"heardof/internal/core"
)

const (
	// dialBackoff paces reconnect attempts to an unreachable peer.
	dialBackoff = 100 * time.Millisecond
	// sendBufCap bounds the bytes queued to one peer: a frame that would
	// take the pending buffer past it is dropped. An empty buffer always
	// takes one frame of up to maxFrame, so no legal envelope is
	// unsendable. 64 KiB holds ~1000 round-sized frames.
	sendBufCap = 64 << 10
	// sendBufRetain is the largest write buffer a writer keeps for reuse;
	// one that grew past it (a burst, a big batch) is released to the GC
	// after its write, so an idle link pins at most 2×sendBufRetain.
	sendBufRetain = 8 << 10
)

// TCPTransport connects the n processes of a deployment over sockets.
type TCPTransport struct {
	self  core.ProcessID
	addrs []string
	ln    net.Listener
	recv  chan Envelope
	peers []*tcpPeer

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{} // accepted connections, for Close
	wg     sync.WaitGroup
}

// ListenTCP binds addr (use "host:0" to let the kernel pick a port; the
// chosen address is ln.Addr()).
func ListenTCP(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// NewTCP builds process self's transport from its already-bound listener
// and the peer address table (addrs[self] is informational only). It
// starts the accept loop and one writer per peer.
func NewTCP(self core.ProcessID, ln net.Listener, addrs []string) (*TCPTransport, error) {
	n := len(addrs)
	if n < 1 || n > core.MaxProcesses {
		return nil, fmt.Errorf("live: %d peer addresses out of range [1, %d]", n, core.MaxProcesses)
	}
	if int(self) < 0 || int(self) >= n {
		return nil, fmt.Errorf("live: self %d outside address table of %d", self, n)
	}
	if ln == nil {
		return nil, fmt.Errorf("live: nil listener")
	}
	t := &TCPTransport{
		self:  self,
		addrs: addrs,
		ln:    ln,
		recv:  make(chan Envelope, 4096),
		peers: make([]*tcpPeer, n),
		conns: make(map[net.Conn]struct{}),
	}
	for q := range t.peers {
		if core.ProcessID(q) == self {
			continue
		}
		p := &tcpPeer{addr: addrs[q], wake: make(chan struct{}, 1), done: make(chan struct{})}
		t.peers[q] = p
		t.wg.Add(1)
		go func() { defer t.wg.Done(); p.writeLoop() }()
	}
	t.wg.Add(1)
	go func() { defer t.wg.Done(); t.acceptLoop() }()
	return t, nil
}

// Send implements Transport. A self-send goes straight to the inbox;
// any other envelope is framed (4-byte big-endian length, then
// AppendEnvelope) directly into the peer's pending buffer and the
// peer's writer is woken. Send never blocks: an envelope over maxFrame,
// a full send buffer, or a Send after Close all drop the envelope.
func (t *TCPTransport) Send(to core.ProcessID, env Envelope) {
	env.From = t.self
	if to == t.self {
		t.mu.Lock()
		if !t.closed {
			select {
			case t.recv <- env:
			default:
			}
		}
		t.mu.Unlock()
		return
	}
	if int(to) < 0 || int(to) >= len(t.peers) || t.peers[to] == nil {
		return
	}
	t.peers[to].send(env)
}

// Recv implements Transport.
func (t *TCPTransport) Recv() <-chan Envelope { return t.recv }

// Close implements Transport: stop accepting, tear down every
// connection, and close the receive channel once the loops drain.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	err := t.ln.Close()
	for _, p := range t.peers {
		if p != nil {
			p.close()
		}
	}
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
	close(t.recv)
	return err
}

// isClosed reports whether Close ran.
func (t *TCPTransport) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}

// acceptLoop turns inbound connections into frame readers.
func (t *TCPTransport) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.readLoop(conn)
			t.mu.Lock()
			delete(t.conns, conn)
			t.mu.Unlock()
			conn.Close()
		}()
	}
}

// readLoop decodes frames off one connection until it breaks. Malformed
// frames poison the connection (the peer will redial); decode errors on
// a well-framed envelope just drop that envelope. Reads go through a
// bufio.Reader, so one read() usually yields a whole burst of frames;
// each frame still gets its own body, which the decoded payload aliases.
func (t *TCPTransport) readLoop(conn net.Conn) {
	r := bufio.NewReader(conn)
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(lenBuf[:])
		if size == 0 || size > maxFrame {
			return
		}
		buf := make([]byte, size)
		if _, err := io.ReadFull(r, buf); err != nil {
			return
		}
		env, err := DecodeEnvelope(buf)
		if err != nil {
			continue
		}
		if t.isClosed() {
			return
		}
		select {
		case t.recv <- env:
		default: // receiver backed up: loss
		}
	}
}

// tcpPeer is the outbound side of one peer link: Send appends frames to
// pending under mu, and writeLoop swaps pending for its own spare buffer
// and writes the lot. The two buffers never share a backing array, so
// a Send never touches bytes a write is in flight on.
type tcpPeer struct {
	addr string
	wake chan struct{} // 1-slot; posted after each append to pending
	done chan struct{}

	mu      sync.Mutex
	closed  bool
	pending []byte // framed envelopes awaiting the writer, ≤ sendBufCap
}

// send frames env onto pending and wakes the writer; it drops env if it
// is over maxFrame, if it would overflow sendBufCap, or after close.
func (p *tcpPeer) send(env Envelope) {
	size := envelopeLen(env)
	if size > maxFrame {
		return
	}
	p.mu.Lock()
	if p.closed || (len(p.pending) > 0 && len(p.pending)+4+size > sendBufCap) {
		p.mu.Unlock()
		return // writer backed up or link down: loss, not backpressure
	}
	p.pending = binary.BigEndian.AppendUint32(p.pending, uint32(size))
	p.pending = AppendEnvelope(p.pending, env)
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default: // a wake is already posted; the writer will see this frame
	}
}

// take hands the writer everything pending and installs spare (emptied)
// as the new pending buffer.
func (p *tcpPeer) take(spare []byte) []byte {
	p.mu.Lock()
	out := p.pending
	p.pending = spare[:0]
	p.mu.Unlock()
	return out
}

// close stops the writer and makes every later send a no-op.
func (p *tcpPeer) close() {
	p.mu.Lock()
	p.closed = true
	p.pending = nil
	p.mu.Unlock()
	close(p.done)
}

// writeLoop dials lazily, writes each burst of pending frames with one
// conn.Write, and on any error drops the connection and backs off
// before redialing. Frames pending while disconnected are taken and
// lost — the transport contract.
func (p *tcpPeer) writeLoop() {
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	var buf []byte // the writer's spare; never aliases p.pending
	lastDial := time.Time{}
	for {
		select {
		case <-p.done:
			return
		case <-p.wake:
		}
		if conn == nil {
			if wait := dialBackoff - time.Since(lastDial); wait > 0 {
				select {
				case <-time.After(wait):
				case <-p.done:
					return
				}
			}
			lastDial = time.Now()
			if c, err := net.DialTimeout("tcp", p.addr, time.Second); err == nil {
				conn = c
			}
		}
		buf = p.take(buf)
		if conn != nil && len(buf) > 0 {
			conn.SetWriteDeadline(time.Now().Add(time.Second))
			if _, err := conn.Write(buf); err != nil {
				conn.Close()
				conn = nil
			}
		}
		if cap(buf) > sendBufRetain {
			buf = nil
		}
	}
}

// envelopeLen is len(AppendEnvelope(nil, env)), computed without
// encoding, so Send can size-check a frame before appending it.
func envelopeLen(env Envelope) int {
	return uvarintLen(uint64(env.Group)) + uvarintLen(env.Slot) +
		uvarintLen(uint64(env.Round)) + uvarintLen(uint64(env.From)) +
		1 + len(env.Payload)
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x.
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}
