// ChanNetwork: the in-process transport. Each process owns a buffered
// inbox channel; Send is a non-blocking enqueue to the destination's
// inbox, so a slow receiver loses messages instead of stalling the
// cluster — the same fair-lossy link the HO model assumes, realized with
// goroutines and channels. Reliable in itself; compose WithFaults for
// loss, delay, and pause injection.

package live

import (
	"fmt"
	"sync"

	"heardof/internal/core"
)

// ChanNetwork connects n in-process processes with buffered channels.
type ChanNetwork struct {
	n       int
	inboxes []chan Envelope

	mu     sync.Mutex
	closed []bool
}

// inboxBuffer sizes each process's inbox channel: room for bursts of
// round, batch and sync traffic from every peer between two reads of a
// busy receiver. Overflow is loss, which the round structure absorbs.
const inboxBuffer = 1024

// NewChanNetwork creates a network of n processes.
func NewChanNetwork(n int) (*ChanNetwork, error) {
	if n < 1 || n > core.MaxProcesses {
		return nil, fmt.Errorf("live: network size %d out of range [1, %d]", n, core.MaxProcesses)
	}
	cn := &ChanNetwork{n: n, inboxes: make([]chan Envelope, n), closed: make([]bool, n)}
	for i := range cn.inboxes {
		cn.inboxes[i] = make(chan Envelope, inboxBuffer)
	}
	return cn, nil
}

// N returns the network size.
func (cn *ChanNetwork) N() int { return cn.n }

// Transport returns process p's endpoint.
func (cn *ChanNetwork) Transport(p core.ProcessID) Transport {
	return &chanTransport{net: cn, self: p}
}

// deliver enqueues without blocking; overflow is loss.
func (cn *ChanNetwork) deliver(to core.ProcessID, env Envelope) {
	if int(to) < 0 || int(to) >= cn.n {
		return
	}
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.closed[to] {
		return
	}
	select {
	case cn.inboxes[to] <- env:
	default:
	}
}

// closeEndpoint shuts one process's inbox exactly once.
func (cn *ChanNetwork) closeEndpoint(p core.ProcessID) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if !cn.closed[p] {
		cn.closed[p] = true
		close(cn.inboxes[p])
	}
}

// Close shuts every endpoint.
func (cn *ChanNetwork) Close() {
	for p := 0; p < cn.n; p++ {
		cn.closeEndpoint(core.ProcessID(p))
	}
}

// chanTransport is one process's view of a ChanNetwork.
type chanTransport struct {
	net  *ChanNetwork
	self core.ProcessID
}

var _ Transport = (*chanTransport)(nil)

// Send implements Transport.
func (t *chanTransport) Send(to core.ProcessID, env Envelope) {
	env.From = t.self
	t.net.deliver(to, env)
}

// Recv implements Transport.
func (t *chanTransport) Recv() <-chan Envelope { return t.net.inboxes[t.self] }

// Close implements Transport: it closes only this endpoint.
func (t *chanTransport) Close() error {
	t.net.closeEndpoint(t.self)
	return nil
}
