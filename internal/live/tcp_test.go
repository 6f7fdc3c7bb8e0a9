package live

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"heardof/internal/core"
	"heardof/internal/lastvoting"
)

// TestTCPListenerRestartRejoins runs a 3-replica group over real
// sockets and crash-recovers one replica the hard way: its listener is
// closed mid-run, the group commits commands without it, and then a
// fresh replica rebinds the SAME address and rejoins with empty state.
// The surviving peers' writers must reconnect through their dial
// backoff, the rejoiner must rebuild the whole log via the sync path,
// and session dedup must hold across the restart: a retried sequence
// number is refused as a duplicate even by the replica that learned
// the client's history purely through replication.
//
// The crash happens BEFORE p2 applies anything: batch retention prunes
// a slot's contents once every replica has applied it, so an
// empty-state rejoin is only recoverable while the GC horizon is still
// pinned by the crashed peer (exactly the retention analysis the model
// checker's gc-needed-batch invariant encodes). A replica that loses
// its state after the whole group applied needs a state-transfer
// mechanism this layer does not have.
func TestTCPListenerRestartRejoins(t *testing.T) {
	const n = 3
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for p := 0; p < n; p++ {
		ln, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[p] = ln
		addrs[p] = ln.Addr().String()
	}

	transports := make([]*TCPTransport, n)
	reps := make([]*Replica[string], n)
	logs := make([]*applyLog, n)
	newNode := func(p core.ProcessID, ln net.Listener) (*TCPTransport, *Replica[string], *applyLog) {
		tr, err := NewTCP(p, ln, addrs)
		if err != nil {
			t.Fatal(err)
		}
		lg := &applyLog{}
		// LastVoting, not OTR: its majority quorums keep deciding with one
		// of three replicas crashed (OTR's >2n/3 threshold cannot).
		rep, err := NewReplica(ReplicaConfig[string]{
			Self: p, N: n,
			Algorithm: lastvoting.Algorithm{},
			Msg:       lastvoting.WireCodec{},
			Batch:     strCodec{},
			Transport: tr,
			Apply:     lg.hook,
			// Brisk pacing: rejoin latency is dial backoff + a couple of
			// sync heartbeats, and the test waits on real sockets.
			RoundTimeout: time.Millisecond,
			SyncEvery:    20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep.Start()
		return tr, rep, lg
	}
	for p := 0; p < n; p++ {
		transports[p], reps[p], logs[p] = newNode(core.ProcessID(p), lns[p])
	}
	defer func() {
		for p := 0; p < n; p++ {
			if reps[p] != nil {
				reps[p].Stop()
			}
			if transports[p] != nil {
				transports[p].Close()
			}
		}
	}()

	submit := func(seq uint64, cmd string) {
		t.Helper()
		ch, err := reps[0].Submit(1, seq, cmd)
		if err != nil {
			t.Fatal(err)
		}
		res := waitApplied(t, ch, 10*time.Second, cmd)
		if res.Dup {
			t.Fatalf("%s: fresh submission resolved as duplicate", cmd)
		}
	}

	// Crash-stop p2 before any traffic: replica halted, listener and
	// connections torn down, GC horizon pinned at its commit index 0.
	reps[2].Stop()
	transports[2].Close()
	reps[2], transports[2] = nil, nil

	// Phase 1: the survivors are a majority; commits must flow while
	// every frame sent to p2's dead address is lost (each failed dial
	// exercises the writer's backoff-and-retry path).
	submit(1, "c1")
	submit(2, "c2")
	submit(3, "c3")
	submit(4, "c4")

	// Restart: rebind the SAME address (retry — the old listener's close
	// may still be settling) and rejoin with a brand-new replica whose
	// core has no memory of phases 1–2.
	var ln2 net.Listener
	waitFor(t, 5*time.Second, "rebind p2's address", func() bool {
		var err error
		ln2, err = ListenTCP(addrs[2])
		return err == nil
	})
	transports[2], reps[2], logs[2] = newNode(2, ln2)

	// Phase 2: more traffic after the restart; the rejoiner must both
	// replay the history it missed and follow new commits.
	submit(5, "c5")
	waitFor(t, 10*time.Second, "p2 rebuilds the full log", func() bool {
		h0, l0 := reps[0].LogHash()
		h2, l2 := reps[2].LogHash()
		return l2 == l0 && h2 == h0 && reps[2].Stats().Applied == reps[0].Stats().Applied
	})

	// Dedup across the restart: p2 learned client 1's history purely via
	// batch replay, yet its high-water mark must refuse the retry.
	ch, err := reps[2].Submit(1, 2, "c2-retry")
	if err != nil {
		t.Fatal(err)
	}
	if res := waitApplied(t, ch, 5*time.Second, "c2-retry"); !res.Dup {
		t.Fatalf("restarted replica re-accepted an applied sequence number: %+v", res)
	}

	// Every replica applied each command exactly once, in log order.
	want := []string{"c1", "c2", "c3", "c4", "c5"}
	for p := 0; p < n; p++ {
		got := logs[p].snapshot()
		if len(got) != len(want) {
			t.Fatalf("replica %d applied %v, want %v", p, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replica %d applied %v, want %v", p, got, want)
			}
		}
		if d := reps[p].Stats().Divergent; d != 0 {
			t.Fatalf("replica %d observed %d divergent decisions", p, d)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tcpPair starts two TCPTransports on loopback and returns them with a
// cleanup that closes both.
func tcpPair(t testing.TB) (a, b *TCPTransport) {
	t.Helper()
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for p := range lns {
		ln, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[p], addrs[p] = ln, ln.Addr().String()
	}
	trs := make([]*TCPTransport, 2)
	for p := range trs {
		tr, err := NewTCP(core.ProcessID(p), lns[p], addrs)
		if err != nil {
			t.Fatal(err)
		}
		trs[p] = tr
		t.Cleanup(func() { tr.Close() })
	}
	return trs[0], trs[1]
}

// patterned is envelope number i with an n-byte payload whose bytes
// are derived from i, so a receiver can check every byte.
func patterned(i uint64, n int) Envelope {
	payload := make([]byte, n)
	for j := range payload {
		payload[j] = byte(i + uint64(j))
	}
	return Envelope{Group: uint32(i % 3), Slot: i, Round: core.Round(i % 5), Kind: KindRound, Payload: payload}
}

// checkPatterned fails unless env is patterned(want, n) from sender from.
func checkPatterned(t testing.TB, env Envelope, from core.ProcessID, want uint64, n int) {
	t.Helper()
	exp := patterned(want, n)
	if env.Slot != want || env.From != from || env.Group != exp.Group || env.Round != exp.Round ||
		env.Kind != exp.Kind || !bytes.Equal(env.Payload, exp.Payload) {
		t.Fatalf("envelope %d arrived as slot=%d from=%d group=%d round=%d kind=%d len=%d, want %d bytes of pattern",
			want, env.Slot, env.From, env.Group, env.Round, env.Kind, len(env.Payload), n)
	}
}

// recvWithin returns the next envelope from tr, failing after d.
func recvWithin(t testing.TB, tr *TCPTransport, d time.Duration) Envelope {
	t.Helper()
	select {
	case env := <-tr.Recv():
		return env
	case <-time.After(d):
		t.Fatalf("no envelope within %v", d)
		return Envelope{}
	}
}

// pendingLen reads the bytes queued to peer q.
func (t *TCPTransport) pendingLen(q core.ProcessID) int {
	p := t.peers[q]
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// TestTCPSendAfterCloseIsNoOp: Send after Close must neither panic (a
// self-send used to hit the closed inbox channel) nor queue bytes that
// no writer will ever drain.
func TestTCPSendAfterCloseIsNoOp(t *testing.T) {
	a, _ := tcpPair(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a.Send(0, patterned(1, 8))
	a.Send(1, patterned(2, 8))
	if n := a.pendingLen(1); n != 0 {
		t.Fatalf("Send after Close queued %d bytes", n)
	}
	if _, ok := <-a.Recv(); ok {
		t.Fatal("inbox delivered an envelope after Close")
	}
}

// TestTCPBurstFramingIntact sends a burst of mixed-size envelopes —
// some larger than the receiver's 4 KiB read buffer — then one frame of
// exactly maxFrame bytes, and requires every envelope intact and in
// send order on the one connection.
func TestTCPBurstFramingIntact(t *testing.T) {
	a, b := tcpPair(t)
	size := func(i uint64) int {
		if i%50 == 7 {
			return 5000 + int(i) // spans several read-buffer fills
		}
		return int(i % 40)
	}
	const burst = 300 // ~40 KiB in all: fits the send buffer, so none drop
	for i := uint64(0); i < burst; i++ {
		a.Send(1, patterned(i, size(i)))
	}
	for i := uint64(0); i < burst; i++ {
		checkPatterned(t, recvWithin(t, b, 10*time.Second), 0, i, size(i))
	}

	// A maximal frame is always accepted into an empty send buffer.
	waitFor(t, 5*time.Second, "send buffer drains", func() bool { return a.pendingLen(1) == 0 })
	big := patterned(burst, 0)
	big.Payload = make([]byte, maxFrame-envelopeLen(big))
	for j := range big.Payload {
		big.Payload[j] = byte(burst + j)
	}
	if envelopeLen(big) != maxFrame {
		t.Fatalf("big frame is %d bytes, want %d", envelopeLen(big), maxFrame)
	}
	a.Send(1, big)
	checkPatterned(t, recvWithin(t, b, 10*time.Second), 0, burst, len(big.Payload))
}

// TestTCPOversizeFrameDropped: an envelope over maxFrame is dropped at
// Send, and its neighbours on the same connection arrive intact.
func TestTCPOversizeFrameDropped(t *testing.T) {
	a, b := tcpPair(t)
	over := patterned(1, 0)
	over.Payload = make([]byte, maxFrame-envelopeLen(over)+1)
	a.Send(1, patterned(0, 33))
	a.Send(1, over)
	a.Send(1, patterned(2, 17))
	checkPatterned(t, recvWithin(t, b, 10*time.Second), 0, 0, 33)
	checkPatterned(t, recvWithin(t, b, 10*time.Second), 0, 2, 17)
	select {
	case env := <-b.Recv():
		t.Fatalf("unexpected envelope slot %d after the oversize drop", env.Slot)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestTCPUnreachablePeerBounded: sending to a peer nobody listens on
// must return promptly and keep the send buffer within its cap; once
// the peer comes up, envelopes sent to it are delivered.
func TestTCPUnreachablePeerBounded(t *testing.T) {
	ln0, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), ln1.Addr().String()}
	ln1.Close() // p1 is down: dials are refused
	a, err := NewTCP(0, ln0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	start := time.Now()
	for i := uint64(0); i < 20000; i++ {
		a.Send(1, patterned(i, 100))
		if n := a.pendingLen(1); n > sendBufCap {
			t.Fatalf("send buffer holds %d bytes, cap %d", n, sendBufCap)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("20000 sends to an unreachable peer took %v", d)
	}

	var ln net.Listener
	waitFor(t, 5*time.Second, "rebind p1's address", func() bool {
		ln, err = ListenTCP(addrs[1])
		return err == nil
	})
	b, err := NewTCP(1, ln, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Frames still pending from the outage may land first (late
	// delivery is legal), and frames taken by a dial that raced the
	// restart are lost; keep sending markers until one lands, after
	// which the link is up for good.
	const marker = 1 << 40
	waitFor(t, 10*time.Second, "first delivery after the peer comes up", func() bool {
		a.Send(1, patterned(marker, 4))
		for {
			select {
			case env := <-b.Recv():
				if env.Slot == marker {
					checkPatterned(t, env, 0, marker, 4)
					return true
				}
				checkPatterned(t, env, 0, env.Slot, 100)
			case <-time.After(20 * time.Millisecond):
				return false
			}
		}
	})
	for i := uint64(0); i < 100; i++ {
		a.Send(1, patterned(i, 100))
	}
	for i := uint64(0); i < 100; i++ {
		env := recvWithin(t, b, 10*time.Second)
		if env.Slot == marker {
			i--
			continue
		}
		checkPatterned(t, env, 0, i, 100)
	}
}

// TestTCPWriteErrorRedialKeepsBuffersApart resets the writer's first
// few connections under a steady stream of Sends, so every write-error
// and redial path runs while Send keeps appending. A raw server checks
// every byte of every frame it gets on the connection that finally
// stays up; under -race this also catches a Send appending into the
// buffer a write is in flight on.
func TestTCPWriteErrorRedialKeepsBuffersApart(t *testing.T) {
	ln0, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	a, err := NewTCP(0, ln0, []string{ln0.Addr().String(), srv.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const resets = 3
	var (
		accepted atomic.Int32
		verified atomic.Int64
		bad      atomic.Value // first framing error, as a string
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := srv.Accept()
			if err != nil {
				return // listener closed
			}
			if accepted.Add(1) <= resets {
				// Take a little, then reset: the writer's next Write fails.
				io.ReadFull(conn, make([]byte, 16))
				conn.(*net.TCPConn).SetLinger(0)
				conn.Close()
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				if err := verifyFrames(conn, &verified); err != nil {
					bad.CompareAndSwap(nil, err.Error())
				}
			}()
		}
	}()

	stop := make(chan struct{})
	var sender sync.WaitGroup
	sender.Add(1)
	go func() {
		defer sender.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a.Send(1, patterned(i, int(i%97)))
			if i%64 == 0 {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	waitFor(t, 20*time.Second, "frames verified after the resets", func() bool {
		return verified.Load() >= 2000 || bad.Load() != nil
	})
	close(stop)
	sender.Wait()
	a.Close()
	srv.Close()
	wg.Wait()
	if msg := bad.Load(); msg != nil {
		t.Fatal(msg)
	}
	if n := accepted.Load(); n <= resets {
		t.Fatalf("only %d connections accepted, want > %d (a redial after every reset)", n, resets)
	}
}

// verifyFrames reads frames off conn until it closes, checking each is
// a patterned envelope from process 0 and counting them.
func verifyFrames(conn net.Conn, verified *atomic.Int64) error {
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return nil
		}
		size := binary.BigEndian.Uint32(lenBuf[:])
		if size == 0 || size > maxFrame {
			return fmt.Errorf("corrupt frame length %d", size)
		}
		buf := make([]byte, size)
		if _, err := io.ReadFull(conn, buf); err != nil {
			return nil
		}
		env, err := DecodeEnvelope(buf)
		if err != nil {
			return err
		}
		exp := patterned(env.Slot, int(env.Slot%97))
		if env.From != 0 || env.Group != exp.Group || env.Round != exp.Round || !bytes.Equal(env.Payload, exp.Payload) {
			return fmt.Errorf("corrupt frame for envelope %d: %+v", env.Slot, env)
		}
		verified.Add(1)
	}
}
