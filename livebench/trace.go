package main

import (
	"bufio"
	"fmt"
	"math/bits"
	"os"
	"sync/atomic"
	"time"

	"heardof/internal/core"
	"heardof/internal/live"
)

// histogram is a lock-free log-linear histogram of nanosecond
// durations: exact below 16 ns, then 16 buckets per power of two
// (≤ 6.25 % relative error).
type histogram struct {
	b [1024]atomic.Uint64
}

func bucketOf(ns int64) int {
	if ns < 16 {
		return int(max(ns, 0))
	}
	n := bits.Len64(uint64(ns))
	return 16 + (n-5)*16 + int(uint64(ns)>>(n-5)) - 16
}

// bucketMid is the midpoint of bucket b's value range.
func bucketMid(b int) float64 {
	if b < 16 {
		return float64(b)
	}
	e := (b - 16) / 16
	lo := float64(uint64(16+(b-16)%16) << e)
	return lo + float64(uint64(1)<<e)/2
}

func (h *histogram) add(d time.Duration) { h.b[bucketOf(int64(d))].Add(1) }

func (h *histogram) count() uint64 {
	var n uint64
	for i := range h.b {
		n += h.b[i].Load()
	}
	return n
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *histogram) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := uint64(q*float64(n)) + 1
	var seen uint64
	for i := range h.b {
		seen += h.b[i].Load()
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(len(h.b) - 1)
}

// Span names. A span covers one call the benchmark makes into a layer:
// a Node.Put/Node.Get (id = the op's index in the run) or a
// Transport.Send (id 0: the replica that sent it is not visible from
// outside).
const (
	spanPut uint8 = iota
	spanGet
	spanSend // + envelope kind
)

var spanNames = [...]string{
	spanPut:                              "livekv.put",
	spanGet:                              "livekv.get",
	spanSend + uint8(live.KindRound):     "transport.send.round",
	spanSend + uint8(live.KindBatch):     "transport.send.batch",
	spanSend + uint8(live.KindBatchPull): "transport.send.batch_pull",
	spanSend + uint8(live.KindSync):      "transport.send.sync",
	spanSend + uint8(live.KindSyncPull):  "transport.send.sync_pull",
}

type span struct {
	id         uint64
	name, node uint8
	start, dur int64 // ns since the tracer's base
}

// maxSpans caps the in-memory span buffer; spans past it are counted
// in spansLost but still feed every histogram and counter.
const maxSpans = 1 << 18

// tracer collects the traced windows' spans and per-layer counters.
// Everything stays in memory until write.
type tracer struct {
	// on is set only while a traced window's load runs, so set-up,
	// convergence checks and the restart probe stay out of the figures.
	on    atomic.Bool
	base  time.Time
	spans []span
	next  atomic.Int64

	put, get, send, lockWait histogram

	envelopes [live.KindSyncPull + 1]atomic.Int64 // by kind
	bytes     atomic.Int64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, maxSpans)}
}

func (t *tracer) record(id uint64, name, node uint8, start time.Time, d time.Duration) {
	if i := t.next.Add(1) - 1; i < maxSpans {
		t.spans[i] = span{id: id, name: name, node: node, start: int64(start.Sub(t.base)), dur: int64(d)}
	}
}

func (t *tracer) spansLost() int64 { return max(t.next.Load()-maxSpans, 0) }

// write dumps the spans as tab-separated lines: name, id, node, start
// and duration in ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tid\tnode\tstart_ns\tdur_ns")
	for _, s := range t.spans[:min(t.next.Load(), maxSpans)] {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", spanNames[s.name], s.id, s.node, s.start, s.dur)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// meteredTransport is the benchmark's live.Transport wrapper: it counts
// and times every envelope a node sends, by kind, with its wire size.
type meteredTransport struct {
	inner live.Transport
	node  uint8
	t     *tracer
}

func (m *meteredTransport) Send(to core.ProcessID, env live.Envelope) {
	if !m.t.on.Load() {
		m.inner.Send(to, env)
		return
	}
	start := time.Now()
	m.inner.Send(to, env)
	d := time.Since(start)
	m.t.send.add(d)
	m.t.record(0, spanSend+uint8(env.Kind), m.node, start, d)
	m.t.envelopes[env.Kind].Add(1)
	m.t.bytes.Add(int64(wireSize(env, m.node)))
}

func (m *meteredTransport) Recv() <-chan live.Envelope { return m.inner.Recv() }
func (m *meteredTransport) Close() error               { return m.inner.Close() }

// wireSize is the envelope's TCP frame size: the 4-byte length prefix
// plus live.AppendEnvelope's encoding with the sender stamped.
func wireSize(env live.Envelope, from uint8) int {
	return 4 + uvarintLen(uint64(env.Group)) + uvarintLen(env.Slot) +
		uvarintLen(uint64(env.Round)) + uvarintLen(uint64(from)) + 1 + len(env.Payload)
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
