package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"heardof/internal/livekv"
)

// driver issues a window's ops straight into Node.Put/Node.Get (no
// client sockets: the only connections are the replicas' own links)
// and feeds every result to the checker.
type driver struct {
	chk *checker
	t   *tracer // nil when untraced
	ids atomic.Uint64
}

// do runs one op on nd and returns the call's duration.
func (d *driver) do(nd *livekv.Node, node int, o op) (time.Duration, error) {
	name := d.chk.names[o.key]
	start := time.Now()
	var err error
	if o.kind == opPut {
		err = nd.Put(context.Background(), name, o.value)
		d.chk.put(o.key, o.value, err)
	} else {
		var v string
		var found bool
		v, found, err = nd.Get(context.Background(), name)
		d.chk.get(o.key, v, found, err)
	}
	dur := time.Since(start)
	if d.t != nil {
		h, sp := &d.t.put, spanPut
		if o.kind == opGet {
			h, sp = &d.t.get, spanGet
		}
		h.add(dur)
		d.t.record(d.ids.Add(1), sp, uint8(node), start, dur)
	}
	return dur, err
}

// run runs one goroutine per session, each issuing its ops back to
// back (a closed loop), round-robin over nodes. It returns every op's
// latency and the number that failed.
func (d *driver) run(nodes []*livekv.Node, load [][]op) ([]time.Duration, int) {
	lats := make([][]time.Duration, len(load))
	fails := make([]int, len(load))
	var wg sync.WaitGroup
	for s, ops := range load {
		lats[s] = make([]time.Duration, len(ops))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, o := range ops {
				n := (s + i) % len(nodes)
				dur, err := d.do(nodes[n], n, o)
				lats[s][i] = dur
				if err != nil {
					fails[s]++
				}
			}
		}()
	}
	wg.Wait()
	var all []time.Duration
	failed := 0
	for s := range lats {
		all = append(all, lats[s]...)
		failed += fails[s]
	}
	return all, failed
}
