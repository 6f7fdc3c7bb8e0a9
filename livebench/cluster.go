package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"heardof/internal/core"
	"heardof/internal/live"
	"heardof/internal/livekv"
)

// cluster is the system under test: replicas livekv.Nodes in this
// process, wired over real loopback sockets with live.ListenTCP +
// live.NewTCP, each behind its own live.Faults — the assembly of
// internal/livekv's TCP tests.
type cluster struct {
	addrs   []string
	cfgs    []livekv.Config
	nodes   []*livekv.Node
	faults  []*live.Faults
	t       *tracer // nil when untraced
	dataDir string  // wal workload only; removed by close
}

// startCluster brings up and starts every node. dataDir, when not
// empty, gives every node a write-ahead log under it, fsync off.
func startCluster(w workload, faultSeed uint64, dataDir string, t *tracer) (*cluster, error) {
	c := &cluster{
		addrs:   make([]string, replicas),
		cfgs:    make([]livekv.Config, replicas),
		nodes:   make([]*livekv.Node, replicas),
		faults:  make([]*live.Faults, replicas),
		t:       t,
		dataDir: dataDir,
	}
	lns := make([]net.Listener, replicas)
	for i := range lns {
		ln, err := live.ListenTCP("127.0.0.1:0")
		if err != nil {
			closeAll(lns)
			return nil, err
		}
		lns[i] = ln
		c.addrs[i] = ln.Addr().String()
	}
	for i := range c.nodes {
		c.cfgs[i] = livekv.Config{Replicas: replicas, Groups: groups, RoundTimeout: roundTimeout}
		if dataDir != "" {
			c.cfgs[i].DataDir = filepath.Join(dataDir, fmt.Sprintf("node-%d", i))
			c.cfgs[i].NoFsync = true
		}
		c.faults[i] = live.NewFaults(faultSeed + uint64(i))
		c.faults[i].SetLoss(w.loss)
		if _, err := c.startNode(i, lns[i]); err != nil {
			closeAll(lns[i+1:])
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func closeAll(lns []net.Listener) {
	for _, ln := range lns {
		ln.Close()
	}
}

// startNode builds node i on ln and starts it, returning how long
// livekv.NewNode took (WAL open, replay and snapshot restore when the
// node has a data dir).
func (c *cluster) startNode(i int, ln net.Listener) (time.Duration, error) {
	tcp, err := live.NewTCP(core.ProcessID(i), ln, c.addrs)
	if err != nil {
		ln.Close()
		return 0, err
	}
	tr := live.WithFaults(tcp, c.faults[i])
	if c.t != nil {
		tr = &meteredTransport{inner: tr, node: uint8(i), t: c.t}
	}
	start := time.Now()
	nd, err := livekv.NewNode(c.cfgs[i], core.ProcessID(i), tr)
	open := time.Since(start)
	if err != nil {
		tr.Close()
		return 0, fmt.Errorf("node %d: %w", i, err)
	}
	nd.Start()
	c.nodes[i] = nd
	return open, nil
}

// close stops every node and removes the data dirs.
func (c *cluster) close() {
	var wg sync.WaitGroup
	for _, nd := range c.nodes {
		if nd != nil {
			wg.Add(1)
			go func() { defer wg.Done(); nd.Close() }()
		}
	}
	wg.Wait()
	if c.dataDir != "" {
		os.RemoveAll(c.dataDir)
	}
}

func (c *cluster) setLoss(p float64) {
	for _, f := range c.faults {
		f.SetLoss(p)
	}
}

func (c *cluster) dropped() int64 {
	var n int64
	for _, f := range c.faults {
		n += int64(f.Dropped())
	}
	return n
}

// awaitConverged polls until every node agrees with node 0 on each
// group's log length, log hash and state fingerprint. A safety breach
// fails at once; a node still lagging at the deadline fails too.
func (c *cluster) awaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		views := make([][]groupView, len(c.nodes))
		for i, nd := range c.nodes {
			views[i] = viewOf(nd)
		}
		settled, err := compareViews(views)
		if err != nil {
			return err
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("nodes did not converge within %v: %+v", timeout, views)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// replicaStats sums live.ReplicaStats over every node and group.
type replicaStats struct {
	applied, committed, syncDecisions, rounds int64
}

func (c *cluster) stats() replicaStats {
	var s replicaStats
	for _, nd := range c.nodes {
		for g := 0; g < groups; g++ {
			st := nd.Replica(g).Stats()
			s.applied += int64(st.Applied)
			s.committed += int64(st.Committed)
			s.syncDecisions += int64(st.SyncDecisions)
			s.rounds += st.Rounds
		}
	}
	return s
}

func (s replicaStats) sub(o replicaStats) replicaStats {
	return replicaStats{s.applied - o.applied, s.committed - o.committed, s.syncDecisions - o.syncDecisions, s.rounds - o.rounds}
}

func (s replicaStats) add(o replicaStats) replicaStats {
	return replicaStats{s.applied + o.applied, s.committed + o.committed, s.syncDecisions + o.syncDecisions, s.rounds + o.rounds}
}

// statsProbeEvery is the period of the Stats() probe.
const statsProbeEvery = 4 * time.Millisecond

// probeStats calls Replica(g).Stats() on every node and group each
// statsProbeEvery until stop closes, timing each call into the tracer's
// lock-wait histogram (Stats waits on Replica.mu, which dispatch holds
// across Persister.Sync). It returns the summed Pending and the number
// of replicas sampled. Node.Status is deliberately not used: its
// state fingerprint sorts the whole map under the group lock.
func (c *cluster) probeStats(stop <-chan struct{}) (pendingSum, samples int64) {
	tick := time.NewTicker(statsProbeEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return pendingSum, samples
		case <-tick.C:
		}
		for _, nd := range c.nodes {
			for g := 0; g < groups; g++ {
				start := time.Now()
				st := nd.Replica(g).Stats()
				c.t.lockWait.add(time.Since(start))
				pendingSum += int64(st.Pending)
				samples++
			}
		}
	}
}

// restartProbe measures recovery from the WAL: it closes node 2,
// lets the survivors commit the burst, then times livekv.NewNode on
// node 2's data dir (reopen) and, from its start, the time until every
// group's log on node 2 is as long as the longest survivor's (catchup).
func (c *cluster) restartProbe(burst func([]*livekv.Node) error) (reopen, catchup time.Duration, err error) {
	const p = 2
	c.nodes[p].Close()
	c.nodes[p] = nil
	if err := burst(c.nodes[:p]); err != nil {
		return 0, 0, fmt.Errorf("burst while node %d was down: %w", p, err)
	}
	target := make([]uint64, groups)
	for _, nd := range c.nodes[:p] {
		for g := range target {
			n, _ := nd.Replica(g).LogHash()
			target[g] = max(target[g], n)
		}
	}
	var ln net.Listener
	for deadline := time.Now().Add(5 * time.Second); ; {
		if ln, err = live.ListenTCP(c.addrs[p]); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("rebind %s: %w", c.addrs[p], err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if reopen, err = c.startNode(p, ln); err != nil {
		return 0, 0, err
	}
	started := time.Now()
	for deadline := started.Add(30 * time.Second); ; {
		behind := false
		for g, want := range target {
			if n, _ := c.nodes[p].Replica(g).LogHash(); n < want {
				behind = true
			}
		}
		if !behind {
			return reopen, time.Since(started), nil
		}
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("node %d did not catch up within 30s", p)
		}
		time.Sleep(time.Millisecond)
	}
}
