// In-process cluster assembly: every node of a deployment in one
// process, wired through a ChanNetwork with a per-node fault environment
// — the live analogue of the simulator's per-shard adversaries, used by
// tests, experiment E12, examples, and `hoserve -local`.

package livekv

import (
	"fmt"
	"path/filepath"
	"time"

	"heardof/internal/core"
	"heardof/internal/live"
)

// Cluster is an in-process deployment over the channel transport.
type Cluster struct {
	cfg    Config
	net    *live.ChanNetwork
	faults []*live.Faults
	nodes  []*Node
}

// NewCluster builds (without starting) a Replicas-node deployment.
// faultSeed seeds the per-node fault environments (loss and delay draws;
// real time keeps runs nondeterministic regardless).
func NewCluster(cfg Config, faultSeed uint64) (*Cluster, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	net, err := live.NewChanNetwork(cfg.Replicas)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:    cfg,
		net:    net,
		faults: make([]*live.Faults, cfg.Replicas),
		nodes:  make([]*Node, cfg.Replicas),
	}
	for p := 0; p < cfg.Replicas; p++ {
		c.faults[p] = live.NewFaults(faultSeed + uint64(p)*0x9e3779b9)
		tr := live.WithFaults(net.Transport(core.ProcessID(p)), c.faults[p])
		// DataDir names a deployment root here; every in-process node
		// gets its own subdirectory (real deployments pass one directory
		// per server process instead).
		ncfg := cfg
		if ncfg.DataDir != "" {
			ncfg.DataDir = filepath.Join(cfg.DataDir, fmt.Sprintf("node-%d", p))
		}
		nd, err := NewNode(ncfg, core.ProcessID(p), tr)
		if err != nil {
			return nil, fmt.Errorf("livekv: node %d: %w", p, err)
		}
		c.nodes[p] = nd
	}
	return c, nil
}

// Start launches every node.
func (c *Cluster) Start() {
	for _, nd := range c.nodes {
		nd.Start()
	}
}

// Close stops every node and the network.
func (c *Cluster) Close() {
	for _, nd := range c.nodes {
		nd.Close()
	}
	c.net.Close()
}

// N returns the node count.
func (c *Cluster) N() int { return len(c.nodes) }

// Node returns server process i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Faults returns node i's fault environment (loss, delay, pause).
func (c *Cluster) Faults(i int) *live.Faults { return c.faults[i] }

// ConvergedWithin polls until every node agrees — per group: equal
// decision-log lengths and hashes, equal state-machine fingerprints, and
// zero divergent observations everywhere — or the deadline passes, in
// which case it reports the first disagreement it was still seeing.
// Submissions must have quiesced first (decided slots still propagate to
// laggards; new submissions would keep the logs moving).
func (c *Cluster) ConvergedWithin(d time.Duration) error {
	deadline := time.Now().Add(d)
	var last error
	for {
		last = c.converged()
		if last == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return last
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// converged checks cross-node agreement once.
func (c *Cluster) converged() error {
	want := c.nodes[0].Status()
	for i, nd := range c.nodes {
		sts := nd.Status()
		for g, st := range sts {
			if st.Stats.Divergent != 0 {
				return fmt.Errorf("node %d group %d observed %d divergent decisions", i, g, st.Stats.Divergent)
			}
			if st.LogLen != want[g].LogLen || st.LogHash != want[g].LogHash {
				return fmt.Errorf("node %d group %d log (%d, %#x) != node 0's (%d, %#x)",
					i, g, st.LogLen, st.LogHash, want[g].LogLen, want[g].LogHash)
			}
			if st.Fingerprint != want[g].Fingerprint {
				return fmt.Errorf("node %d group %d state diverged from node 0", i, g)
			}
		}
	}
	return nil
}
