package main

import (
	"fmt"
	"sync"

	"heardof/internal/livekv"
)

// keyState is what the checker knows about one key.
type keyState struct {
	value string
	acked bool // a PUT of value has been acknowledged
	// unknown is set by a failed PUT: it may or may not have committed,
	// so reads of the key go unchecked until the next acknowledged PUT.
	unknown bool
}

// checker holds every key's last acknowledged PUT and checks each GET
// against it. A key belongs to one closed-loop session, so its ops
// never overlap and its keyState needs no lock.
type checker struct {
	names []string
	keys  []keyState

	mu         sync.Mutex
	violations []string
}

// maxViolationsKept bounds the messages kept; every violation counts.
const maxViolationsKept = 8

func newChecker(names []string) *checker {
	return &checker{names: names, keys: make([]keyState, len(names))}
}

func (c *checker) put(k int, value string, err error) {
	ks := &c.keys[k]
	if err != nil {
		ks.unknown = true
		return
	}
	*ks = keyState{value: value, acked: true}
}

func (c *checker) get(k int, value string, found bool, err error) {
	ks := &c.keys[k]
	if err != nil || ks.unknown {
		return
	}
	if found != ks.acked || value != ks.value {
		c.fail(fmt.Sprintf("stale read: key %s read %q (found=%v), last acknowledged PUT was %q (acked=%v)",
			c.names[k], value, found, ks.value, ks.acked))
	}
}

func (c *checker) fail(msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations = append(c.violations, msg)
}

// failures returns the number of violations and the first few messages.
func (c *checker) failures() (int, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.violations), c.violations[:min(len(c.violations), maxViolationsKept)]
}

// groupView is one node's view of one group for the cross-node check.
type groupView struct {
	logLen, logHash uint64
	fingerprint     string
	divergent       int
}

func viewOf(nd *livekv.Node) []groupView {
	st := nd.Status()
	out := make([]groupView, len(st))
	for g, s := range st {
		out[g] = groupView{logLen: s.LogLen, logHash: s.LogHash, fingerprint: s.Fingerprint, divergent: s.Stats.Divergent}
	}
	return out
}

// compareViews checks the nodes' views (views[node][group]) against
// node 0. A divergent decision or two equally long logs with different
// hashes is a safety breach, reported as err. Otherwise settled says
// whether every node agrees on log length, log hash and state
// fingerprint; a lagging node is not yet settled but not wrong.
func compareViews(views [][]groupView) (settled bool, err error) {
	settled = true
	for n, nv := range views {
		for g, v := range nv {
			want := views[0][g]
			switch {
			case v.divergent != 0:
				return false, fmt.Errorf("node %d group %d: %d divergent decisions", n, g, v.divergent)
			case v.logLen == want.logLen && v.logHash != want.logHash:
				return false, fmt.Errorf("node %d group %d: log hash %#x differs from node 0's %#x at length %d",
					n, g, v.logHash, want.logHash, v.logLen)
			case v.logLen != want.logLen || v.fingerprint != want.fingerprint:
				settled = false
			}
		}
	}
	return settled, nil
}
