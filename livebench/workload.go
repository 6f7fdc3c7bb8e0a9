package main

import (
	"fmt"
	"time"

	"heardof/internal/xrand"
)

// The deployment every workload runs: 3 livekv nodes over loopback
// TCP, 2 LastVoting groups, a 2 ms round timeout and the default batch
// size — the shape of the hand-run hoserve baseline in ROADMAP.md.
const (
	replicas     = 3
	groups       = 2
	roundTimeout = 2 * time.Millisecond
)

// Traffic shape shared by every workload, as in hoload -http: closed
// loop sessions, 75 % PUT, 25 % GET, 16-byte values, private keys per
// session.
const (
	sessions       = 32
	putFrac        = 0.75
	valueLen       = 16
	keysPerSession = 4
)

// workload is one traffic mix.
type workload struct {
	name string
	why  string
	// ops is the size of one measured window. Windows are a fixed op
	// count, not a fixed duration, so a faster commit runs the same ops
	// and retains the same state.
	ops  int
	wal  bool    // every node keeps a write-ahead log in a data dir, fsync off
	loss float64 // iid send loss on every node's live.Faults
}

// workloads are the traffic mixes a run can drive. BENCHMARK.json
// gates saturate and wal only: lossy's p50 swung with the machine's
// load (IQR up to 0.34 of the median over 10 seeds, against 0.07-0.14
// for the others on the same machine), too wide for any bound the
// benchmark may set, so it is run by hand (--workload lossy).
var workloads = []workload{
	{
		name: "saturate", ops: 24000,
		why: "closed loop, 32 sessions, volatile, no faults: CPU-bound; shell, core, transport and codec cost per op with batching on, WAL bypassed",
	},
	{
		name: "wal", ops: 16000, wal: true,
		why: "closed loop, 32 sessions, WAL with fsync off, no faults: saturate plus WAL append, snapshots and the sync-before-send barrier on the critical path",
	},
	{
		name: "lossy", ops: 4000, loss: 0.10,
		why: "closed loop, 32 sessions, volatile, 10% iid loss: rounds close by timeout and slots are learned by sync, the paper's transient faults",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

type opKind uint8

const (
	opPut opKind = iota
	opGet
)

// op is one generated request: its kind, the checker index of its key,
// and the value a PUT writes.
type op struct {
	kind  opKind
	key   int
	value string
}

// genSessions generates n sessions' ops for one window (ops in all):
// session s owns the checker keys base+[s*keysPerSession,
// (s+1)*keysPerSession). The same seed and window give the same ops.
func genSessions(seed uint64, window, n, ops, base int) [][]op {
	out := make([][]op, n)
	for s := range out {
		rng := xrand.New(xrand.New(seed ^ uint64(window*1024+s)*0x9e3779b97f4a7c15).Uint64())
		out[s] = make([]op, ops/n)
		for i := range out[s] {
			o := op{kind: opGet, key: base + s*keysPerSession + rng.Intn(keysPerSession)}
			if rng.Bool(putFrac) {
				// Unique within the run, so a stale read cannot match.
				id := uint64(window)<<40 | uint64(s)<<24 | uint64(i)
				o.kind, o.value = opPut, fmt.Sprintf("%0*x", valueLen, id)
			}
			out[s][i] = o
		}
	}
	return out
}
