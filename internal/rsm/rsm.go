// Package rsm is the deterministic virtual-round driver of the
// replication service: it runs the n live.ReplicaCore[C]s of one group —
// the replica protocol the live runtime deploys and the model checker
// explores — in lockstep virtual rounds ("ticks") whose deliveries are
// chosen by a core.HOProvider. The simulated and the live service
// therefore run the same replica code: batch dissemination, the slotRun
// round driver, decision sync, session dedup, and batch GC. Only the
// layer under the rounds differs, which is the paper's point — an HO
// algorithm does not care which layer realizes its rounds.
//
// One tick is one virtual round:
//
//   - Envelopes sent during tick t are delivered during tick t+1, from q
//     to p only if q ∈ HO(p, t+1). The group's provider is the whole
//     environment (adversary.Full, adversary.TransmissionLoss,
//     adversary.RotatingCrash, …), consulted once per tick.
//   - Each receiver steps its envelopes in a fixed order: by sender, then
//     by send order. Then a round whose deadline has come times out
//     (EvRoundTimeout), and an idle replica gets its anti-entropy edge
//     (EvTick). Submissions are EvSubmit steps between ticks.
//
// A round times out roundTimeout ticks after it was entered, or
// timedOutRoundTimeout ticks when it was itself entered by a timeout.
// The longer window mirrors live, where the round timeout is much larger
// than the network delay: with a one-tick window everywhere, a replica
// that timed out once stays a round ahead of the group, hears only stale
// messages from the laggards, and OneThirdRule livelocks under loss.
//
// Everything is a deterministic function of the configuration and the
// provider's seed: no goroutines, no clocks, no ranged maps.
package rsm

import (
	"errors"
	"fmt"

	"heardof/internal/core"
	"heardof/internal/live"
)

// Round-timeout windows, in ticks (see the package comment).
const (
	roundTimeout         = 1
	timedOutRoundTimeout = 2
)

// ErrTickBudget is returned when a run or a settle exhausts its tick
// budget before finishing.
var ErrTickBudget = errors.New("rsm: tick budget exhausted")

// Stats are a group's cumulative counters.
type Stats struct {
	// Ticks counts virtual rounds elapsed.
	Ticks int
	// Slots counts decided slots: the longest applied log of the group.
	Slots uint64
	// Committed counts commands applied (exactly-once): the most any
	// replica has applied.
	Committed int
	// Rounds sums the consensus rounds every replica executed.
	Rounds int64
	// Divergent sums conflicting decision observations over replicas;
	// consensus safety keeps it 0.
	Divergent int
}

// deadline is the armed round-timeout of one replica: the (slot, round)
// it was armed for and the tick at which it fires (0 = unarmed).
type deadline struct {
	slot  uint64
	round core.Round
	at    int
}

// submission identifies a tracked submission for latency accounting.
type submission struct {
	replica     int
	client, seq uint64
}

// Group drives the n replicas of one replication group in virtual
// rounds.
type Group[C any] struct {
	cores []*live.ReplicaCore[C]
	env   core.HOProvider
	apply func(replica int, e live.Entry[C])
	now   int

	// out[p][q] holds the envelopes q sent to p this tick, in send
	// order; spare is the recycled previous tick's buffer.
	out, spare [][][]live.Envelope
	armed      []deadline

	submitted map[submission]int // → submission tick, until applied at the contact
	latencies []int
}

// NewGroup builds a group of cfg.N replicas. cfg is every replica's core
// configuration (Self is set per replica); env chooses the heard-of sets
// of every tick; apply, if non-nil, runs for every fresh committed entry
// at every replica, in commit order.
func NewGroup[C any](cfg live.CoreConfig[C], env core.HOProvider, apply func(replica int, e live.Entry[C])) (*Group[C], error) {
	if env == nil {
		return nil, errors.New("rsm: nil HO provider")
	}
	if cfg.N < 1 || cfg.N > core.MaxProcesses {
		return nil, fmt.Errorf("rsm: n = %d out of range [1, %d]", cfg.N, core.MaxProcesses)
	}
	g := &Group[C]{
		cores:     make([]*live.ReplicaCore[C], cfg.N),
		env:       env,
		apply:     apply,
		out:       newBoxes[C](cfg.N),
		spare:     newBoxes[C](cfg.N),
		armed:     make([]deadline, cfg.N),
		submitted: make(map[submission]int),
	}
	for p := range g.cores {
		c := cfg
		c.Self = core.ProcessID(p)
		rc, err := live.NewReplicaCore(c)
		if err != nil {
			return nil, fmt.Errorf("rsm: %w", err)
		}
		g.cores[p] = rc
	}
	return g, nil
}

func newBoxes[C any](n int) [][][]live.Envelope {
	b := make([][][]live.Envelope, n)
	for p := range b {
		b[p] = make([][]live.Envelope, n)
	}
	return b
}

// N returns the group size.
func (g *Group[C]) N() int { return len(g.cores) }

// Core returns replica p's protocol core (for observation).
func (g *Group[C]) Core(p int) *live.ReplicaCore[C] { return g.cores[p] }

// Submit enters cmd at replica p under the (client, seq) session
// identity. It reports whether seq was already applied there (a
// duplicate). Sequence numbers start at 1 and must increase per client
// and replica.
func (g *Group[C]) Submit(p int, client, seq uint64, cmd C) (dup bool, err error) {
	if p < 0 || p >= len(g.cores) {
		return false, fmt.Errorf("rsm: replica %d out of range [0, %d)", p, len(g.cores))
	}
	if seq == 0 {
		return false, fmt.Errorf("rsm: client %d submitted sequence 0 (sequences start at 1)", client)
	}
	key := submission{p, client, seq}
	if _, ok := g.submitted[key]; !ok {
		g.submitted[key] = g.now
	}
	res := g.step(p, live.Event[C]{Kind: live.EvSubmit, Client: client, Seq: seq, Cmd: cmd}, false)
	if res.SubmitDup {
		delete(g.submitted, key)
	}
	return res.SubmitDup, nil
}

// SubmitNext enters cmd at replica p at the client's next fresh sequence
// number there and returns it.
func (g *Group[C]) SubmitNext(p int, client uint64, cmd C) (uint64, error) {
	if p < 0 || p >= len(g.cores) {
		return 0, fmt.Errorf("rsm: replica %d out of range [0, %d)", p, len(g.cores))
	}
	seq := g.cores[p].NextSeq(client)
	_, err := g.Submit(p, client, seq, cmd)
	return seq, err
}

// Tick runs one virtual round: deliveries under HO(·, t), then round
// timeouts, then the idle anti-entropy edge, replica by replica.
func (g *Group[C]) Tick() {
	g.now++
	in := g.out
	g.out = g.spare
	ho := g.env.HOSets(core.Round(g.now), len(g.cores))
	for p := range g.cores {
		var heard core.PIDSet // a provider's missing entry hears nobody
		if p < len(ho) {
			heard = ho[p]
		}
		for q, envs := range in[p] {
			if !heard.Has(core.ProcessID(q)) {
				continue
			}
			for _, env := range envs {
				g.step(p, live.Event[C]{Kind: live.EvEnvelope, Env: env}, false)
			}
		}
		if a := g.armed[p]; a.at != 0 && g.now >= a.at {
			g.step(p, live.Event[C]{Kind: live.EvRoundTimeout}, true)
		}
		if _, _, active := g.cores[p].RoundState(); !active {
			g.step(p, live.Event[C]{Kind: live.EvTick}, false)
		}
	}
	for p := range in {
		for q := range in[p] {
			clear(in[p][q])
			in[p][q] = in[p][q][:0]
		}
	}
	g.spare = in
}

// step runs one core event at replica p and routes its effects: queue
// the outbound envelopes for the next tick, run apply for fresh entries,
// record contact latencies, and re-arm the round timeout.
func (g *Group[C]) step(p int, ev live.Event[C], timedOut bool) live.StepResult[C] {
	c := g.cores[p]
	res := c.Step(ev)
	for _, o := range res.Out {
		if o.To == live.AllPeers {
			for q := range g.cores {
				if q != p {
					g.out[q][p] = append(g.out[q][p], o.Env)
				}
			}
		} else if q := int(o.To); q >= 0 && q < len(g.cores) && q != p {
			g.out[q][p] = append(g.out[q][p], o.Env)
		}
	}
	for _, ae := range res.Applied {
		if ae.Fresh && g.apply != nil {
			g.apply(p, ae.Entry)
		}
		key := submission{p, ae.Entry.Client, ae.Entry.Seq}
		if t0, ok := g.submitted[key]; ok {
			g.latencies = append(g.latencies, g.now-t0)
			delete(g.submitted, key)
		}
	}
	slot, round, active := c.RoundState()
	switch {
	case !active:
		g.armed[p] = deadline{}
	case slot != g.armed[p].slot || round != g.armed[p].round:
		wait := roundTimeout
		if timedOut {
			wait = timedOutRoundTimeout
		}
		g.armed[p] = deadline{slot: slot, round: round, at: g.now + wait}
	}
	return res
}

// Settled reports whether the group is quiescent and converged: every
// replica idle, nothing pending or blocked, and identical decision logs.
func (g *Group[C]) Settled() bool {
	n0, h0 := g.cores[0].LogFingerprint()
	for _, c := range g.cores {
		if n, h := c.LogFingerprint(); n != n0 || h != h0 {
			return false
		}
		if _, _, active := c.RoundState(); active || c.Blocked() != 0 || c.Counters().Pending > 0 {
			return false
		}
	}
	return true
}

// Stats returns the group's counters.
func (g *Group[C]) Stats() Stats {
	st := Stats{Ticks: g.now}
	for _, c := range g.cores {
		cs := c.Counters()
		if cs.Applied > st.Slots {
			st.Slots = cs.Applied
		}
		if cs.Committed > st.Committed {
			st.Committed = cs.Committed
		}
		st.Rounds += cs.Rounds
		st.Divergent += cs.Divergent
	}
	return st
}

// Latencies returns, in apply order, the ticks from submission to apply
// at the contact replica of every applied tracked submission. The slice
// is a copy.
func (g *Group[C]) Latencies() []int { return append([]int(nil), g.latencies...) }

// Settle ticks the groups in lockstep until every one is Settled, at
// most maxTicks ticks; it returns ErrTickBudget if they do not settle.
func Settle[C any](groups []*Group[C], maxTicks int) error {
	for t := 0; ; t++ {
		settled := true
		for _, g := range groups {
			settled = settled && g.Settled()
		}
		if settled {
			return nil
		}
		if t >= maxTicks {
			return fmt.Errorf("rsm: groups unsettled after %d ticks: %w", maxTicks, ErrTickBudget)
		}
		for _, g := range groups {
			g.Tick()
		}
	}
}
