// Closed-loop workload generation over one or more groups: a client
// population drives the replication service and the run reports
// throughput, slot amortization, and latency-in-ticks percentiles.
// Everything is deterministic in (group configs, providers,
// WorkloadConfig), so one workload replays across fault environments —
// the scenario diversity Shimi et al. argue is the payoff of the
// predicate abstraction — and compares number for number.

package rsm

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"heardof/internal/xrand"
)

// KeyDist selects the key-popularity distribution of a workload.
type KeyDist int

const (
	// Uniform draws keys uniformly from the key space.
	Uniform KeyDist = iota
	// Zipfian draws keys with P(k) ∝ 1/(k+1)^s — a hot-key workload.
	Zipfian
)

// String implements fmt.Stringer.
func (d KeyDist) String() string {
	if d == Zipfian {
		return "zipfian"
	}
	return "uniform"
}

// Op is one generated operation, handed to the command constructor.
type Op struct {
	Client uint64
	Seq    uint64
	// Write distinguishes the read/write mix (both replicate: a read
	// through the log is a linearizable read).
	Write bool
	// Key is an index into the key space.
	Key int
}

// WorkloadConfig parameterizes a closed-loop run: each of Clients
// clients keeps at most one command outstanding, submitting a new one
// with probability Rate per tick while idle, until Ops commands have
// been submitted and applied at their contact replicas.
type WorkloadConfig struct {
	// Clients is the closed-loop client population. Client c submits to
	// contact replica c mod n of the group owning each operation.
	Clients int
	// Rate is the per-tick submission probability of an idle client, in
	// (0, 1].
	Rate float64
	// WriteRatio is the fraction of writes in the mix, in [0, 1].
	WriteRatio float64
	// Keys is the key-space size.
	Keys int
	// Dist selects Uniform or Zipfian keys.
	Dist KeyDist
	// ZipfS is the Zipfian exponent. An explicit 0 is honored as s = 0
	// (a uniform draw through the Zipf sampler); defaults such as the
	// YCSB 0.99 live in the flag layer (cmd/hoload -zipf), not here.
	ZipfS float64
	// Ops is the total number of commands to complete.
	Ops int
	// MaxTicks bounds the whole run, settling included.
	MaxTicks int
	// Seed drives the workload's private RNG stream.
	Seed uint64
}

// WorkloadResult reports a run's service-level measurements, all in
// virtual time and all deterministic.
type WorkloadResult struct {
	// Completed counts commands applied at their contact replicas.
	Completed int
	// Slots counts decided slots; Rounds sums consensus rounds over
	// every replica.
	Slots  int
	Rounds int64
	// Ticks is the run's clock: virtual rounds until the last command
	// completed (groups tick in lockstep, so it is shared).
	Ticks int
	// SlotsPerCmd is Slots/Completed — the amortization batching buys.
	SlotsPerCmd float64
	// CmdsPerTick is Completed/Ticks — closed-loop throughput.
	CmdsPerTick float64
	// LatencyP50/P95/P99 are nearest-rank percentiles, in ticks, from
	// submission to apply at the contact replica.
	LatencyP50, LatencyP95, LatencyP99 int
	// Divergent sums conflicting decision observations (0 under
	// consensus safety).
	Divergent int
	// PerGroup holds one result per group (its Ticks is the shared
	// clock); nil inside PerGroup itself.
	PerGroup []WorkloadResult
}

// Validate checks the generator parameters.
func (cfg WorkloadConfig) Validate() error {
	if cfg.Clients < 1 {
		return fmt.Errorf("workload needs ≥ 1 client, got %d", cfg.Clients)
	}
	if !(cfg.Rate > 0 && cfg.Rate <= 1) {
		return fmt.Errorf("workload rate %v outside (0, 1]", cfg.Rate)
	}
	if cfg.WriteRatio < 0 || cfg.WriteRatio > 1 {
		return fmt.Errorf("write ratio %v outside [0, 1]", cfg.WriteRatio)
	}
	if cfg.Keys < 1 || cfg.Ops < 1 || cfg.MaxTicks < 1 {
		return fmt.Errorf("workload needs positive Keys, Ops and MaxTicks (got %d, %d, %d)",
			cfg.Keys, cfg.Ops, cfg.MaxTicks)
	}
	if cfg.ZipfS < 0 {
		return fmt.Errorf("zipfian exponent %v is negative", cfg.ZipfS)
	}
	return nil
}

// resultOf derives the service-level numbers from raw counts; lats is
// sorted in place.
func resultOf(st Stats, ticks int, lats []int) WorkloadResult {
	res := WorkloadResult{
		Completed: len(lats), Slots: int(st.Slots), Rounds: st.Rounds,
		Ticks: ticks, Divergent: st.Divergent,
	}
	if res.Completed > 0 {
		res.SlotsPerCmd = float64(res.Slots) / float64(res.Completed)
	}
	if ticks > 0 {
		res.CmdsPerTick = float64(res.Completed) / float64(ticks)
	}
	sort.Ints(lats)
	res.LatencyP50 = Percentile(lats, 0.50)
	res.LatencyP95 = Percentile(lats, 0.95)
	res.LatencyP99 = Percentile(lats, 0.99)
	return res
}

// RunWorkload drives a closed loop over fresh groups ticking in
// lockstep, then settles them. route maps an operation to its group; nil
// is allowed only for a single group. makeCmd builds the command.
func RunWorkload[C any](groups []*Group[C], cfg WorkloadConfig, makeCmd func(Op) C, route func(Op) int) (WorkloadResult, error) {
	if len(groups) == 0 {
		return WorkloadResult{}, errors.New("rsm: no groups")
	}
	for i, g := range groups {
		if g.now != 0 || len(g.submitted) != 0 || len(g.latencies) != 0 {
			return WorkloadResult{}, fmt.Errorf("rsm: RunWorkload needs fresh groups (group %d is used)", i)
		}
	}
	if err := cfg.Validate(); err != nil {
		return WorkloadResult{}, fmt.Errorf("rsm: %w", err)
	}
	if makeCmd == nil {
		return WorkloadResult{}, errors.New("rsm: nil command constructor")
	}
	if route == nil {
		if len(groups) > 1 {
			return WorkloadResult{}, errors.New("rsm: nil router over several groups")
		}
		route = func(Op) int { return 0 }
	}

	rng := xrand.New(cfg.Seed)
	var zipf *xrand.Zipf
	if cfg.Dist == Zipfian {
		zipf = xrand.NewZipf(rng.Fork(), cfg.ZipfS, cfg.Keys)
	}
	nextKey := func() int {
		if zipf != nil {
			return zipf.Next()
		}
		return rng.Intn(cfg.Keys)
	}

	// outstanding[c] is client c's in-flight command (seq 0 = idle).
	type inflight struct {
		group, contact int
		seq            uint64
	}
	outstanding := make([]inflight, cfg.Clients)
	completed := func() int {
		total := 0
		for _, g := range groups {
			total += len(g.latencies)
		}
		return total
	}
	finish := func(ticks int, err error) (WorkloadResult, error) {
		var agg Stats
		var pooled []int
		per := make([]WorkloadResult, len(groups))
		for i, g := range groups {
			st, lats := g.Stats(), g.Latencies()
			per[i] = resultOf(st, ticks, lats)
			agg.Slots += st.Slots
			agg.Rounds += st.Rounds
			agg.Divergent += st.Divergent
			pooled = append(pooled, lats...)
		}
		res := resultOf(agg, ticks, pooled)
		res.PerGroup = per
		return res, err
	}

	submitted := 0
	for completed() < cfg.Ops {
		if groups[0].now >= cfg.MaxTicks {
			return finish(groups[0].now, fmt.Errorf("rsm: workload completed %d of %d commands in %d ticks: %w",
				completed(), cfg.Ops, cfg.MaxTicks, ErrTickBudget))
		}
		for c := 0; c < cfg.Clients && submitted < cfg.Ops; c++ {
			client := uint64(c)
			if fl := outstanding[c]; fl.seq != 0 {
				if !groups[fl.group].Core(fl.contact).SeqApplied(client, fl.seq) {
					continue // closed loop: one outstanding command per client
				}
				outstanding[c] = inflight{}
			}
			if !rng.Bool(cfg.Rate) {
				continue
			}
			op := Op{Client: client, Write: rng.Bool(cfg.WriteRatio), Key: nextKey()}
			gi := route(op)
			if gi < 0 || gi >= len(groups) {
				return finish(groups[0].now, fmt.Errorf("rsm: router sent an op to group %d of %d", gi, len(groups)))
			}
			g := groups[gi]
			contact := c % g.N()
			op.Seq = g.Core(contact).NextSeq(client)
			if _, err := g.Submit(contact, client, op.Seq, makeCmd(op)); err != nil {
				return finish(groups[0].now, err)
			}
			outstanding[c] = inflight{group: gi, contact: contact, seq: op.Seq}
			submitted++
		}
		for _, g := range groups {
			g.Tick()
		}
	}
	ticks := groups[0].now
	if err := Settle(groups, cfg.MaxTicks-ticks); err != nil {
		return finish(ticks, err)
	}
	return finish(ticks, nil)
}

// Percentile returns the q-quantile of an already-sorted slice using the
// nearest-rank definition — index ⌈q·n⌉−1 — or 0 for an empty slice.
func Percentile(sorted []int, q float64) int {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon guards the ceil against float64 products landing one
	// ulp ABOVE an exact integer q·n (0.07·100 = 7.000000000000001 would
	// otherwise yield rank 8 where exact arithmetic says 7).
	const eps = 1e-9
	rank := int(math.Ceil(q*float64(len(sorted))-eps)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
