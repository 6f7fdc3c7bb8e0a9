package rsm_test

import (
	"errors"
	"fmt"
	"testing"

	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/kvstore"
	"heardof/internal/rsm"
	"heardof/internal/xrand"
)

// workloadGroups builds len(envs) fresh 5-replica groups, one per
// environment, with apply logs.
func workloadGroups(t testing.TB, envs ...core.HOProvider) ([]*rsm.Group[cmd], []logs) {
	t.Helper()
	groups := make([]*rsm.Group[cmd], len(envs))
	ls := make([]logs, len(envs))
	for i, env := range envs {
		groups[i], ls[i] = newGroup(t, coreConfig(5, 8), env)
	}
	return groups, ls
}

func lossEnv(rate float64, seed uint64) core.HOProvider {
	return &adversary.TransmissionLoss{Rate: rate, RNG: xrand.New(seed)}
}

func checkConverged(t *testing.T, ls []logs) {
	t.Helper()
	for i, l := range ls {
		if !l.converged() {
			t.Errorf("group %d: replicas diverged", i)
		}
		if dup, has := l.firstDuplicate(); has {
			t.Errorf("group %d: command %q applied twice", i, dup)
		}
	}
}

func TestWorkloadClosedLoopCompletes(t *testing.T) {
	groups, ls := workloadGroups(t, adversary.Full{})
	res, err := rsm.RunWorkload(groups, rsm.WorkloadConfig{
		Clients: 10, Rate: 0.8, WriteRatio: 0.7, Keys: 32,
		Dist: rsm.Zipfian, ZipfS: 0.99, Ops: 120, MaxTicks: 2000, Seed: 3,
	}, kvstore.WorkloadCommand, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 120 || res.Divergent != 0 {
		t.Errorf("completed %d of 120, divergent %d", res.Completed, res.Divergent)
	}
	if res.SlotsPerCmd >= 1 {
		t.Errorf("slots/cmd = %v; batching should amortize below 1", res.SlotsPerCmd)
	}
	if res.CmdsPerTick <= 0 {
		t.Errorf("throughput = %v", res.CmdsPerTick)
	}
	if res.LatencyP50 < 1 || res.LatencyP95 < res.LatencyP50 || res.LatencyP99 < res.LatencyP95 {
		t.Errorf("latency percentiles out of order: p50=%d p95=%d p99=%d",
			res.LatencyP50, res.LatencyP95, res.LatencyP99)
	}
	checkConverged(t, ls)
}

func TestWorkloadUnderLossStillExactlyOnce(t *testing.T) {
	groups, ls := workloadGroups(t, lossEnv(0.25, 23))
	res, err := rsm.RunWorkload(groups, rsm.WorkloadConfig{
		Clients: 6, Rate: 0.9, WriteRatio: 0.5, Keys: 16,
		Dist: rsm.Uniform, Ops: 60, MaxTicks: 3000, Seed: 5,
	}, kvstore.WorkloadCommand, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 60 || len(ls[0][0]) != 60 {
		t.Errorf("completed %d of 60, applied %d", res.Completed, len(ls[0][0]))
	}
	checkConverged(t, ls)
}

// TestOTRTimeoutLivelockRegression pins the round-timeout rule: with a
// one-tick window for every round, OTR at n=5 under 20% loss completed
// 1–9 of 150 commands in 5000 ticks, because a replica that timed out
// stayed a round ahead of the group for good. Rounds entered by a
// timeout now wait two ticks, and the E10 shape finishes well inside
// the budget.
func TestOTRTimeoutLivelockRegression(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		groups, ls := workloadGroups(t, lossEnv(0.2, seed))
		res, err := rsm.RunWorkload(groups, rsm.WorkloadConfig{
			Clients: 16, Rate: 0.7, WriteRatio: 0.75, Keys: 48,
			Dist: rsm.Zipfian, ZipfS: 0.99, Ops: 150, MaxTicks: 1500, Seed: seed,
		}, kvstore.WorkloadCommand, nil)
		if err != nil {
			t.Fatalf("seed %d: %v (completed %d)", seed, err, res.Completed)
		}
		checkConverged(t, ls)
	}
}

// fingerprint captures a run's observable output: the result and every
// replica's decision-log hash.
func fingerprint(res rsm.WorkloadResult, groups []*rsm.Group[cmd]) string {
	out := fmt.Sprintf("%+v", res)
	for _, g := range groups {
		for p := 0; p < g.N(); p++ {
			n, h := g.Core(p).LogFingerprint()
			out += fmt.Sprintf("|%d:%x", n, h)
		}
	}
	return out
}

func TestWorkloadDeterministic(t *testing.T) {
	run := func() string {
		groups, _ := workloadGroups(t, lossEnv(0.15, 5000))
		res, err := rsm.RunWorkload(groups, rsm.WorkloadConfig{
			Clients: 8, Rate: 0.7, WriteRatio: 0.6, Keys: 24,
			Dist: rsm.Zipfian, ZipfS: 0.99, Ops: 80, MaxTicks: 3000, Seed: 11,
		}, kvstore.WorkloadCommand, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(res, groups)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different runs:\n%s\n%s", a, b)
	}
}

func TestWorkloadBudgetExhaustion(t *testing.T) {
	groups, _ := workloadGroups(t, adversary.Full{})
	res, err := rsm.RunWorkload(groups, rsm.WorkloadConfig{
		Clients: 4, Rate: 1, WriteRatio: 1, Keys: 4, Ops: 500, MaxTicks: 3, Seed: 1,
	}, kvstore.WorkloadCommand, nil)
	if !errors.Is(err, rsm.ErrTickBudget) {
		t.Errorf("error = %v, want ErrTickBudget", err)
	}
	if res.Ticks != 3 {
		t.Errorf("ran %d ticks on a budget of 3", res.Ticks)
	}
}

func TestShardedWorkloadCompletes(t *testing.T) {
	// Four groups, mixed environments, one closed loop routed by key.
	groups, ls := workloadGroups(t, adversary.Full{}, lossEnv(0.3, 7), adversary.RotatingCrash{Epoch: 20}, adversary.Full{})
	res, err := rsm.RunWorkload(groups, rsm.WorkloadConfig{
		Clients: 16, Rate: 0.8, WriteRatio: 0.75, Keys: 64,
		Dist: rsm.Uniform, Ops: 200, MaxTicks: 4000, Seed: 4,
	}, kvstore.WorkloadCommand, kvstore.WorkloadRoute(4))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for i, pg := range res.PerGroup {
		if pg.Completed == 0 {
			t.Errorf("group %d completed nothing", i)
		}
		if pg.Ticks != res.Ticks {
			t.Errorf("group %d clock %d, shared clock %d", i, pg.Ticks, res.Ticks)
		}
		sum += pg.Completed
	}
	if res.Completed != 200 || sum != 200 {
		t.Errorf("completed %d (groups sum %d) of 200", res.Completed, sum)
	}
	checkConverged(t, ls)
}

func TestShardedWorkloadDeterministic(t *testing.T) {
	run := func() string {
		groups, _ := workloadGroups(t, lossEnv(0.2, 1), adversary.RotatingCrash{Epoch: 20}, adversary.Full{})
		res, err := rsm.RunWorkload(groups, rsm.WorkloadConfig{
			Clients: 12, Rate: 0.7, WriteRatio: 0.75, Keys: 48,
			Dist: rsm.Zipfian, ZipfS: 0.99, Ops: 150, MaxTicks: 4000, Seed: 2,
		}, kvstore.WorkloadCommand, kvstore.WorkloadRoute(3))
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(res, groups)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different runs:\n%s\n%s", a, b)
	}
}

func TestShardedWorkloadBudgetIsGlobalHardBound(t *testing.T) {
	// One tick budget covers every group: the lockstep clock stops at it
	// even when one group can never decide.
	groups, _ := workloadGroups(t, adversary.Full{}, adversary.Silence{})
	res, err := rsm.RunWorkload(groups, rsm.WorkloadConfig{
		Clients: 8, Rate: 1, WriteRatio: 1, Keys: 16, Ops: 100, MaxTicks: 50, Seed: 1,
	}, kvstore.WorkloadCommand, kvstore.WorkloadRoute(2))
	if !errors.Is(err, rsm.ErrTickBudget) {
		t.Fatalf("error = %v, want ErrTickBudget", err)
	}
	for i, g := range groups {
		if tk := g.Stats().Ticks; tk != 50 {
			t.Errorf("group %d ran %d ticks on a global budget of 50", i, tk)
		}
	}
	if res.PerGroup[1].Completed != 0 {
		t.Errorf("the silent group completed %d commands", res.PerGroup[1].Completed)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	// Nearest rank is ⌈q·n⌉−1; rounding q·n half-up undershoots it
	// whenever frac(q·n) ∈ (0, 0.5) — e.g. n=39, q=0.95 gave 36, not 37.
	seq := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i // sorted[i] == i, so values ARE indexes
		}
		return out
	}
	tests := []struct {
		n    int
		q    float64
		want int
	}{
		{39, 0.95, 37}, {39, 0.50, 19}, {39, 0.99, 38}, {150, 0.99, 148},
		{100, 0.95, 94}, {100, 0.50, 49}, {1, 0.99, 0}, {10, 0.01, 0}, {4, 1.0, 3},
		// Float guard: 0.07·100 is 7.000000000000001 in float64; a naive
		// ceil would overshoot to rank 7 where exact ⌈7⌉−1 = 6.
		{100, 0.07, 6},
	}
	for _, tt := range tests {
		if got := rsm.Percentile(seq(tt.n), tt.q); got != tt.want {
			t.Errorf("Percentile(n=%d, q=%v) = %d, want %d", tt.n, tt.q, got, tt.want)
		}
	}
	if got := rsm.Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(empty) = %d, want 0", got)
	}
}

func TestZipfExponentZeroIsHonored(t *testing.T) {
	// An explicit ZipfS of 0 runs s = 0 (uniform through the Zipf
	// sampler), not the YCSB default: it must generate a different key
	// sequence than s = 0.99, with no key as hot as 0.99's hottest.
	keysFor := func(s float64) map[int]int {
		groups, _ := workloadGroups(t, adversary.Full{})
		keys := make(map[int]int)
		_, err := rsm.RunWorkload(groups, rsm.WorkloadConfig{
			Clients: 4, Rate: 0.9, WriteRatio: 1, Keys: 64,
			Dist: rsm.Zipfian, ZipfS: s, Ops: 80, MaxTicks: 2000, Seed: 9,
		}, func(op rsm.Op) cmd {
			keys[op.Key]++
			return kvstore.WorkloadCommand(op)
		}, nil)
		if err != nil {
			t.Fatalf("s=%v: %v", s, err)
		}
		return keys
	}
	hottest := func(m map[int]int) int {
		best := 0
		for _, c := range m {
			best = max(best, c)
		}
		return best
	}
	zero, ycsb := keysFor(0), keysFor(0.99)
	if fmt.Sprint(zero) == fmt.Sprint(ycsb) {
		t.Error("ZipfS=0 generated the same keys as ZipfS=0.99 — the explicit 0 was overridden")
	}
	if mz, my := hottest(zero), hottest(ycsb); mz >= my {
		t.Errorf("hottest-key count under s=0 (%d) not below s=0.99 (%d) — s=0 should be uniform", mz, my)
	}
}

func TestWorkloadValidation(t *testing.T) {
	good := rsm.WorkloadConfig{Clients: 1, Rate: 0.5, WriteRatio: 0.5, Keys: 1, Ops: 1, MaxTicks: 10, Seed: 1}
	mutations := []func(*rsm.WorkloadConfig){
		func(c *rsm.WorkloadConfig) { c.Clients = 0 },
		func(c *rsm.WorkloadConfig) { c.Rate = 0 },
		func(c *rsm.WorkloadConfig) { c.Rate = 1.5 },
		func(c *rsm.WorkloadConfig) { c.WriteRatio = -0.1 },
		func(c *rsm.WorkloadConfig) { c.Keys = 0 },
		func(c *rsm.WorkloadConfig) { c.Ops = 0 },
		func(c *rsm.WorkloadConfig) { c.MaxTicks = 0 },
		func(c *rsm.WorkloadConfig) { c.ZipfS = -0.5 },
	}
	for i, mut := range mutations {
		groups, _ := workloadGroups(t, adversary.Full{})
		cfg := good
		mut(&cfg)
		if _, err := rsm.RunWorkload(groups, cfg, kvstore.WorkloadCommand, nil); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, cfg)
		}
	}
	groups, _ := workloadGroups(t, adversary.Full{})
	if _, err := rsm.RunWorkload[cmd](groups, good, nil, nil); err == nil {
		t.Error("nil makeCmd accepted")
	}
	if _, err := rsm.RunWorkload[cmd](nil, good, kvstore.WorkloadCommand, nil); err == nil {
		t.Error("no groups accepted")
	}
	two, _ := workloadGroups(t, adversary.Full{}, adversary.Full{})
	if _, err := rsm.RunWorkload(two, good, kvstore.WorkloadCommand, nil); err == nil {
		t.Error("nil router over two groups accepted")
	}
	// A used group is rejected.
	used, _ := workloadGroups(t, adversary.Full{})
	used[0].Tick()
	if _, err := rsm.RunWorkload(used, good, kvstore.WorkloadCommand, nil); err == nil {
		t.Error("non-fresh group accepted")
	}
}
