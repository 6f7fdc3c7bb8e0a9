package rsm_test

import (
	"fmt"
	"testing"

	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/kvstore"
	"heardof/internal/rsm"
)

// The BenchmarkRSM_* suite is the simulated service's perf trajectory:
// scripts/bench.sh parses cmds/sec, slots/cmd, shards and cmds/round into
// BENCH_kv.json. One iteration is one complete drain or workload over
// fresh groups with a fixed seed, so cmds/sec reads as host throughput
// of the virtual-round driver and allocs/op stays comparable across
// runs.

// drain submits cmds commands round-robin over the contacts of a fresh
// 5-replica group and settles it.
func drain(b *testing.B, env func() core.HOProvider, cmds int) rsm.Stats {
	g, _ := newGroup(b, coreConfig(5, 64), env())
	for i := 0; i < cmds; i++ {
		if _, err := g.SubmitNext(i%5, uint64(i%5), put("v")); err != nil {
			b.Fatal(err)
		}
	}
	if err := rsm.Settle([]*rsm.Group[cmd]{g}, 100*cmds); err != nil {
		b.Fatal(err)
	}
	return g.Stats()
}

func benchDrain(b *testing.B, env func() core.HOProvider) {
	const cmds = 200
	var st rsm.Stats
	for i := 0; i < b.N; i++ {
		st = drain(b, env, cmds)
	}
	b.ReportMetric(float64(cmds*b.N)/b.Elapsed().Seconds(), "cmds/sec")
	b.ReportMetric(float64(st.Slots)/float64(st.Committed), "slots/cmd")
}

// BenchmarkRSM_DrainBatched drains a 200-command burst over five
// contacts through 64-wide batches in good rounds.
func BenchmarkRSM_DrainBatched(b *testing.B) {
	benchDrain(b, func() core.HOProvider { return adversary.Full{} })
}

// BenchmarkRSM_DrainLossy is DrainBatched under 20% transmission loss.
func BenchmarkRSM_DrainLossy(b *testing.B) {
	benchDrain(b, func() core.HOProvider { return lossEnv(0.2, 7) })
}

// BenchmarkRSM_ClosedLoopWorkload runs the E10 closed loop: 16 zipfian
// clients completing 150 commands at n=5 under 20% loss.
func BenchmarkRSM_ClosedLoopWorkload(b *testing.B) {
	const ops = 150
	var res rsm.WorkloadResult
	for i := 0; i < b.N; i++ {
		groups, _ := workloadGroups(b, lossEnv(0.2, 7))
		var err error
		res, err = rsm.RunWorkload(groups, rsm.WorkloadConfig{
			Clients: 16, Rate: 0.7, WriteRatio: 0.75, Keys: 48,
			Dist: rsm.Zipfian, ZipfS: 0.99, Ops: ops, MaxTicks: 5000, Seed: 1,
		}, kvstore.WorkloadCommand, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ops*b.N)/b.Elapsed().Seconds(), "cmds/sec")
	b.ReportMetric(res.SlotsPerCmd, "slots/cmd")
	b.ReportMetric(res.CmdsPerTick, "cmds/round")
}

// BenchmarkRSM_ShardedWorkload runs the E11 closed loop: 12 zipfian
// clients and 120 commands per group, group environments cycling
// good / 30% loss / crash-recovery.
func BenchmarkRSM_ShardedWorkload(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			ops := 120 * shards
			var res rsm.WorkloadResult
			for i := 0; i < b.N; i++ {
				envs := make([]core.HOProvider, shards)
				for g := range envs {
					envs[g] = []core.HOProvider{adversary.Full{}, lossEnv(0.3, uint64(g)), adversary.RotatingCrash{Epoch: 20}}[g%3]
				}
				groups, _ := workloadGroups(b, envs...)
				var err error
				res, err = rsm.RunWorkload(groups, rsm.WorkloadConfig{
					Clients: 12 * shards, Rate: 0.7, WriteRatio: 0.75, Keys: 96,
					Dist: rsm.Zipfian, ZipfS: 0.99, Ops: ops, MaxTicks: 20000, Seed: 1,
				}, kvstore.WorkloadCommand, kvstore.WorkloadRoute(shards))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(shards), "shards")
			b.ReportMetric(float64(ops*b.N)/b.Elapsed().Seconds(), "cmds/sec")
			b.ReportMetric(res.CmdsPerTick, "cmds/round")
		})
	}
}
