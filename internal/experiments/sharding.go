package experiments

import (
	"context"
	"fmt"

	"heardof/internal/core"
	"heardof/internal/rsm"
	"heardof/internal/sweep"
)

// E11 configuration shared by every cell: each group is an E10-shaped
// group (5 replicas, OTR, 8-command batches). The experiment is WEAK
// scaling: the closed-loop client population and the command count grow
// with the group count (12 clients and 120 commands per group), so each
// row offers every group the same load and the aggregate throughput
// should grow with S — a closed loop with a FIXED population cannot
// scale, because its offered load, not consensus capacity, is the
// binding constraint.
const (
	e11N               = 5
	e11Batch           = 8
	e11ClientsPerShard = 12
	e11OpsPerShard     = 120
	e11Keys            = 96
	e11MaxTicks        = 20000
)

// e11Env is the mixed per-group environment: groups cycle through good,
// 30% transmission loss, and rotating crash-recovery — every group faces
// its own fault pattern. With S = 1 the single group runs good.
func e11Env(seed uint64) func(g int) core.HOProvider {
	return func(g int) core.HOProvider {
		switch g % 3 {
		case 1:
			return serviceEnv("loss", 0.3, seed+uint64(g)*100003)
		case 2:
			return serviceEnv("crash-recovery", 0, 0)
		default:
			return serviceEnv("good", 0, 0)
		}
	}
}

// E11Sharding measures horizontal scaling of the service layer: the same
// closed-loop workload over S ∈ {1, 2, 4, 8} independent replication
// groups under mixed per-group fault environments, with uniform and
// skewed (zipfian s=0.99, hash-routed so the hot keys pile onto one
// group) key popularity. Groups tick in lockstep, so throughput is
// aggregate commands per shared virtual round; the cost of a hot group
// shows as the gap between the uniform and zipfian rows at the same S.
// One cell per row; all numbers in virtual rounds, byte-stable across
// hosts and -parallel.
func (r *Runner) E11Sharding(ctx context.Context) *Table {
	t := &Table{
		ID:    "E11",
		Title: "sharded service — closed-loop scaling over S groups in virtual rounds, mixed per-group environments (n=5/group, OTR, batch ≤ 8)",
		Header: []string{
			"shards", "dist", "cmds", "slots/cmd", "cmds/round",
			"wall rounds", "lat p50", "lat p95", "lat p99", "hot-shard cmds",
		},
	}
	seed := r.cfg.Seed

	type rowSpec struct {
		shards int
		dist   rsm.KeyDist
		off    uint64
	}
	var specs []rowSpec
	for i, s := range []int{1, 2, 4, 8} {
		specs = append(specs,
			rowSpec{s, rsm.Uniform, uint64(1000 + 10*i)},
			rowSpec{s, rsm.Zipfian, uint64(1000 + 10*i + 5)},
		)
	}

	cells := make([]sweep.Cell, 0, len(specs))
	for _, spec := range specs {
		spec := spec
		label := fmt.Sprintf("E11/s=%d/%s", spec.shards, spec.dist)
		cells = append(cells, rowCell(label, func() (tableOp, error) {
			ops := e11OpsPerShard * spec.shards
			res, err := runService(spec.shards, otrCore(e11N, e11Batch), e11Env(seed+spec.off), rsm.WorkloadConfig{
				Clients: e11ClientsPerShard * spec.shards, Rate: 0.7, WriteRatio: 0.75,
				Keys: e11Keys, Dist: spec.dist, ZipfS: 0.99, Ops: ops,
				MaxTicks: e11MaxTicks, Seed: seed + spec.off + 1,
			})
			if err != nil {
				return nil, err
			}
			hot := 0
			for _, pg := range res.PerGroup {
				if pg.Completed > hot {
					hot = pg.Completed
				}
			}
			return func(t *Table) {
				t.AddRow(spec.shards, spec.dist.String(), res.Completed,
					res.SlotsPerCmd, res.CmdsPerTick, res.Ticks,
					res.LatencyP50, res.LatencyP95, res.LatencyP99, hot)
			}, nil
		}))
	}
	r.sweepInto(ctx, t, cells)
	t.Notes = append(t.Notes,
		fmt.Sprintf("weak scaling: %d clients and %d commands PER GROUP (arrival rate 0.7/round, 75%% writes, %d keys); group environments cycle good / loss 30%% / crash-recovery", e11ClientsPerShard, e11OpsPerShard, e11Keys),
		"groups tick in lockstep, so wall rounds is the shared virtual clock; hot-shard cmds shows the skew a zipfian workload concentrates on one group; every row converged with 0 divergent decisions",
	)
	return t
}

// E11Sharding regenerates the sharded-scaling table with default execution.
func E11Sharding(seed uint64) *Table {
	return New(Config{Seed: seed}).E11Sharding(context.Background())
}
