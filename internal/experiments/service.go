package experiments

import (
	"context"
	"errors"
	"fmt"

	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/kvstore"
	"heardof/internal/live"
	"heardof/internal/otr"
	"heardof/internal/rsm"
	"heardof/internal/sweep"
	"heardof/internal/xrand"
)

// E10 configuration shared by every cell: a 5-replica KV service with
// 8-command batches, driven by a closed loop of 16 clients completing
// 150 commands.
const (
	e10N        = 5
	e10Batch    = 8
	e10Clients  = 16
	e10Ops      = 150
	e10Keys     = 48
	e10MaxTicks = 5000
)

// crashEpoch is the rotating-crash epoch of the service experiments, in
// ticks: a replica is cut off for the first half of every epoch.
const crashEpoch = 20

// serviceEnv builds a service experiment's HO environment over ticks.
//
//   - good: fault-free ticks.
//   - loss: iid transmission loss at the given rate, forever.
//   - crash-recovery: a rotating replica is cut off for the first half of
//     every crashEpoch-tick epoch and recovers for the second half — a
//     minority is down at any time, so OneThirdRule still clears its
//     2n/3 quorum.
func serviceEnv(env string, loss float64, seed uint64) core.HOProvider {
	switch env {
	case "loss":
		return &adversary.TransmissionLoss{Rate: loss, RNG: xrand.New(seed)}
	case "crash-recovery":
		return adversary.RotatingCrash{Epoch: crashEpoch}
	default: // "good"
		return adversary.Full{}
	}
}

// otrCore is the replica configuration of the OneThirdRule service
// experiments.
func otrCore(n, maxBatch int) live.CoreConfig[kvstore.Command] {
	return live.CoreConfig[kvstore.Command]{N: n, Algorithm: otr.Algorithm{}, Msg: otr.WireCodec{}, MaxBatch: maxBatch}
}

// runService runs one closed-loop workload over a fresh cluster and
// checks that every group converged with no divergent decision.
func runService(groups int, cfg live.CoreConfig[kvstore.Command], env func(int) core.HOProvider,
	wcfg rsm.WorkloadConfig) (rsm.WorkloadResult, error) {
	cluster, err := kvstore.NewCluster(groups, cfg, env)
	if err != nil {
		return rsm.WorkloadResult{}, err
	}
	res, err := rsm.RunWorkload(cluster.Groups(), wcfg, kvstore.WorkloadCommand, kvstore.WorkloadRoute(groups))
	if err != nil {
		return res, err
	}
	if !cluster.Converged() {
		return res, errors.New("replicas diverged")
	}
	return res, nil
}

// E10Service measures the service layer end to end: the same closed-loop
// workload replayed over the replica core in a good-period,
// sustained-loss, and crash-recovery environment. This is the
// scenario-diversity payoff of the predicate abstraction (Shimi et al.):
// one stack, many fault environments, directly comparable numbers. One
// cell per row; throughput and latency are measured in virtual rounds
// (ticks), so the table is byte-stable across hosts and -parallel.
func (r *Runner) E10Service(ctx context.Context) *Table {
	t := &Table{
		ID:    "E10",
		Title: "service layer — closed-loop load over the replica core in virtual rounds (n=5, OTR, batch ≤ 8)",
		Header: []string{
			"environment", "keys", "cmds", "slots", "slots/cmd",
			"cmds/round", "wall rounds", "lat p50", "lat p95", "lat p99",
		},
	}
	seed := r.cfg.Seed

	type rowSpec struct {
		env  string
		dist rsm.KeyDist
		off  uint64
	}
	specs := []rowSpec{
		{"good", rsm.Uniform, 100},
		{"good", rsm.Zipfian, 200},
		{"loss", rsm.Zipfian, 300},
		{"crash-recovery", rsm.Zipfian, 400},
	}

	cells := make([]sweep.Cell, 0, len(specs))
	for _, spec := range specs {
		spec := spec
		name := spec.env
		if name == "loss" {
			name = "loss 20%"
		}
		cells = append(cells, rowCell("E10/"+name+"/"+spec.dist.String(), func() (tableOp, error) {
			env := func(int) core.HOProvider { return serviceEnv(spec.env, 0.2, seed+spec.off) }
			res, err := runService(1, otrCore(e10N, e10Batch), env, rsm.WorkloadConfig{
				Clients: e10Clients, Rate: 0.7, WriteRatio: 0.75,
				Keys: e10Keys, Dist: spec.dist, ZipfS: 0.99, Ops: e10Ops,
				MaxTicks: e10MaxTicks, Seed: seed + spec.off + 1,
			})
			if err != nil {
				return nil, err
			}
			return func(t *Table) {
				t.AddRow(name+" / "+spec.dist.String(), e10Keys,
					res.Completed, res.Slots, res.SlotsPerCmd, res.CmdsPerTick,
					res.Ticks, res.LatencyP50, res.LatencyP95, res.LatencyP99)
			}, nil
		}))
	}
	r.sweepInto(ctx, t, cells)
	t.Notes = append(t.Notes,
		fmt.Sprintf("closed loop: %d clients, arrival rate 0.7/round, 75%% writes, %d commands; client c submits to replica c mod n; latency in virtual rounds from submission to apply at that replica", e10Clients, e10Ops),
		"every replica runs live.ReplicaCore, the deployed replica code; one wall round is one virtual round (tick); every row converged with 0 divergent decisions",
	)
	return t
}

// E10Service regenerates the service-layer table with default execution.
func E10Service(seed uint64) *Table {
	return New(Config{Seed: seed}).E10Service(context.Background())
}
