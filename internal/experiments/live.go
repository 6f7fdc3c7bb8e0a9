// E12: the live smoke comparison — the same replicated-KV workload
// shape pushed through the two implementation layers the repo has: the
// deterministic simulator (rsm.RunWorkload over kvstore.Cluster, virtual
// rounds) and the live runtime (a livekv cluster over the in-process
// channel transport, real clocks and goroutines). The point is the
// paper's separation of concerns made concrete: both arms run IDENTICAL
// replica code (live.ReplicaCore with LastVoting instances); only the
// layer below the rounds changes, and safety — agreement, convergence,
// zero divergence — must survive the move unchanged.
//
// Unlike E1–E11, the live arm measures real time: its numbers vary with
// the host and the scheduler, so E12 is NOT part of the byte-determinism
// contract and is excluded from Runner.All and hobench's default output
// (run `hobench -live`). The simulated columns remain reproducible.

package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"heardof/internal/core"
	"heardof/internal/kvstore"
	"heardof/internal/lastvoting"
	"heardof/internal/live"
	"heardof/internal/livekv"
	"heardof/internal/rsm"
)

// E12 configuration: both arms use LastVoting over n=3 replicas × 2
// groups, ~400 committed commands, fault-free and 10%-loss environments.
const (
	e12N        = 3
	e12Groups   = 2
	e12Ops      = 400
	e12Clients  = 8
	e12MaxTicks = 20000
	e12Loss     = 0.10
)

// E12Live builds the comparison table: one row per (mode, environment).
func (r *Runner) E12Live(ctx context.Context) *Table {
	t := &Table{
		ID: "E12",
		Title: fmt.Sprintf("simulated vs live replication — LastVoting, n=%d × %d groups, %d ops, mixed put/get",
			e12N, e12Groups, e12Ops),
		Header: []string{"mode", "env", "cmds", "slots", "slots/cmd", "throughput", "wall", "safety"},
		Notes: []string{
			"both arms run the same replica code (live.ReplicaCore); simulated rows are deterministic in the seed, live rows measure real time on this host and vary run to run",
			"live arm: in-process channel transport, 1ms round timeout, per-node loss injection at the transport layer",
		},
	}
	for _, loss := range []float64{0, e12Loss} {
		env := "good"
		if loss > 0 {
			env = fmt.Sprintf("%.0f%% loss", loss*100)
		}
		if err := e12Simulated(t, env, loss, r.cfg.Seed); err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("simulated/%s failed: %v", env, err))
		}
		if err := e12LiveArm(ctx, t, env, loss, r.cfg.Seed); err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("live/%s failed: %v", env, err))
		}
	}
	return t
}

// e12Simulated runs the simulator arm: the same replica core as the
// live arm, stepped by rsm's virtual-round driver.
func e12Simulated(t *Table, env string, loss float64, seed uint64) error {
	cfg := live.CoreConfig[kvstore.Command]{N: e12N, Algorithm: lastvoting.Algorithm{}, Msg: lastvoting.WireCodec{}}
	envOf := func(g int) core.HOProvider {
		if loss == 0 {
			return serviceEnv("good", 0, 0)
		}
		return serviceEnv("loss", loss, seed+uint64(g)*1000003)
	}
	//holint:allow nodeterminism E12 measures live host wall time; it is excluded from IDs() and the determinism byte-cmp
	start := time.Now()
	res, err := runService(e12Groups, cfg, envOf, rsm.WorkloadConfig{
		Clients: e12Clients, Rate: 0.7, WriteRatio: 0.6, Keys: 32,
		Ops: e12Ops, MaxTicks: e12MaxTicks, Seed: seed,
	})
	if err != nil {
		return err
	}
	t.AddRow("simulated", env, res.Completed, res.Slots,
		fmt.Sprintf("%.3f", res.SlotsPerCmd),
		fmt.Sprintf("%.2f cmds/round", res.CmdsPerTick),
		//holint:allow nodeterminism E12 measures live host wall time; it is excluded from IDs() and the determinism byte-cmp
		fmt.Sprintf("%d rounds (%.0fms host)", res.Ticks, float64(time.Since(start))/float64(time.Millisecond)),
		"converged, 0 divergent")
	return nil
}

// e12LiveArm runs the live arm: the same algorithm over the channel
// transport with real clocks, driven by concurrent closed-loop clients
// performing the hoload-style single-writer read check.
func e12LiveArm(ctx context.Context, t *Table, env string, loss float64, seed uint64) error {
	cluster, err := livekv.NewCluster(livekv.Config{
		Replicas: e12N, Groups: e12Groups, RoundTimeout: time.Millisecond,
	}, seed)
	if err != nil {
		return err
	}
	defer cluster.Close()
	for i := 0; i < cluster.N(); i++ {
		cluster.Faults(i).SetLoss(loss)
	}
	cluster.Start()

	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	perClient := e12Ops / e12Clients
	//holint:allow nodeterminism E12 measures live host wall time; it is excluded from IDs() and the determinism byte-cmp
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, e12Clients)
	for cl := 0; cl < e12Clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			nd := cluster.Node(cl % cluster.N())
			key := fmt.Sprintf("c%d", cl)
			last := ""
			for i := 1; i <= perClient; i++ {
				if i%3 != 0 || last == "" {
					last = fmt.Sprintf("v%d", i)
					if err := nd.Put(ctx, key, last); err != nil {
						errCh <- err
						return
					}
				} else {
					v, ok, err := nd.Get(ctx, key)
					if err != nil {
						errCh <- err
						return
					}
					if !ok || v != last {
						errCh <- fmt.Errorf("stale read %q, want %q", v, last)
						return
					}
				}
			}
		}(cl)
	}
	wg.Wait()
	//holint:allow nodeterminism E12 measures live host wall time; it is excluded from IDs() and the determinism byte-cmp
	elapsed := time.Since(start)
	close(errCh)
	for err := range errCh {
		return err
	}
	for i := 0; i < cluster.N(); i++ {
		cluster.Faults(i).SetLoss(0)
	}

	safety := "converged, 0 divergent"
	if err := cluster.ConvergedWithin(20 * time.Second); err != nil {
		safety = fmt.Sprintf("NOT CONVERGED: %v", err)
	}
	var cmds int
	var slots uint64
	for _, st := range cluster.Node(0).Status() {
		cmds += st.Stats.Committed
		slots += st.LogLen
	}
	slotsPerCmd := 0.0
	if cmds > 0 {
		slotsPerCmd = float64(slots) / float64(cmds)
	}
	t.AddRow("live", env, cmds, slots,
		fmt.Sprintf("%.3f", slotsPerCmd),
		fmt.Sprintf("%.0f cmds/sec", float64(cmds)/elapsed.Seconds()),
		elapsed.Round(time.Millisecond).String(),
		safety)
	return nil
}

// E12Live regenerates the comparison with default execution.
func E12Live(seed uint64) *Table {
	return New(Config{Seed: seed}).E12Live(context.Background())
}
