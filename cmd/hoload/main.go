// Command hoload is the closed-loop load harness for the replication
// service: a configurable client population drives a simulated KV
// cluster — S groups of n live.ReplicaCore replicas run by internal/rsm's
// virtual-round driver — through chosen fault environments, and the run
// reports throughput, slots-per-command amortization, and
// latency-in-rounds percentiles.
//
// All measurements are in virtual rounds, so stdout is byte-identical
// for a given flag set regardless of host speed; wall-clock timing goes
// to stderr.
//
// Usage:
//
//	hoload                                  # defaults: good environment
//	hoload -env loss -loss 0.3              # sustained 30% transmission loss
//	hoload -env crash                       # rotating crash-recovery epochs
//	hoload -clients 64 -ops 2000 -dist zipfian -rate 0.9
//	hoload -batch 16 -maxticks 50000        # batch cap and run budget
//	hoload -shards 4                        # 4 independent groups, all -env
//	hoload -shards 4 -shardenvs good,loss,crash   # per-group environments
//	hoload -zipf 0                          # an explicit s=0 IS honored
//
// With -http host:port[,host:port...] hoload instead drives a LIVE
// hoserve deployment over HTTP: a closed-loop mixed PUT/GET workload
// with per-client single-writer keys, checking every read against the
// last committed write (a linearizability check the replicated-log reads
// must pass) and reporting wall-clock throughput and latency
// percentiles. That mode measures real time and is not byte-reproducible
// — it is excluded from the CI determinism comparisons.
//
//	hoload -http 127.0.0.1:8101,127.0.0.1:8102 -clients 8 -ops 1000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/kvstore"
	"heardof/internal/live"
	"heardof/internal/otr"
	"heardof/internal/rsm"
	"heardof/internal/xrand"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hoload:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n         = flag.Int("n", 5, "number of replicas per group")
		env       = flag.String("env", "good", "fault environment: good, loss, crash")
		lossRate  = flag.Float64("loss", 0.2, "transmission loss probability for loss environments")
		shards    = flag.Int("shards", 1, "independent replication groups over a partitioned keyspace")
		shardenvs = flag.String("shardenvs", "", "comma-separated per-group environments, cycled across groups (default: -env everywhere)")
		clients   = flag.Int("clients", 16, "closed-loop client population")
		rate      = flag.Float64("rate", 0.7, "per-round submission probability of an idle client")
		writes    = flag.Float64("writes", 0.75, "write fraction of the operation mix")
		keys      = flag.Int("keys", 48, "key-space size")
		dist      = flag.String("dist", "zipfian", "key distribution: uniform or zipfian")
		zipfS     = flag.Float64("zipf", 0.99, "zipfian exponent (0 is uniform; the default is the YCSB 0.99)")
		ops       = flag.Int("ops", 500, "commands to complete")
		batch     = flag.Int("batch", 8, "most commands per proposed batch")
		maxTicks  = flag.Int("maxticks", 0, "virtual-round budget for the whole run (0 = 40×ops)")
		seed      = flag.Uint64("seed", 1, "workload and environment seed")

		httpTo    = flag.String("http", "", "drive a live hoserve deployment at these comma-separated HTTP addresses instead of the simulator")
		keysPerCl = flag.Int("keysperclient", 4, "http mode: private keys per client (single-writer linearizability check)")
		opTimeout = flag.Duration("optimeout", 15*time.Second, "http mode: per-request deadline")
	)
	flag.Parse()

	if *httpTo != "" {
		return runHTTP(httpConfig{
			servers:    strings.Split(*httpTo, ","),
			clients:    *clients,
			ops:        *ops,
			writeRatio: *writes,
			keysPerCl:  *keysPerCl,
			opTimeout:  *opTimeout,
			seed:       *seed,
		})
	}

	if *shards < 1 {
		return fmt.Errorf("shards = %d, need ≥ 1", *shards)
	}
	if *batch < 1 {
		return fmt.Errorf("batch = %d, need ≥ 1", *batch)
	}
	var keyDist rsm.KeyDist
	switch *dist {
	case "uniform":
		keyDist = rsm.Uniform
	case "zipfian":
		keyDist = rsm.Zipfian
	default:
		return fmt.Errorf("unknown key distribution %q (want uniform or zipfian)", *dist)
	}
	budget := *maxTicks
	if budget == 0 {
		budget = 40 * *ops
	}
	envs := []string{*env}
	if *shardenvs != "" {
		envs = strings.Split(*shardenvs, ",")
		for i, e := range envs {
			envs[i] = strings.TrimSpace(e)
		}
	}
	envOf := func(g int) string { return envs[g%len(envs)] }
	// Validate every named environment up front — including entries the
	// group count would not reach, so a typo'd list always errors.
	for _, e := range envs {
		if _, err := buildProvider(e, *lossRate, *seed); err != nil {
			return err
		}
	}
	providers := func(g int) core.HOProvider {
		// Seed each group's environment from (seed, group) so group
		// environments are independent streams.
		p, _ := buildProvider(envOf(g), *lossRate, *seed+uint64(g)*1000003)
		return p
	}
	cluster, err := kvstore.NewCluster(*shards, live.CoreConfig[kvstore.Command]{
		N: *n, Algorithm: otr.Algorithm{}, Msg: otr.WireCodec{}, MaxBatch: *batch,
	}, providers)
	if err != nil {
		return err
	}

	start := time.Now()
	res, err := rsm.RunWorkload(cluster.Groups(), rsm.WorkloadConfig{
		Clients: *clients, Rate: *rate, WriteRatio: *writes,
		Keys: *keys, Dist: keyDist, ZipfS: *zipfS,
		Ops: *ops, MaxTicks: budget, Seed: *seed,
	}, kvstore.WorkloadCommand, kvstore.WorkloadRoute(*shards))
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	if !cluster.Converged() {
		return fmt.Errorf("replicas diverged — impossible if consensus safety holds")
	}

	fmt.Printf("config env=%s shards=%d shardenvs=%s n=%d clients=%d rate=%g writes=%g keys=%d dist=%s ops=%d batch=%d seed=%d\n",
		*env, *shards, *shardenvs, *n, *clients, *rate, *writes, *keys, keyDist, *ops, *batch, *seed)
	if *shards > 1 || *shardenvs != "" {
		for g, pg := range res.PerGroup {
			fmt.Printf("shard %d env=%s completed=%d slots=%d rounds=%d lat p50=%d p95=%d p99=%d\n",
				g, envOf(g), pg.Completed, pg.Slots, pg.Rounds, pg.LatencyP50, pg.LatencyP95, pg.LatencyP99)
		}
	}
	fmt.Printf("completed %d\n", res.Completed)
	fmt.Printf("slots %d\n", res.Slots)
	fmt.Printf("slots_per_cmd %.4f\n", res.SlotsPerCmd)
	fmt.Printf("cmds_per_round %.4f\n", res.CmdsPerTick)
	fmt.Printf("wall_rounds %d\n", res.Ticks)
	fmt.Printf("total_rounds %d\n", res.Rounds)
	fmt.Printf("divergent %d\n", res.Divergent)
	fmt.Printf("latency_rounds p50=%d p95=%d p99=%d\n", res.LatencyP50, res.LatencyP95, res.LatencyP99)
	fmt.Fprintf(os.Stderr, "hoload: %d commands over %d groups in %v (%.0f cmds/sec wall)\n",
		res.Completed, *shards, elapsed.Round(time.Millisecond), float64(res.Completed)/elapsed.Seconds())
	return nil
}

// buildProvider maps an environment name to a group's HO environment
// over virtual rounds — the same environments experiments E10 and E11
// tabulate, so hoload runs are directly comparable to those tables.
func buildProvider(env string, loss float64, seed uint64) (core.HOProvider, error) {
	switch env {
	case "good":
		return adversary.Full{}, nil
	case "loss":
		if loss < 0 || loss >= 1 {
			return nil, fmt.Errorf("loss rate %v outside [0, 1)", loss)
		}
		return &adversary.TransmissionLoss{Rate: loss, RNG: xrand.New(seed)}, nil
	case "crash":
		return adversary.RotatingCrash{Epoch: 20}, nil
	default:
		return nil, fmt.Errorf("unknown environment %q (want good, loss or crash)", env)
	}
}
