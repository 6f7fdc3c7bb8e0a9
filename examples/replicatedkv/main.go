// Replicated KV store: the application the paper's introduction motivates
// ("consensus is related to replication and appears when implementing
// atomic broadcast...").
//
// Five replicas replicate a key-value store through the deployed replica
// core (live.ReplicaCore), stepped in virtual rounds by internal/rsm:
// each consensus slot decides a BATCH of commands, and every submission
// rides a client session with exactly-once dedup. The network suffers
// dynamic transient faults — every message may be lost — yet all
// replicas apply the same commands in the same order and converge. The
// stats show what batching buys: fewer consensus slots than commands.
//
// Run with: go run ./examples/replicatedkv
package main

import (
	"fmt"
	"log"

	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/kvstore"
	"heardof/internal/live"
	"heardof/internal/otr"
	"heardof/internal/xrand"
)

func main() {
	const n = 5

	// Every virtual round loses each message independently with
	// probability 25% (the DT fault class — the most general benign class
	// of §2.2), the loss environment of the E10/E11 tables and
	// cmd/hoload.
	env := func(int) core.HOProvider {
		return &adversary.TransmissionLoss{Rate: 0.25, RNG: xrand.New(99)}
	}
	cluster, err := kvstore.NewCluster(1, live.CoreConfig[kvstore.Command]{
		N: n, Algorithm: otr.Algorithm{}, Msg: otr.WireCodec{}, MaxBatch: 4,
	}, env)
	if err != nil {
		log.Fatal(err)
	}

	// Clients contact different replicas; each contact runs its own
	// client session, so every Submit is a fresh command.
	workload := []struct {
		contact int
		cmd     kvstore.Command
	}{
		{0, kvstore.Command{Op: kvstore.OpPut, Key: "alice", Value: "100"}},
		{1, kvstore.Command{Op: kvstore.OpPut, Key: "bob", Value: "250"}},
		{2, kvstore.Command{Op: kvstore.OpPut, Key: "carol", Value: "75"}},
		{3, kvstore.Command{Op: kvstore.OpPut, Key: "alice", Value: "120"}},
		{4, kvstore.Command{Op: kvstore.OpDelete, Key: "bob"}},
		{0, kvstore.Command{Op: kvstore.OpPut, Key: "dave", Value: "300"}},
		{1, kvstore.Command{Op: kvstore.OpGet, Key: "alice"}}, // linearizable read through the log
	}
	for _, w := range workload {
		if err := cluster.Submit(w.contact, w.cmd); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("client → replica %d: %v\n", w.contact, w.cmd)
	}

	fmt.Println("\nreplicating under 25% message loss (batches of up to 4)...")
	applied, err := cluster.Drain(500)
	if err != nil {
		log.Fatal(err)
	}
	st := cluster.Stats()
	fmt.Printf("%d commands over %d slots (%.2f slots/cmd, %d virtual rounds, %d consensus rounds over all replicas)\n\n",
		applied, st.Slots, float64(st.Slots)/float64(st.Committed), st.Ticks, st.Rounds)

	if !cluster.Converged() {
		log.Fatal("replicas diverged — impossible if consensus safety holds")
	}
	fmt.Println("all replicas converged; replica 0's view:")
	for _, key := range []string{"alice", "bob", "carol", "dave"} {
		if v, ok := cluster.Get(key); ok {
			fmt.Printf("  %s = %s\n", key, v)
		} else {
			fmt.Printf("  %s   (absent)\n", key)
		}
	}
}
