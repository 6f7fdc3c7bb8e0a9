package livekv

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"heardof/internal/core"
	"heardof/internal/live"
)

// startCluster builds and starts an in-process cluster, cleaning up with
// the test.
func startCluster(t *testing.T, cfg Config, seed uint64) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Close)
	return c
}

func TestClusterPutGetThroughLog(t *testing.T) {
	c := startCluster(t, Config{Replicas: 3, Groups: 2, RoundTimeout: time.Millisecond}, 1)
	ctx := context.Background()

	if err := c.Node(0).Put(ctx, "alice", "100"); err != nil {
		t.Fatal(err)
	}
	// A read through ANY node is linearizable: the write committed
	// before Put returned, so every later read must observe it.
	for i := 0; i < c.N(); i++ {
		v, ok, err := c.Node(i).Get(ctx, "alice")
		if err != nil {
			t.Fatalf("node %d read: %v", i, err)
		}
		if !ok || v != "100" {
			t.Fatalf("node %d read %q/%v, want 100", i, v, ok)
		}
	}
	if err := c.Node(1).Delete(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Node(2).Get(ctx, "alice"); err != nil || ok {
		t.Fatalf("deleted key still visible (ok=%v err=%v)", ok, err)
	}
	if err := c.ConvergedWithin(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestClusterConcurrentMixedLoadUnderLoss(t *testing.T) {
	c := startCluster(t, Config{Replicas: 3, Groups: 2, RoundTimeout: time.Millisecond}, 2)
	for i := 0; i < c.N(); i++ {
		c.Faults(i).SetLoss(0.10)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const clients, opsPerClient = 6, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			nd := c.Node(cl % c.N())
			key := fmt.Sprintf("client-%d", cl)
			for i := 1; i <= opsPerClient; i++ {
				want := fmt.Sprintf("v%d", i)
				if err := nd.Put(ctx, key, want); err != nil {
					errs <- fmt.Errorf("client %d put %d: %w", cl, i, err)
					return
				}
				if i%3 == 0 {
					// Single-writer key: a linearizable read must see the
					// write that completed before it.
					v, ok, err := nd.Get(ctx, key)
					if err != nil {
						errs <- fmt.Errorf("client %d get: %w", cl, err)
						return
					}
					if !ok || v != want {
						errs <- fmt.Errorf("client %d: stale read %q/%v, want %q — linearizability violated", cl, v, ok, want)
						return
					}
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < c.N(); i++ {
		c.Faults(i).SetLoss(0)
	}
	if err := c.ConvergedWithin(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestClusterPauseRejoin is the fault-injection coverage the live layer
// exists for: one node is paused mid-run (it neither sends nor hears —
// the live analogue of a crash with running timers), the survivors keep
// committing, and after the pause the node rejoins through the sync path.
// Asserted: no split decisions anywhere, and catch-up bounded by the
// convergence window.
func TestClusterPauseRejoin(t *testing.T) {
	c := startCluster(t, Config{Replicas: 3, Groups: 1, RoundTimeout: time.Millisecond}, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	put := func(i int, node int) {
		t.Helper()
		if err := c.Node(node).Put(ctx, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("put %d via node %d: %v", i, node, err)
		}
	}
	for i := 0; i < 5; i++ {
		put(i, i%3)
	}

	// Pause node 2 mid-round: rounds are ~1ms, so the pause lands inside
	// an active slot with overwhelming probability.
	c.Faults(2).SetPaused(true)
	for i := 5; i < 15; i++ {
		put(i, i%2) // survivors only: a majority of 2 of 3 keeps deciding
	}
	before := c.Node(2).Status()[0]

	c.Faults(2).SetPaused(false)
	for i := 15; i < 20; i++ {
		put(i, i%3)
	}
	if err := c.ConvergedWithin(15 * time.Second); err != nil {
		t.Fatalf("paused node did not catch up: %v", err)
	}

	after := c.Node(2).Status()[0]
	if after.LogLen <= before.LogLen {
		t.Fatalf("rejoined node never advanced: %d → %d applied slots", before.LogLen, after.LogLen)
	}
	if after.Stats.SyncDecisions == 0 {
		t.Error("rejoined node reports zero sync decisions — catch-up did not use the sync path")
	}
	for i := 0; i < c.N(); i++ {
		if d := c.Node(i).Status()[0].Stats.Divergent; d != 0 {
			t.Fatalf("node %d observed %d divergent decisions — split decision", i, d)
		}
	}
	// Every committed write must be readable after the rejoin.
	for i := 0; i < 20; i++ {
		v, ok, err := c.Node(2).Get(ctx, fmt.Sprintf("k%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%02d = %q/%v after rejoin, want v%d", i, v, ok, i)
		}
	}
}

func TestNodeRejectsBadConfig(t *testing.T) {
	net, err := live.NewChanNetwork(3)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if _, err := NewNode(Config{Replicas: 0, Groups: 1}, 0, net.Transport(0)); err == nil {
		t.Error("zero replicas accepted")
	}
	if _, err := NewNode(Config{Replicas: 3, Groups: 0}, 0, net.Transport(0)); err == nil {
		t.Error("zero groups accepted")
	}
	if _, err := NewNode(Config{Replicas: 3, Groups: 1}, core.ProcessID(5), net.Transport(0)); err == nil {
		t.Error("out-of-range self accepted")
	}
	if _, err := NewCluster(Config{Replicas: 2, Groups: -1}, 1); err == nil {
		t.Error("negative groups accepted")
	}
}
