package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/lastvoting"
	"heardof/internal/live"
	"heardof/internal/otr"
	"heardof/internal/rsm"
	"heardof/internal/xrand"
)

func full(int) core.HOProvider { return adversary.Full{} }

func otrConfig(n, maxBatch int) live.CoreConfig[Command] {
	return live.CoreConfig[Command]{N: n, Algorithm: otr.Algorithm{}, Msg: otr.WireCodec{}, MaxBatch: maxBatch}
}

func newCluster(t *testing.T, groups, n int, env func(int) core.HOProvider) *Cluster {
	t.Helper()
	c, err := NewCluster(groups, otrConfig(n, 0), env)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustSubmit(t *testing.T, c *Cluster, contact int, cmd Command) {
	t.Helper()
	if err := c.Submit(contact, cmd); err != nil {
		t.Fatal(err)
	}
}

func TestStateMachineBasics(t *testing.T) {
	sm := NewStateMachine()
	sm.Apply(Command{Op: OpPut, Key: "a", Value: "1"})
	sm.Apply(Command{Op: OpPut, Key: "b", Value: "2"})
	if v, ok := sm.Get("a"); !ok || v != "1" {
		t.Error("get after put failed")
	}
	sm.Apply(Command{Op: OpDelete, Key: "a"})
	if _, ok := sm.Get("a"); ok {
		t.Error("get after delete succeeded")
	}
	if sm.Len() != 3 {
		t.Errorf("log length = %d, want 3", sm.Len())
	}
	if sm.Fingerprint() != "b=2;" {
		t.Errorf("fingerprint = %q", sm.Fingerprint())
	}
}

func TestCommandString(t *testing.T) {
	if (Command{Op: OpPut, Key: "k", Value: "v"}).String() != "put k=v" {
		t.Error("put string wrong")
	}
	if (Command{Op: OpDelete, Key: "k"}).String() != "del k" {
		t.Error("del string wrong")
	}
}

func TestReplicationFaultFree(t *testing.T) {
	c := newCluster(t, 1, 4, full)
	mustSubmit(t, c, 0, Command{Op: OpPut, Key: "x", Value: "1"})
	mustSubmit(t, c, 1, Command{Op: OpPut, Key: "y", Value: "2"})
	mustSubmit(t, c, 2, Command{Op: OpDelete, Key: "x"})
	applied, err := c.Drain(50)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 3 {
		t.Errorf("applied %d commands, want 3", applied)
	}
	if !c.Converged() {
		t.Fatal("replicas diverged")
	}
	if v, _ := c.State(0, 0).Get("y"); v != "2" {
		t.Error("y missing")
	}
}

// TestSubmitInvalidContact: a bad contact id is an error, not a panic.
func TestSubmitInvalidContact(t *testing.T) {
	c := newCluster(t, 1, 3, full)
	for _, contact := range []int{-1, 3, 100} {
		if err := c.Submit(contact, Command{Op: OpPut, Key: "k", Value: "v"}); err == nil {
			t.Errorf("contact %d accepted", contact)
		}
	}
	if c.PendingTotal() != 0 {
		t.Errorf("rejected submissions left %d pending commands", c.PendingTotal())
	}
	// Valid contacts still work after rejections.
	mustSubmit(t, c, 2, Command{Op: OpPut, Key: "k", Value: "v"})
	if _, err := c.Drain(20); err != nil {
		t.Fatal(err)
	}
}

func TestReplicationUnderTransmissionLoss(t *testing.T) {
	// DT faults between replicas: rounds ride out 20% loss (more rounds,
	// same result). All replicas still converge.
	c := newCluster(t, 1, 5, func(int) core.HOProvider {
		return &adversary.TransmissionLoss{Rate: 0.2, RNG: xrand.New(42)}
	})
	for i := 0; i < 12; i++ {
		key := string(rune('a' + i%4))
		mustSubmit(t, c, i%5, Command{Op: OpPut, Key: key, Value: key})
	}
	if _, err := c.Drain(500); err != nil {
		t.Fatal(err)
	}
	if !c.Converged() {
		t.Fatal("replicas diverged under loss")
	}
}

func TestBatchingAmortizesSlots(t *testing.T) {
	// M commands at one contact drain in ⌈M/MaxBatch⌉ slots (+1 slack),
	// not M: each slot decides a whole batch.
	c, err := NewCluster(1, otrConfig(4, 16), full)
	if err != nil {
		t.Fatal(err)
	}
	const cmds = 150
	for i := 0; i < cmds; i++ {
		mustSubmit(t, c, 0, Command{Op: OpPut, Key: "k", Value: "v"})
	}
	applied, err := c.Drain(cmds)
	if err != nil {
		t.Fatal(err)
	}
	if applied != cmds {
		t.Fatalf("applied %d of %d", applied, cmds)
	}
	if bound := (cmds+15)/16 + 1; c.Stats().Slots > uint64(bound) {
		t.Errorf("used %d slots for %d commands, want ≤ %d", c.Stats().Slots, cmds, bound)
	}
}

// TestNoOpSlots: an idle cluster spends no consensus slots — the replica
// core starts a slot only when there is work.
func TestNoOpSlots(t *testing.T) {
	c := newCluster(t, 1, 3, full)
	if _, err := c.Drain(10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Groups()[0].Tick()
	}
	if st := c.Stats(); st.Slots != 0 || st.Rounds != 0 {
		t.Errorf("idle cluster decided %d slots in %d rounds, want none", st.Slots, st.Rounds)
	}
}

func TestUndecidedSlotReportsError(t *testing.T) {
	c := newCluster(t, 1, 3, func(int) core.HOProvider { return adversary.Silence{} })
	mustSubmit(t, c, 0, Command{Op: OpPut, Key: "k", Value: "v"})
	if _, err := c.Drain(20); !errors.Is(err, rsm.ErrTickBudget) {
		t.Errorf("error = %v, want ErrTickBudget", err)
	}
	if st := c.Stats(); st.Slots != 0 {
		t.Errorf("decided %d slots in total silence", st.Slots)
	}
}

// TestDrainBudgetKeepsSentinel: a drain that runs out of ticks with
// commands pending satisfies errors.Is(err, rsm.ErrTickBudget).
func TestDrainBudgetKeepsSentinel(t *testing.T) {
	c, err := NewCluster(1, otrConfig(3, 1), full)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustSubmit(t, c, 0, Command{Op: OpPut, Key: "k", Value: "v"})
	}
	applied, err := c.Drain(2)
	if !errors.Is(err, rsm.ErrTickBudget) {
		t.Errorf("error = %v, want ErrTickBudget", err)
	}
	if applied >= 5 || c.PendingTotal() == 0 {
		t.Errorf("applied %d pending %d, want a partial drain", applied, c.PendingTotal())
	}
}

func TestValidation(t *testing.T) {
	for _, n := range []int{0, -1} {
		if _, err := NewCluster(1, otrConfig(n, 0), full); err == nil {
			t.Errorf("expected error for n=%d", n)
		}
	}
	if _, err := NewCluster(1, live.CoreConfig[Command]{N: 3, Msg: otr.WireCodec{}}, full); err == nil {
		t.Error("expected error for nil algorithm")
	}
	if _, err := NewCluster(1, otrConfig(3, 0), nil); err == nil {
		t.Error("expected error for nil environment")
	}
	if _, err := NewCluster(0, otrConfig(3, 0), full); err == nil {
		t.Error("expected error for 0 groups")
	}
}

func TestConvergencePropertyManyWorkloads(t *testing.T) {
	// Property-style: random workloads under random loss always converge.
	for seed := uint64(0); seed < 30; seed++ {
		rng := xrand.New(seed)
		c := newCluster(t, 1, 4, func(int) core.HOProvider {
			return &adversary.TransmissionLoss{Rate: 0.15, RNG: rng.Fork()}
		})
		ops := 4 + rng.Intn(10)
		for i := 0; i < ops; i++ {
			key := string(rune('a' + rng.Intn(5)))
			if rng.Bool(0.25) {
				mustSubmit(t, c, rng.Intn(4), Command{Op: OpDelete, Key: key})
			} else {
				mustSubmit(t, c, rng.Intn(4), Command{Op: OpPut, Key: key, Value: key + key})
			}
		}
		if _, err := c.Drain(1000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !c.Converged() {
			t.Fatalf("seed %d: replicas diverged", seed)
		}
	}
}

func TestLogsIdenticalAcrossReplicas(t *testing.T) {
	c := newCluster(t, 1, 3, full)
	mustSubmit(t, c, 0, Command{Op: OpPut, Key: "a", Value: "1"})
	mustSubmit(t, c, 1, Command{Op: OpPut, Key: "a", Value: "2"})
	if _, err := c.Drain(20); err != nil {
		t.Fatal(err)
	}
	// Whatever the interleaving, all replicas decided the same batches in
	// the same order and applied the same number of commands.
	g := c.Groups()[0]
	l0 := fmt.Sprint(g.Core(0).DecisionLogCopy())
	for r := 1; r < 3; r++ {
		if lr := fmt.Sprint(g.Core(r).DecisionLogCopy()); lr != l0 {
			t.Fatalf("decision logs differ: %s vs %s", lr, l0)
		}
		if c.State(0, r).Len() != 2 {
			t.Errorf("replica %d applied %d commands, want 2", r, c.State(0, r).Len())
		}
	}
}

// TestOneContactBatchAppliesInSubmissionOrder: the first submission
// starts a slot at once; commands that queue at the contact meanwhile go
// out together as the next batch, decided in one slot and applied in
// submission order.
func TestOneContactBatchAppliesInSubmissionOrder(t *testing.T) {
	c := newCluster(t, 1, 3, full)
	for i := 1; i <= 4; i++ {
		mustSubmit(t, c, 0, Command{Op: OpPut, Key: "a", Value: fmt.Sprint(i)})
	}
	if _, err := c.Drain(20); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Slots != 2 {
		t.Errorf("slots = %d, want 2 (one command, then a batch of three)", c.Stats().Slots)
	}
	if v, _ := c.Get("a"); v != "4" {
		t.Errorf("a = %q, want the last put", v)
	}
}

func TestGroupOfMatchesLiveRouting(t *testing.T) {
	// Golden values: live deployments route by this function, so a
	// change would move keys between the groups of existing data dirs.
	for _, tc := range []struct {
		key      string
		of4, of7 int
	}{
		{"", 0, 4}, {"a", 3, 1}, {"k000", 3, 1}, {"k001", 3, 2},
		{"k047", 2, 3}, {"alice", 1, 0}, {"user:42", 1, 0},
	} {
		if g := GroupOf(tc.key, 4); g != tc.of4 {
			t.Errorf("GroupOf(%q, 4) = %d, want %d", tc.key, g, tc.of4)
		}
		if g := GroupOf(tc.key, 7); g != tc.of7 {
			t.Errorf("GroupOf(%q, 7) = %d, want %d", tc.key, g, tc.of7)
		}
	}
}

func TestGroupOfRoutingProperty(t *testing.T) {
	// Every key routes to exactly one in-range group, every group gets
	// keys, and one group never owns the whole keyspace.
	for _, groups := range []int{1, 2, 3, 8} {
		hits := make([]int, groups)
		for k := 0; k < 400; k++ {
			g := GroupOf(fmt.Sprintf("k%03d", k), groups)
			if g < 0 || g >= groups {
				t.Fatalf("key %d routed to %d of %d", k, g, groups)
			}
			hits[g]++
		}
		for g, h := range hits {
			if h == 0 || (groups > 1 && h == 400) {
				t.Errorf("groups=%d: group %d owns %d of 400 keys", groups, g, h)
			}
		}
	}
}

func TestShardedClusterBasicOps(t *testing.T) {
	c, err := NewCluster(4, otrConfig(3, 8), full)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 40
	for i := 0; i < keys; i++ {
		mustSubmit(t, c, i%3, Command{Op: OpPut, Key: fmt.Sprintf("k%03d", i), Value: fmt.Sprintf("v%d", i)})
	}
	n, err := c.Drain(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != keys {
		t.Errorf("drained %d of %d", n, keys)
	}
	if !c.Converged() {
		t.Error("a group diverged")
	}
	// Every key is readable from its owning group, and ONLY stored there.
	hit := make([]bool, 4)
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("k%03d", i)
		if v, ok := c.Get(key); !ok || v != fmt.Sprintf("v%d", i) {
			t.Errorf("Get(%s) = (%q, %v)", key, v, ok)
		}
		owner := GroupOf(key, 4)
		hit[owner] = true
		for g := 0; g < 4; g++ {
			if _, has := c.State(g, 0).Get(key); has != (g == owner) {
				t.Errorf("key %s present on group %d, owner is %d", key, g, owner)
			}
		}
	}
	for g, h := range hit {
		if !h {
			t.Errorf("no key routed to group %d of 4 (40 keys)", g)
		}
	}
	if st := c.Stats(); st.Committed != keys {
		t.Errorf("aggregate committed %d, want %d", st.Committed, keys)
	}
}

func TestShardedClusterHeterogeneousEnvs(t *testing.T) {
	// Group 1 under 30% loss, group 2 under rotating crashes, group 0
	// fault-free — all converge.
	c, err := NewCluster(3, otrConfig(5, 4), func(g int) core.HOProvider {
		switch g {
		case 1:
			return &adversary.TransmissionLoss{Rate: 0.3, RNG: xrand.New(9)}
		case 2:
			return adversary.RotatingCrash{Epoch: 20}
		}
		return adversary.Full{}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		mustSubmit(t, c, i%5, Command{Op: OpPut, Key: fmt.Sprintf("key-%d", i), Value: "v"})
	}
	if n, derr := c.Drain(2000); derr != nil || n != 48 {
		t.Fatalf("drain: n=%d err=%v", n, derr)
	}
	if !c.Converged() {
		t.Error("replicas diverged under a heterogeneous environment")
	}
}

func TestShardedClusterWorkloadHarness(t *testing.T) {
	// The closed loop over the partitioned store: mixed per-group
	// environments, zipfian keys, per-group convergence afterwards.
	c, err := NewCluster(4, otrConfig(5, 8), func(g int) core.HOProvider {
		switch g % 3 {
		case 1:
			return &adversary.TransmissionLoss{Rate: 0.2, RNG: xrand.New(100 + uint64(g))}
		case 2:
			return adversary.RotatingCrash{Epoch: 20}
		}
		return adversary.Full{}
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rsm.RunWorkload(c.Groups(), rsm.WorkloadConfig{
		Clients: 12, Rate: 0.8, WriteRatio: 0.75, Keys: 64,
		Dist: rsm.Zipfian, ZipfS: 0.99, Ops: 150, MaxTicks: 5000, Seed: 6,
	}, WorkloadCommand, WorkloadRoute(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 150 || res.Divergent != 0 {
		t.Errorf("completed %d of 150, divergent %d", res.Completed, res.Divergent)
	}
	if !c.Converged() {
		t.Error("a group diverged after the workload")
	}
	total := 0
	for g := 0; g < 4; g++ {
		total += c.State(g, 0).Len()
	}
	if total != 150 {
		t.Errorf("state machines applied %d commands in total, want 150", total)
	}
	// The workload routes every op the way the store routes its string
	// key, or Get would read a group that never applied the put.
	for k := 0; k < 64; k++ {
		key := fmt.Sprintf("k%03d", k)
		owner := GroupOf(key, 4)
		for g := 0; g < 4; g++ {
			if _, has := c.State(g, 0).Get(key); has && g != owner {
				t.Errorf("key %s applied on group %d, but GroupOf says %d", key, g, owner)
			}
		}
	}
}

func TestShardedClusterValidation(t *testing.T) {
	// A lastvoting cluster needs lastvoting's codec; an undecidable
	// environment exhausts the drain budget on every group.
	c, err := NewCluster(2, live.CoreConfig[Command]{N: 3, Algorithm: lastvoting.Algorithm{}, Msg: lastvoting.WireCodec{}},
		func(int) core.HOProvider { return adversary.Silence{} })
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, c, 0, Command{Op: OpPut, Key: "k", Value: "v"})
	if _, err := c.Drain(5); !errors.Is(err, rsm.ErrTickBudget) {
		t.Errorf("drain error = %v, want ErrTickBudget", err)
	}
}

func TestStateMachineSnapshotRoundTrip(t *testing.T) {
	sm := NewStateMachine()
	sm.Apply(Command{Op: OpPut, Key: "a", Value: "1"})
	sm.Apply(Command{Op: OpPut, Key: "b", Value: "2"})
	sm.Apply(Command{Op: OpDelete, Key: "a"})
	sm.Apply(Command{Op: OpGet, Key: "b"})

	snap := sm.AppendSnapshot(nil)
	rec := NewStateMachine()
	if err := rec.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if rec.Fingerprint() != sm.Fingerprint() {
		t.Fatalf("fingerprint %q != %q", rec.Fingerprint(), sm.Fingerprint())
	}
	if rec.Len() != sm.Len() {
		t.Fatalf("applied count %d != %d", rec.Len(), sm.Len())
	}
	// Applying on top of the restored machine keeps counting from the
	// snapshot's total.
	rec.Apply(Command{Op: OpPut, Key: "c", Value: "3"})
	if rec.Len() != sm.Len()+1 {
		t.Fatalf("post-restore Len = %d, want %d", rec.Len(), sm.Len()+1)
	}

	if err := NewStateMachine().RestoreSnapshot(nil); err != nil {
		t.Fatalf("empty snapshot rejected: %v", err)
	}
	for _, b := range [][]byte{{0x80}, snap[:len(snap)-1], append(append([]byte{}, snap...), 0)} {
		if err := NewStateMachine().RestoreSnapshot(b); err == nil {
			t.Errorf("RestoreSnapshot(%x) accepted corrupt snapshot", b)
		}
	}
}

// A hostile or torn snapshot header must not buy an allocation: a key
// count far beyond the remaining payload has to be rejected BEFORE the
// map is sized from it (allocate-after-validate; found by holint's
// allocbound analyzer, the PR-6 fuzz bug class on the snapshot path).
func TestRestoreSnapshotRejectsOversizedKeyCount(t *testing.T) {
	hostile := binary.AppendUvarint(nil, 7)        // plausible applied count
	hostile = binary.AppendUvarint(hostile, 1<<40) // key count with no bytes behind it
	if err := NewStateMachine().RestoreSnapshot(hostile); err == nil {
		t.Fatal("RestoreSnapshot accepted a 2^40 key count with an empty payload")
	}
	// The bound must not reject legitimate snapshots whose entries are
	// minimal (empty keys and values: two bytes per entry).
	sm := NewStateMachine()
	sm.Apply(Command{Op: OpPut, Key: "", Value: ""})
	rec := NewStateMachine()
	if err := rec.RestoreSnapshot(sm.AppendSnapshot(nil)); err != nil {
		t.Fatalf("minimal-entry snapshot rejected: %v", err)
	}
	if rec.Fingerprint() != sm.Fingerprint() {
		t.Fatalf("fingerprint %q != %q", rec.Fingerprint(), sm.Fingerprint())
	}
}
