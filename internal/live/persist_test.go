package live

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"heardof/internal/core"
	"heardof/internal/lastvoting"
	"heardof/internal/otr"
	"heardof/internal/wal"
)

// snapshotCmds / restoreCmds give applyLog a trivial snapshot codec so
// the durability tests can exercise the full app-state path.
func (l *applyLog) snapshotState() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return []byte(strings.Join(l.cmds, "\x00"))
}

func (l *applyLog) restoreState(b []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(b) > 0 {
		l.cmds = strings.Split(string(b), "\x00")
	}
}

// TestReplicaRestartFromDisk is the end-to-end durability flow: a
// persisted replica commits load (crossing several snapshot
// boundaries), hard-stops without a graceful checkpoint, restarts from
// its data dir, and rejoins with log, applied commands, and session
// dedup intact — then keeps committing.
func TestReplicaRestartFromDisk(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	net, err := NewChanNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	reps := make([]*Replica[string], n)
	logs := make([]*applyLog, n)
	newRep := func(p core.ProcessID, persist Persister, rec *wal.State) *Replica[string] {
		lg := logs[p]
		rep, err := NewReplica(ReplicaConfig[string]{
			Self: p, N: n,
			Algorithm: lastvoting.Algorithm{},
			Msg:       lastvoting.WireCodec{},
			Batch:     strCodec{},
			Transport: net.Transport(p),
			Apply:     lg.hook,
			Persist:   persist, Recovered: rec,
			SnapshotState: lg.snapshotState,
			SnapshotEvery: 4, // cross several snapshot+truncate cycles
			RoundTimeout:  time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	store, st, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		logs[p] = &applyLog{}
		if p == 2 {
			reps[p] = newRep(core.ProcessID(p), store, st)
		} else {
			reps[p] = newRep(core.ProcessID(p), nil, nil)
		}
		reps[p].Start()
	}
	defer func() {
		for _, r := range reps {
			if r != nil {
				r.Stop()
			}
		}
	}()

	// Phase 1: load through every replica, including the persisted one.
	for i := 0; i < 12; i++ {
		p := i % n
		ch, _ := reps[p].SubmitNext(uint64(p+1), fmt.Sprintf("cmd-%d", i))
		waitApplied(t, ch, 10*time.Second, fmt.Sprintf("cmd-%d", i))
	}
	requireSameLogs(t, reps, logs)
	preLen, preHash := reps[2].LogHash()
	preCommitted := reps[2].Stats().Committed

	// Hard stop: no Checkpoint — recovery must come from snapshot+log
	// alone (everything externally visible was synced before it left).
	reps[2].Stop()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart from the same directory.
	store2, st2, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(st2.Log)) != preLen {
		t.Fatalf("recovered %d slots, stopped at %d", len(st2.Log), preLen)
	}
	logs[2] = &applyLog{}
	logs[2].restoreState(st2.AppState)
	reps[2] = newRep(2, store2, st2)
	reps[2].Start()
	// Stop before closing the store (the run goroutine syncs to it);
	// this runs before the stop-all defer above, which skips nil.
	defer func() {
		reps[2].Stop()
		reps[2] = nil
		store2.Close()
	}()

	if gotLen, gotHash := reps[2].LogHash(); gotLen != preLen || gotHash != preHash {
		t.Fatalf("restart log fingerprint (%d, %#x) != pre-crash (%d, %#x)",
			gotLen, gotHash, preLen, preHash)
	}
	if got := reps[2].Stats().Committed; got != preCommitted {
		t.Fatalf("restart committed %d != pre-crash %d", got, preCommitted)
	}
	if got := logs[2].snapshot(); len(got) != preCommitted {
		t.Fatalf("restart app state has %d commands, want %d", len(got), preCommitted)
	}

	// Session dedup survived: an already-applied (client, seq) resolves
	// as a duplicate, not a second apply.
	dupCh, err := reps[2].Submit(3, 1, "cmd-2-replayed")
	if err != nil {
		t.Fatal(err)
	}
	if res := waitApplied(t, dupCh, 10*time.Second, "dup probe"); !res.Dup {
		t.Fatal("pre-crash sequence number re-applied after restart")
	}

	// Phase 2: the restarted replica keeps committing with the group.
	for i := 12; i < 20; i++ {
		p := i % n
		ch, _ := reps[p].SubmitNext(uint64(p+1), fmt.Sprintf("cmd-%d", i))
		waitApplied(t, ch, 10*time.Second, fmt.Sprintf("cmd-%d", i))
	}
	requireSameLogs(t, reps, logs)
	for p, r := range reps {
		if d := r.Stats().Divergent; d != 0 {
			t.Fatalf("replica %d observed %d divergent decisions", p, d)
		}
	}
}

// TestRestartFromDiskAfterGC pins down what the durable log buys over
// the empty-state rejoin documented in TestTCPListenerRestartRejoins:
// once every replica applied a slot, its batch is GC'd everywhere, so
// an empty-state rejoiner could never refetch it — but a disk rejoiner
// does not need to: its own log already covers the pruned history.
func TestRestartFromDiskAfterGC(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	net, err := NewChanNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	reps := make([]*Replica[string], n)
	logs := make([]*applyLog, n)
	mk := func(p core.ProcessID, persist Persister, rec *wal.State) *Replica[string] {
		lg := logs[p]
		rep, err := NewReplica(ReplicaConfig[string]{
			Self: p, N: n,
			Algorithm: otr.Algorithm{},
			Msg:       otr.WireCodec{},
			Batch:     strCodec{},
			Transport: net.Transport(p),
			Apply:     lg.hook,
			Persist:   persist, Recovered: rec,
			SnapshotState: lg.snapshotState,
			RoundTimeout:  time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	store, st, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		logs[p] = &applyLog{}
		if p == 2 {
			reps[p] = mk(core.ProcessID(p), store, st)
		} else {
			reps[p] = mk(core.ProcessID(p), nil, nil)
		}
		reps[p].Start()
	}
	defer func() {
		for _, r := range reps {
			if r != nil {
				r.Stop()
			}
		}
	}()

	for i := 0; i < 8; i++ {
		ch, _ := reps[i%n].SubmitNext(uint64(i%n+1), fmt.Sprintf("v-%d", i))
		waitApplied(t, ch, 10*time.Second, "load")
	}
	requireSameLogs(t, reps, logs)

	// Wait for the GC horizon to pass the whole log on a survivor.
	deadline := time.Now().Add(10 * time.Second)
	for reps[0].Stats().BatchesHeld > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("batches never pruned: %d held", reps[0].Stats().BatchesHeld)
		}
		time.Sleep(2 * time.Millisecond)
	}

	preLen, preHash := reps[2].LogHash()
	reps[2].Stop()
	store.Close()

	store2, st2, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	logs[2] = &applyLog{}
	logs[2].restoreState(st2.AppState)
	reps[2] = mk(2, store2, st2)
	reps[2].Start()
	// Stop before closing the store (the run goroutine syncs to it);
	// this runs before the stop-all defer above, which skips nil.
	defer func() {
		reps[2].Stop()
		reps[2] = nil
		store2.Close()
	}()

	// No refetch needed: the log IS the history the group pruned.
	if gotLen, gotHash := reps[2].LogHash(); gotLen != preLen || gotHash != preHash {
		t.Fatalf("rejoin fingerprint (%d, %#x) != pre-crash (%d, %#x)", gotLen, gotHash, preLen, preHash)
	}
	ch, _ := reps[2].SubmitNext(9, "after-gc")
	waitApplied(t, ch, 10*time.Second, "post-rejoin submit")
	requireSameLogs(t, reps, logs)
}

// TestRecoverMatchesDiskRestore ties the model checker's crash-RECOVERY
// transition (ReplicaCore.Recover, a pure-state projection) to the
// production path (wal.Open + RestoreReplicaCore): driving one core
// with a real store and a sync barrier after every step, the two
// recovery routes agree on all protocol state — the disk route may
// only retain MORE batch contents (log records outlive in-memory GC
// until the next snapshot), which is pure availability upside.
func TestRecoverMatchesDiskRestore(t *testing.T) {
	dir := t.TempDir()
	store, st0, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(st0.Log) != 0 {
		t.Fatal("fresh dir not empty")
	}
	cfg := CoreConfig[string]{
		Self: 0, N: 1,
		Algorithm: lastvoting.Algorithm{},
		Msg:       lastvoting.WireCodec{},
		Batch:     strCodec{},
		Persist:   store,
	}
	c, err := NewReplicaCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// n=1: every submit decides and applies within its own step.
	for i := 0; i < 5; i++ {
		c.Step(Event[string]{Kind: EvSubmit, Client: 1, Seq: uint64(i + 1), Cmd: fmt.Sprintf("c%d", i)})
		if err := store.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := c.LogFingerprint(); n != 5 {
		t.Fatalf("applied %d slots, want 5", n)
	}

	mem := c.Recover()
	store.Close()
	store2, st, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	cfg.Persist = nil
	disk, err := RestoreReplicaCore(cfg, st)
	if err != nil {
		t.Fatal(err)
	}

	memLen, memHash := mem.LogFingerprint()
	diskLen, diskHash := disk.LogFingerprint()
	if memLen != diskLen || memHash != diskHash {
		t.Fatalf("log fingerprints differ: mem (%d, %#x) vs disk (%d, %#x)",
			memLen, memHash, diskLen, diskHash)
	}
	if a, b := mem.NextSeq(1), disk.NextSeq(1); a != b {
		t.Fatalf("next seq differ: %d vs %d", a, b)
	}
	if a, b := mem.BatchesCreated(), disk.BatchesCreated(); a != b {
		t.Fatalf("batch counters differ: %d vs %d", a, b)
	}
	if a, b := mem.Counters().Committed, disk.Counters().Committed; a != b {
		t.Fatalf("committed differ: %d vs %d", a, b)
	}
	for slot := uint64(1); slot <= memLen; slot++ {
		bid, _ := mem.LogAt(slot)
		// Disk retains at least what memory recovery retains.
		if mem.HoldsBatch(bid) && !disk.HoldsBatch(bid) {
			t.Fatalf("disk restore lost batch %#x of slot %d", bid, slot)
		}
	}
}

// TestRestoredVoteInstalled checks the locked-vote mechanics in
// isolation: a recovered core holding a persisted instance state
// re-installs it — estimate included — when consensus for the slot
// restarts, and MutForgetVote (the seeded recovery bug) drops it.
func TestRestoredVoteInstalled(t *testing.T) {
	alg := lastvoting.Algorithm{}
	locked := alg.NewInstance(1, 3, core.Value(4242))
	vote := locked.(interface{ AppendState(dst []byte) []byte }).AppendState(nil)

	st := &wal.State{
		Log:     []int64{7},
		HWM:     map[uint64]uint64{1: 1},
		Batches: map[int64][]byte{},
		Decided: map[uint64]int64{},
		// The vote belongs to the next slot (2): mid-consensus crash.
		VoteSlot: 2,
		Vote:     vote,
	}
	cfg := CoreConfig[string]{
		Self: 1, N: 3,
		Algorithm: alg,
		Msg:       lastvoting.WireCodec{},
		Batch:     strCodec{},
	}
	c, err := RestoreReplicaCore(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.PersistState(); got.VoteSlot != 2 || !bytes.Equal(got.Vote, vote) {
		t.Fatalf("restored core does not carry the vote: %+v", got)
	}
	// Any step restarts the slot (the restore poked the core); the new
	// instance must carry the locked estimate.
	c.Step(Event[string]{Kind: EvNudge})
	if slot, _, active := c.RoundState(); !active || slot != 2 {
		t.Fatalf("consensus did not restart for slot 2 (active=%v slot=%d)", active, slot)
	}
	after := c.PersistState()
	if after.VoteSlot != 2 {
		t.Fatalf("running instance not persisted: %+v", after)
	}
	if x, n := binary.Varint(after.Vote); n <= 0 || x != 4242 {
		t.Fatalf("restored instance lost the locked estimate: x=%d", x)
	}

	// The mutant forgets: same state, vote gone.
	cfg.Mutation = MutForgetVote
	m, err := RestoreReplicaCore(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.PersistState(); got.VoteSlot != 0 || len(got.Vote) != 0 {
		t.Fatalf("MutForgetVote kept the vote: %+v", got)
	}
}

// TestStaleVoteDropped: a persisted vote for an already-applied slot is
// ignored on restore (the decision superseded it).
func TestStaleVoteDropped(t *testing.T) {
	alg := otr.Algorithm{}
	vote := alg.NewInstance(0, 3, core.Value(9)).(interface {
		AppendState(dst []byte) []byte
	}).AppendState(nil)
	st := &wal.State{
		Log:      []int64{9},
		HWM:      map[uint64]uint64{},
		Batches:  map[int64][]byte{},
		Decided:  map[uint64]int64{},
		VoteSlot: 1, // slot 1 already applied
		Vote:     vote,
	}
	c, err := RestoreReplicaCore(CoreConfig[string]{
		Self: 0, N: 3,
		Algorithm: alg,
		Msg:       otr.WireCodec{},
		Batch:     strCodec{},
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.PersistState(); got.VoteSlot != 0 {
		t.Fatalf("stale vote survived restore: %+v", got)
	}
}
