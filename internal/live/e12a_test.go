package live

import (
	"fmt"
	"testing"
	"time"

	"heardof/internal/core"
	"heardof/internal/lastvoting"
	"heardof/internal/wal"
)

// TestE12ADiskVsEmptyRejoin is the measured experiment behind
// EXPERIMENTS.md E12a: the same crash is recovered twice — once from
// the replica's write-ahead state, once from nothing — and the two
// rejoins are compared on decisions refetched and recovery outcome.
//
// Shape (both arms): replica 2 participates in a first load segment,
// the group prunes those batches (everyone applied them), replica 2
// crashes, the survivors commit a second segment, replica 2 rejoins.
// The disk arm recovers the pruned first segment from its own log and
// only refetches the downtime backlog; the empty arm needs the whole
// history from the survivors, but the first segment's batches no
// longer exist anywhere — it can learn those decisions yet never apply
// them, so it stalls at commit index 0. Recovery cost is proportional
// to downtime with a log, and unbounded (here: impossible) without
// one.
func TestE12ADiskVsEmptyRejoin(t *testing.T) {
	const (
		n        = 3
		segment  = 40 // commands per load segment
		stallObs = 1200 * time.Millisecond
	)

	// run builds the common scenario and hands the rejoin to the arm.
	run := func(t *testing.T, rejoin func(t *testing.T, dir string, net *ChanNetwork, targetLen uint64, targetHash uint64)) {
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
				Algorithm: lastvoting.Algorithm{},
				Msg:       lastvoting.WireCodec{},
				Batch:     strCodec{},
				Transport: net.Transport(p),
				Apply:     lg.hook,
				Persist:   persist, Recovered: rec,
				SnapshotState: lg.snapshotState,
				SnapshotEvery: 16,
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

		// Segment 1: everyone participates.
		for i := 0; i < segment; i++ {
			ch, _ := reps[i%n].SubmitNext(uint64(i%n+1), fmt.Sprintf("s1-%d", i))
			waitApplied(t, ch, 10*time.Second, "segment 1")
		}
		requireSameLogs(t, reps, logs)

		// Wait for the GC horizon to pass segment 1 on the survivors:
		// every replica applied it, so its batches get pruned everywhere —
		// the empty arm must not be able to refetch them.
		deadline := time.Now().Add(10 * time.Second)
		for reps[0].Stats().BatchesHeld > 0 || reps[1].Stats().BatchesHeld > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("segment-1 batches never pruned: %d/%d held",
					reps[0].Stats().BatchesHeld, reps[1].Stats().BatchesHeld)
			}
			time.Sleep(2 * time.Millisecond)
		}

		// Crash replica 2 (hard stop, no checkpoint).
		reps[2].Stop()
		reps[2] = nil
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}

		// Segment 2: the survivors keep committing — the downtime backlog.
		for i := 0; i < segment; i++ {
			ch, _ := reps[i%2].SubmitNext(uint64(i%2+1), fmt.Sprintf("s2-%d", i))
			waitApplied(t, ch, 10*time.Second, "segment 2")
		}
		deadline = time.Now().Add(10 * time.Second)
		for {
			l0, h0 := reps[0].LogHash()
			l1, h1 := reps[1].LogHash()
			if l0 == l1 && h0 == h1 {
				rejoin(t, dir, net, l0, h0)
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("survivors never agreed: (%d, %#x) vs (%d, %#x)", l0, h0, l1, h1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	t.Run("disk", func(t *testing.T) {
		run(t, func(t *testing.T, dir string, net *ChanNetwork, targetLen, targetHash uint64) {
			openStart := time.Now()
			store, st, err := wal.Open(dir, wal.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			lg := &applyLog{}
			lg.restoreState(st.AppState)
			rep, err := NewReplica(ReplicaConfig[string]{
				Self: 2, N: n,
				Algorithm: lastvoting.Algorithm{},
				Msg:       lastvoting.WireCodec{},
				Batch:     strCodec{},
				Transport: net.Transport(2),
				Apply:     lg.hook,
				Persist:   store, Recovered: st,
				SnapshotState: lg.snapshotState,
				SnapshotEvery: 16,
				RoundTimeout:  time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			openDur := time.Since(openStart)
			localLen, _ := rep.LogHash()

			rep.Start()
			defer rep.Stop()
			catchStart := time.Now()
			deadline := time.Now().Add(10 * time.Second)
			for {
				l, h := rep.LogHash()
				if l == targetLen && h == targetHash {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("disk rejoin never caught up: (%d, %#x) != (%d, %#x)", l, h, targetLen, targetHash)
				}
				time.Sleep(time.Millisecond)
			}
			catchDur := time.Since(catchStart)
			st2 := rep.Stats()
			t.Logf("E12a disk rejoin: restore %d slots locally in %v, caught up %d backlog slots in %v (%d via sync), divergent=%d",
				localLen, openDur.Round(time.Microsecond), targetLen-localLen,
				catchDur.Round(time.Millisecond), st2.SyncDecisions, st2.Divergent)
			if localLen == 0 {
				t.Fatal("disk rejoin restored nothing")
			}
			if st2.Divergent != 0 {
				t.Fatalf("disk rejoin observed %d divergent decisions", st2.Divergent)
			}
		})
	})

	t.Run("empty", func(t *testing.T) {
		run(t, func(t *testing.T, dir string, net *ChanNetwork, targetLen, _ uint64) {
			lg := &applyLog{}
			rep, err := NewReplica(ReplicaConfig[string]{
				Self: 2, N: n,
				Algorithm:    lastvoting.Algorithm{},
				Msg:          lastvoting.WireCodec{},
				Batch:        strCodec{},
				Transport:    net.Transport(2),
				Apply:        lg.hook,
				RoundTimeout: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep.Start()
			defer rep.Stop()

			// The whole history must be refetched, but segment 1's batches
			// were pruned group-wide: apply is in-order, so the empty
			// rejoiner stalls at commit index 0 no matter how long it waits.
			time.Sleep(stallObs)
			st := rep.Stats()
			l, _ := rep.LogHash()
			t.Logf("E12a empty rejoin: needs all %d slots refetched, applied %d after %v (segment-1 batches pruned group-wide) — stalled",
				targetLen, l, stallObs)
			if l != 0 {
				t.Fatalf("empty rejoiner applied %d slots without segment-1 batch contents", l)
			}
			if st.Divergent != 0 {
				t.Fatalf("empty rejoin observed %d divergent decisions", st.Divergent)
			}
		})
	})
}
