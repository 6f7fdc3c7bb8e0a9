package live

import (
	"fmt"
	"testing"
	"time"

	"heardof/internal/otr"
	"heardof/internal/wal"
)

// benchSlot measures committed slots per second through a single-node
// replica (n=1 decides locally, so the cost is the shell dispatch, the
// core step, and — when persist is non-nil — the write-ahead sync).
// The three variants bound the durability tax: volatile (PR-5
// behavior), buffered writes (NoSync), and full fsync-per-dispatch.
func benchSlot(b *testing.B, persist Persister) {
	net, err := NewChanNetwork(1)
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	lg := &applyLog{}
	rep, err := NewReplica(ReplicaConfig[string]{
		Self: 0, N: 1,
		Algorithm:     otr.Algorithm{},
		Msg:           otr.WireCodec{},
		Batch:         strCodec{},
		Transport:     net.Transport(0),
		Apply:         lg.hook,
		Persist:       persist,
		SnapshotEvery: -1, // isolate append cost from checkpoint cost
		RoundTimeout:  time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	rep.Start()
	defer rep.Stop()

	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		ch, _ := rep.SubmitNext(1, fmt.Sprintf("cmd-%d", i))
		if res := <-ch; res.Dup {
			b.Fatal("fresh submission reported as duplicate")
		}
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "slots/sec")
}

func BenchmarkReplica_Volatile(b *testing.B) {
	benchSlot(b, nil)
}

func BenchmarkReplica_PersistedSlotNoSync(b *testing.B) {
	s, _, err := wal.Open(b.TempDir(), wal.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	benchSlot(b, s)
}

func BenchmarkReplica_PersistedSlot(b *testing.B) {
	s, _, err := wal.Open(b.TempDir(), wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	benchSlot(b, s)
}
