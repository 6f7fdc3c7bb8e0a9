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

// BenchmarkTCP_Burst is the transport rung: two TCPTransports on
// loopback, and one op is a burst of tcpBurst round-sized envelopes
// sent from p0 to p1 and awaited at p1. It prices the framing, the
// coalescing writer and the buffered reader without a replica on top.
func BenchmarkTCP_Burst(b *testing.B) {
	const tcpBurst = 64
	a, c := tcpPair(b)
	env := Envelope{Group: 1, Slot: 1000, Round: 3, Kind: KindRound, Payload: make([]byte, 24)}
	lost := time.NewTimer(time.Hour) // one timer, reset per burst: no allocs
	defer lost.Stop()
	await := func(k int) {
		lost.Reset(10 * time.Second)
		for ; k > 0; k-- {
			select {
			case <-c.Recv():
			case <-lost.C:
				b.Fatal("envelope lost on loopback")
			}
		}
	}
	a.Send(1, env) // dial and warm both buffers before timing
	await(1)

	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for k := 0; k < tcpBurst; k++ {
			env.Slot++
			a.Send(1, env)
		}
		await(tcpBurst)
	}
	b.ReportMetric(float64(b.N*tcpBurst)/time.Since(start).Seconds(), "envelopes/sec")
}
