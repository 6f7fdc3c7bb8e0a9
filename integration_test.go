// Cross-layer integration tests: scenarios that thread through several
// packages at once (HO algorithms over the predicate implementation over
// the system model, trace serialization, applications over consensus).
package heardof_test

import (
	"fmt"
	"testing"

	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/kvstore"
	"heardof/internal/lastvoting"
	"heardof/internal/live"
	"heardof/internal/otr"
	"heardof/internal/predicate"
	"heardof/internal/predimpl"
	"heardof/internal/rsm"
	"heardof/internal/simtime"
	"heardof/internal/tracefile"
	"heardof/internal/uv"
	"heardof/internal/xrand"
)

// TestThreeAlgorithmsOneSubstrate runs three different HO algorithms over
// the identical Algorithm 2 substrate in a Π-good period: the layering of
// Figure 1 means the substrate needs no knowledge of the algorithm above.
func TestThreeAlgorithmsOneSubstrate(t *testing.T) {
	algorithms := []core.Algorithm{
		otr.Algorithm{},
		uv.Algorithm{},
		lastvoting.Algorithm{},
	}
	n := 5
	initial := []core.Value{3, 1, 4, 1, 5}
	for _, alg := range algorithms {
		t.Run(alg.Name(), func(t *testing.T) {
			stack, err := predimpl.BuildStack(predimpl.StackConfig{
				Kind:      predimpl.UseAlg2,
				Algorithm: alg,
				Initial:   initial,
				Sim:       simtime.Config{N: n, Phi: 1, Delta: 5, Seed: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			last := stack.RunUntilAllDecided(core.FullSet(n), 5000)
			if last < 0 {
				t.Fatalf("%s did not decide over Alg2", alg.Name())
			}
			if err := stack.Trace().CheckConsensusSafety(); err != nil {
				t.Fatal(err)
			}
			if stack.Sim.ContractViolations() != 0 {
				t.Error("step contract violated")
			}
		})
	}
}

// TestTraceSerializationPipeline runs a full stack, serializes the
// recorded trace, decodes it, and re-checks predicates and safety — the
// hocheck workflow end to end.
func TestTraceSerializationPipeline(t *testing.T) {
	n := 7
	pi0 := core.SetOf(0, 1, 2, 3, 4)
	stack, err := predimpl.BuildStack(predimpl.StackConfig{
		Kind:      predimpl.UseAlg2,
		Algorithm: otr.Algorithm{},
		Initial:   []core.Value{3, 1, 4, 1, 5, 9, 2},
		Sim: simtime.Config{
			N: n, Phi: 1, Delta: 5, Seed: 4,
			Periods: []simtime.Period{{Start: 0, Kind: simtime.GoodDown, Pi0: pi0}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stack.RunUntilAllDecided(pi0, 5000) < 0 {
		t.Fatal("π0 did not decide")
	}

	data, err := tracefile.Encode(stack.Trace())
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := tracefile.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !(predicate.PrestrOtr{}).Holds(decoded) {
		t.Error("decoded trace lost the PrestrOtr property")
	}
	if err := decoded.CheckConsensusSafety(); err != nil {
		t.Fatal(err)
	}
	if decoded.DecidedSet() != stack.Trace().DecidedSet() {
		t.Error("decisions changed across serialization")
	}
}

// TestCoarseAndFineExecutionsAgree: the lock-step runner (§3 semantics)
// and the real-time simulator (§4.1 semantics) drive the same algorithm
// to the same decision when the environment is equivalent (full
// connectivity).
func TestCoarseAndFineExecutionsAgree(t *testing.T) {
	initial := []core.Value{9, 2, 7, 2, 5}
	n := len(initial)

	ru, err := core.NewRunner(otr.Algorithm{}, initial, adversary.Full{})
	if err != nil {
		t.Fatal(err)
	}
	coarseTr, err := ru.Run(20)
	if err != nil {
		t.Fatal(err)
	}

	stack, err := predimpl.BuildStack(predimpl.StackConfig{
		Kind:      predimpl.UseAlg2,
		Algorithm: otr.Algorithm{},
		Initial:   initial,
		Sim:       simtime.Config{N: n, Phi: 1, Delta: 5, Seed: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stack.RunUntilAllDecided(core.FullSet(n), 5000) < 0 {
		t.Fatal("simulator run did not decide")
	}
	fineTr := stack.Trace()

	want := coarseTr.Decisions[0].Value
	for p := 0; p < n; p++ {
		if coarseTr.Decisions[p].Value != want {
			t.Fatal("coarse run disagrees internally")
		}
		if fineTr.Decisions[p].Value != want {
			t.Errorf("p%d: simulator decided %d, lock-step decided %d",
				p, fineTr.Decisions[p].Value, want)
		}
	}
}

// TestAtomicBroadcastOnReplicatedValues pushes an interleaved workload
// through atomic broadcast — the replica core's totally ordered log —
// under loss, and checks that every process delivers every message once,
// in one total order that keeps each sender's messages in send order.
func TestAtomicBroadcastOnReplicatedValues(t *testing.T) {
	const n, msgs = 5, 30
	delivered := make([][]string, n)
	g, err := rsm.NewGroup(live.CoreConfig[kvstore.Command]{
		N: n, Algorithm: otr.Algorithm{}, Msg: otr.WireCodec{}, Batch: kvstore.Codec{},
	}, &adversary.TransmissionLoss{Rate: 0.2, RNG: xrand.New(11)},
		func(p int, e live.Entry[kvstore.Command]) {
			delivered[p] = append(delivered[p], e.Cmd.Value)
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < msgs; i++ {
		sender := i % n
		if _, err := g.SubmitNext(sender, uint64(sender), kvstore.Command{Op: kvstore.OpPut, Key: "m", Value: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rsm.Settle([]*rsm.Group[kvstore.Command]{g}, 1000); err != nil {
		t.Fatal(err)
	}
	if len(delivered[0]) != msgs {
		t.Fatalf("delivered %d of %d", len(delivered[0]), msgs)
	}
	last := make([]int, n)
	for i := range last {
		last[i] = -1
	}
	for pos, v := range delivered[0] {
		var m int
		fmt.Sscan(v, &m)
		if m <= last[m%n] {
			t.Errorf("position %d: message %d delivered after %d from the same sender", pos, m, last[m%n])
		}
		last[m%n] = m
	}
	for p := 1; p < n; p++ {
		if fmt.Sprint(delivered[p]) != fmt.Sprint(delivered[0]) {
			t.Errorf("process %d delivered %v, process 0 %v", p, delivered[p], delivered[0])
		}
	}
}

// TestLongAlternation runs many bad/good cycles: decisions happen in the
// first adequate good period and stay stable forever after.
func TestLongAlternation(t *testing.T) {
	n := 5
	var periods []simtime.Period
	for i := 0; i < 6; i++ {
		start := simtime.Time(i) * 200
		periods = append(periods,
			simtime.Period{Start: start, Kind: simtime.Bad},
			simtime.Period{Start: start + 120, Kind: simtime.GoodDown, Pi0: core.FullSet(n)},
		)
	}
	stack, err := predimpl.BuildStack(predimpl.StackConfig{
		Kind:      predimpl.UseAlg2,
		Algorithm: otr.Algorithm{},
		Initial:   []core.Value{5, 4, 3, 2, 1},
		Sim: simtime.Config{
			N: n, Phi: 1, Delta: 5, Seed: 8, Periods: periods,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	last := stack.RunUntilAllDecided(core.FullSet(n), 1500)
	if last < 0 {
		t.Fatal("no decision across six alternation cycles")
	}
	// Keep running through more cycles: nothing may change.
	stack.Sim.RunUntilTime(1200)
	if err := stack.Trace().CheckConsensusSafety(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		if v, ok := stack.Instance(core.ProcessID(p)).Decided(); !ok || v != 1 {
			t.Errorf("p%d decision drifted: (%v, %v)", p, v, ok)
		}
	}
}
