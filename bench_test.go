// Benchmarks regenerating the paper's results: one benchmark per
// experiment table (E1–E9 plus the ablations, see DESIGN.md §4), and
// micro-benchmarks of the layers (HO rounds, the §4.1 simulator, the
// predicate implementation protocols, the baselines).
//
// Run with: go test -bench=. -benchmem
//
// The E-benchmarks report, besides ns/op, the experiment's key metric via
// b.ReportMetric (e.g. the measured/bound ratio), so a bench run doubles
// as a reproduction check.
package heardof_test

import (
	"bytes"
	"context"
	gort "runtime"
	"testing"

	"heardof/internal/acr"
	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/ctcs"
	"heardof/internal/experiments"
	"heardof/internal/fd"
	"heardof/internal/kvstore"
	"heardof/internal/lastvoting"
	"heardof/internal/live"
	"heardof/internal/modelcheck"
	"heardof/internal/otr"
	"heardof/internal/predicate"
	"heardof/internal/predimpl"
	"heardof/internal/runtime"
	"heardof/internal/simtime"
	"heardof/internal/stable"
	"heardof/internal/translation"
	"heardof/internal/uv"
	"heardof/internal/xrand"
)

// ---------------------------------------------------------------------------
// E1–E9: one benchmark per experiment table.
// ---------------------------------------------------------------------------

// BenchmarkE1_Alg2GoodPeriod measures one Theorem 3 data point per
// iteration and reports the measured/bound ratio.
func BenchmarkE1_Alg2GoodPeriod(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := (predimpl.GoodPeriodExperiment{
			Kind: predimpl.UseAlg2, N: 7, Phi: 1, Delta: 5, X: 2, TG: 150,
			Seed: uint64(i),
		}).Run()
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Ratio
	}
	b.ReportMetric(ratio, "measured/bound")
}

// BenchmarkE2_P2otrVsP11otr compares the two Corollary 4 strategies.
func BenchmarkE2_P2otrVsP11otr(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := (predimpl.GoodPeriodExperiment{
			Kind: predimpl.UseAlg2, N: 7, Phi: 1, Delta: 5, X: 2, TG: 150, Seed: uint64(i),
		}).Run(); err != nil {
			b.Fatal(err)
		}
		if _, err := (predimpl.GoodPeriodExperiment{
			Kind: predimpl.UseAlg2, N: 7, Phi: 1, Delta: 5, X: 1, TG: 150, Seed: uint64(i) + 1,
		}).Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(predimpl.Corollary4P2otrBound(7, 1, 5)/predimpl.Corollary4P11otrBound(7, 1, 5),
		"P2otr/P11otr-bound")
}

// BenchmarkE3_InitialGoodPeriod measures a Theorem 5 data point and
// reports the 3/2 factor between Theorems 3 and 5.
func BenchmarkE3_InitialGoodPeriod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := (predimpl.GoodPeriodExperiment{
			Kind: predimpl.UseAlg2, N: 7, Phi: 1, Delta: 5, X: 2, TG: 0, Seed: uint64(i),
		}).Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(predimpl.Theorem3GoodPeriodBound(7, 1, 5, 2)/predimpl.Theorem5InitialBound(7, 1, 5, 2),
		"noninitial/initial")
}

// BenchmarkE4_Alg3GoodPeriod measures a Theorem 6 data point.
func BenchmarkE4_Alg3GoodPeriod(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := (predimpl.GoodPeriodExperiment{
			Kind: predimpl.UseAlg3, N: 7, F: 3, Phi: 1, Delta: 5, X: 2, TG: 150,
			Seed: uint64(i),
		}).Run()
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Ratio
	}
	b.ReportMetric(ratio, "measured/bound")
}

// BenchmarkE5_Alg3Initial measures a Theorem 7 data point.
func BenchmarkE5_Alg3Initial(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := (predimpl.GoodPeriodExperiment{
			Kind: predimpl.UseAlg3, N: 7, F: 3, Phi: 1, Delta: 5, X: 2, TG: 0,
			Seed: uint64(i),
		}).Run()
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Ratio
	}
	b.ReportMetric(ratio, "measured/bound")
}

// BenchmarkE6_FullStack runs the §4.2.2(c) composition end to end.
func BenchmarkE6_FullStack(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := (predimpl.FullStackExperiment{
			N: 7, F: 2, Phi: 1, Delta: 5, TG: 150,
			Seed: uint64(i), OutsidersDown: true,
		}).Run()
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Ratio
	}
	b.ReportMetric(ratio, "measured/bound")
}

// BenchmarkE7_OTRRandomAdversary fuzzes OneThirdRule safety (one 25-round
// adversarial run per iteration).
func BenchmarkE7_OTRRandomAdversary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prov := &adversary.Arbitrary{RNG: xrand.New(uint64(i)), EmptyBias: 0.2}
		ru, err := core.NewRunner(otr.Algorithm{}, []core.Value{3, 1, 4, 1, 5, 9, 2}, prov)
		if err != nil {
			b.Fatal(err)
		}
		ru.RunRounds(25)
		if serr := ru.Trace().CheckConsensusSafety(); serr != nil {
			b.Fatal(serr)
		}
	}
}

// BenchmarkE8_CrashRecoveryUniformity runs the crash-recovery HO scenario
// of the E8 table.
func BenchmarkE8_CrashRecoveryUniformity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stack, err := predimpl.BuildStack(predimpl.StackConfig{
			Kind:      predimpl.UseAlg2,
			Algorithm: otr.Algorithm{},
			Initial:   []core.Value{3, 1, 4, 1, 5, 9, 2},
			Sim: simtime.Config{
				N: 7, Phi: 1, Delta: 5,
				Periods: []simtime.Period{
					{Start: 0, Kind: simtime.Bad},
					{Start: 140, Kind: simtime.GoodDown, Pi0: core.FullSet(7)},
				},
				Crashes: []simtime.CrashEvent{
					{P: 0, At: 10, RecoverAt: 60},
					{P: 3, At: 30, RecoverAt: 90},
					{P: 6, At: 55, RecoverAt: 130},
				},
				Seed: uint64(i),
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if stack.RunUntilAllDecided(core.FullSet(7), 5000) < 0 {
			b.Fatal("consensus not reached")
		}
	}
}

// BenchmarkE9_MessageLoss runs one HO-stack decision under 30% permanent
// loss per iteration (the CT side collapses and is measured in the E9
// table instead, where failures are data rather than bench errors).
func BenchmarkE9_MessageLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stack, err := predimpl.BuildStack(predimpl.StackConfig{
			Kind:      predimpl.UseAlg2,
			Algorithm: otr.Algorithm{},
			Initial:   []core.Value{1, 2, 3, 4, 5},
			Sim: simtime.Config{
				N: 5, Phi: 1, Delta: 5,
				Periods: []simtime.Period{{Start: 0, Kind: simtime.Bad}},
				Bad: simtime.BadConfig{
					LossProb: 0.3, MinDelay: 2.5, MaxDelay: 5, MinGap: 1, MaxGap: 1,
				},
				Seed: uint64(i),
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if stack.RunUntilAllDecided(core.FullSet(5), 50000) < 0 {
			b.Fatal("HO stack failed to decide under loss")
		}
	}
}

// ---------------------------------------------------------------------------
// The sweep engine: sequential/parallel equivalence and speedup.
// ---------------------------------------------------------------------------

// renderSuite regenerates the full experiment suite with the given worker
// count and returns its rendered text output.
func renderSuite(t *testing.T, workers int) []byte {
	t.Helper()
	tables := experiments.New(experiments.Config{Seed: 1, Parallel: workers}).
		All(context.Background())
	var buf bytes.Buffer
	if err := experiments.RenderAll(&buf, tables); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepSequentialParallelEquivalence is the tentpole guarantee of the
// orchestration engine: the full experiment suite renders byte-identically
// whether the sweep runs on one worker or eight.
func TestSweepSequentialParallelEquivalence(t *testing.T) {
	sequential := renderSuite(t, 1)
	parallel := renderSuite(t, 8)
	if !bytes.Equal(sequential, parallel) {
		t.Errorf("parallel suite output differs from sequential reference:\n--- parallel=1 ---\n%s\n--- parallel=8 ---\n%s",
			sequential, parallel)
	}
}

// benchSuiteWorkers regenerates the E1 table (36 independent simulation
// cells) per iteration at a fixed worker count; comparing the Sequential
// and Parallel variants measures the engine's speedup.
func benchSuiteWorkers(b *testing.B, workers int) {
	b.Helper()
	runner := experiments.New(experiments.Config{Seed: 1, Parallel: workers})
	for i := 0; i < b.N; i++ {
		if tbl := runner.E1Theorem3(context.Background()); len(tbl.Rows) == 0 {
			b.Fatalf("E1 produced no rows: %v", tbl.Notes)
		}
	}
}

// BenchmarkSweep_E1Sequential is the single-worker reference.
func BenchmarkSweep_E1Sequential(b *testing.B) { benchSuiteWorkers(b, 1) }

// BenchmarkSweep_E1Parallel fans the same cells across all cores.
func BenchmarkSweep_E1Parallel(b *testing.B) { benchSuiteWorkers(b, gort.GOMAXPROCS(0)) }

// BenchmarkTables_Eall regenerates the complete experiment suite once per
// iteration (what cmd/hobench does).
func BenchmarkTables_Eall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := experiments.All(uint64(i) + 1)
		if len(tables) != 10 {
			b.Fatal("unexpected table count")
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benches (DESIGN.md §5).
// ---------------------------------------------------------------------------

func benchAblation(b *testing.B, ab *predimpl.Ablation, bad *simtime.BadConfig) {
	b.Helper()
	var ratio float64
	for i := 0; i < b.N; i++ {
		base := predimpl.GoodPeriodExperiment{
			Kind: predimpl.UseAlg3, N: 5, F: 2, Phi: 1, Delta: 5, X: 2, TG: 400,
			Seed: uint64(i), Bad: bad,
		}
		pure, err := base.Run()
		if err != nil {
			b.Fatal(err)
		}
		ablated := base
		ablated.Ablation = ab
		ablated.Horizon = base.TG + 30*pure.Bound
		res, err := ablated.Run()
		if err != nil {
			ratio = -1 // never established: reported as -1
			continue
		}
		ratio = res.Elapsed / pure.Elapsed
	}
	b.ReportMetric(ratio, "ablated/pure")
}

// BenchmarkAblation_ReceptionPolicy compares round-robin-highest against
// FIFO for Algorithm 3.
func BenchmarkAblation_ReceptionPolicy(b *testing.B) {
	benchAblation(b, &predimpl.Ablation{
		Alg3Policy: func(int) simtime.ReceptionPolicy { return simtime.FIFO{} },
	}, nil)
}

// BenchmarkAblation_RoundCatchup disables the higher-round jump.
func BenchmarkAblation_RoundCatchup(b *testing.B) {
	benchAblation(b, &predimpl.Ablation{DisableCatchup: true}, nil)
}

// BenchmarkAblation_InitQuorum lowers the INIT quorum to 1 under a racing
// outsider.
func BenchmarkAblation_InitQuorum(b *testing.B) {
	var ratio float64
	fast := &simtime.BadConfig{LossProb: 0, MinDelay: 1, MaxDelay: 5, MinGap: 0.05, MaxGap: 0.15}
	for i := 0; i < b.N; i++ {
		base := predimpl.GoodPeriodExperiment{
			Kind: predimpl.UseAlg3, N: 5, F: 1, Phi: 1, Delta: 5, X: 3, TG: 0,
			Seed: uint64(i), Bad: fast,
		}
		pure, err := base.Run()
		if err != nil {
			b.Fatal(err)
		}
		ablated := base
		ablated.Ablation = &predimpl.Ablation{InitQuorum: 1}
		ablated.Horizon = 20 * pure.Bound
		if res, err := ablated.Run(); err != nil {
			ratio = -1
		} else {
			ratio = res.Elapsed / pure.Elapsed
		}
	}
	b.ReportMetric(ratio, "ablated/pure")
}

// ---------------------------------------------------------------------------
// BenchmarkSim_* / BenchmarkRunner_*: the event-core hot path.
//
// These are the benchmarks scripts/bench.sh aggregates into BENCH_sim.json
// — the repo's perf trajectory. Each BenchmarkSim_* iteration runs one
// complete bounded scenario (fresh simulator, fixed horizon), so ns/op and
// allocs/op measure the whole event loop: heap pushes and pops, broadcast
// fan-out, make-ready transfers, reception-policy selection and buffer
// removal. DESIGN.md's Performance section records the before/after
// numbers.
// ---------------------------------------------------------------------------

// benchRoundMsg is a round-carrying payload for simulator-level benches.
type benchRoundMsg struct{ r core.Round }

func (m benchRoundMsg) RoundNumber() core.Round { return m.r }

// benchProto alternates between broadcasting a round-tagged payload and
// draining one buffered message, keeping buffers small and both step kinds
// hot.
type benchProto struct {
	policy simtime.ReceptionPolicy
	round  core.Round
	got    int
}

func (p *benchProto) Step(ctx *simtime.StepContext) {
	if _, ok := ctx.Receive(p.policy); ok {
		p.got++
		return
	}
	p.round++
	ctx.Broadcast(benchRoundMsg{r: p.round})
}

func (p *benchProto) OnCrash()   {}
func (p *benchProto) OnRecover() {}

// benchFloodProto: process 0 broadcasts every step; every other process
// receives every step, so buffers deepen and policy selection dominates.
type benchFloodProto struct {
	p      core.ProcessID
	policy simtime.ReceptionPolicy
	round  core.Round
}

func (p *benchFloodProto) Step(ctx *simtime.StepContext) {
	if p.p == 0 {
		p.round++
		ctx.Broadcast(benchRoundMsg{r: p.round})
		return
	}
	ctx.Receive(p.policy)
}

func (p *benchFloodProto) OnCrash()   {}
func (p *benchFloodProto) OnRecover() {}

func runSimScenario(b *testing.B, cfg simtime.Config, factory func(p core.ProcessID) simtime.Proto, horizon simtime.Time) {
	b.Helper()
	sim, err := simtime.New(cfg, factory)
	if err != nil {
		b.Fatal(err)
	}
	sim.RunUntilTime(horizon)
	if sim.Stats().Steps == 0 {
		b.Fatal("scenario executed no steps")
	}
}

// BenchmarkSim_EventLoop is the headline hot-path number: an 8-process
// all-good run where every step is a send or a FIFO receive.
func BenchmarkSim_EventLoop(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runSimScenario(b, simtime.Config{N: 8, Phi: 1, Delta: 5, Seed: uint64(i) + 1},
			func(core.ProcessID) simtime.Proto { return &benchProto{policy: simtime.FIFO{}} }, 200)
	}
}

// BenchmarkSim_BroadcastFanout stresses the n-destination enqueue batch:
// 16 processes, everyone alternating send/receive.
func BenchmarkSim_BroadcastFanout(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runSimScenario(b, simtime.Config{N: 16, Phi: 1, Delta: 5, Seed: uint64(i) + 1},
			func(core.ProcessID) simtime.Proto { return &benchProto{policy: simtime.FIFO{}} }, 100)
	}
}

// BenchmarkSim_HighestRoundReceive deepens buffers under a flooding sender
// so HighestRoundFirst selection over large buffers dominates.
func BenchmarkSim_HighestRoundReceive(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runSimScenario(b, simtime.Config{N: 8, Phi: 1, Delta: 5, Seed: uint64(i) + 1},
			func(p core.ProcessID) simtime.Proto {
				return &benchFloodProto{p: p, policy: simtime.HighestRoundFirst{}}
			}, 200)
	}
}

// BenchmarkSim_BadPeriodChurn exercises the rng-heavy regime: jittered
// gaps and delays plus 30% loss in a permanent bad period.
func BenchmarkSim_BadPeriodChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runSimScenario(b, simtime.Config{
			N: 8, Phi: 1, Delta: 5, Seed: uint64(i) + 1,
			Periods: []simtime.Period{{Start: 0, Kind: simtime.Bad}},
			Bad:     simtime.BadConfig{LossProb: 0.3, MinDelay: 1, MaxDelay: 8, MinGap: 0.5, MaxGap: 2},
		}, func(core.ProcessID) simtime.Proto { return &benchProto{policy: simtime.FIFO{}} }, 300)
	}
}

// BenchmarkSim_Alg2StackDecision runs the full Alg2+OTR stack to an
// all-decided state — the event core under its production protocol load.
func BenchmarkSim_Alg2StackDecision(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stack, err := predimpl.BuildStack(predimpl.StackConfig{
			Kind:      predimpl.UseAlg2,
			Algorithm: otr.Algorithm{},
			Initial:   []core.Value{3, 1, 4, 1, 5, 9, 2},
			Sim:       simtime.Config{N: 7, Phi: 1, Delta: 5, Seed: uint64(i) + 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		if stack.RunUntilAllDecided(core.FullSet(7), 2000) < 0 {
			b.Fatal("stack did not decide")
		}
	}
}

// BenchmarkRunner_OTRStepRound measures one lock-step HO round at n=16
// with allocation accounting (the E7 inner loop).
func BenchmarkRunner_OTRStepRound(b *testing.B) {
	initial := make([]core.Value, 16)
	for i := range initial {
		initial[i] = core.Value(i)
	}
	ru, err := core.NewRunner(otr.Algorithm{}, initial, adversary.Full{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ru.StepRound()
	}
}

// BenchmarkRunner_E7RandomizedRun is one complete E7 cell: a 25-round
// randomized-adversary execution plus its safety check.
func BenchmarkRunner_E7RandomizedRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prov := &adversary.Arbitrary{RNG: xrand.New(uint64(i)), EmptyBias: 0.2}
		ru, err := core.NewRunner(otr.Algorithm{}, []core.Value{3, 1, 4, 1, 5, 9, 2}, prov)
		if err != nil {
			b.Fatal(err)
		}
		ru.RunRounds(25)
		if serr := ru.Trace().CheckConsensusSafety(); serr != nil {
			b.Fatal(serr)
		}
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the layers.
// ---------------------------------------------------------------------------

// BenchmarkMicro_OTRRound measures one lock-step HO round of OneThirdRule
// at n=16.
func BenchmarkMicro_OTRRound(b *testing.B) {
	initial := make([]core.Value, 16)
	for i := range initial {
		initial[i] = core.Value(i)
	}
	ru, err := core.NewRunner(otr.Algorithm{}, initial, adversary.Full{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ru.StepRound()
	}
}

// BenchmarkMicro_UVRound measures one UniformVoting round at n=16.
func BenchmarkMicro_UVRound(b *testing.B) {
	initial := make([]core.Value, 16)
	ru, err := core.NewRunner(uv.Algorithm{}, initial, adversary.Full{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ru.StepRound()
	}
}

// BenchmarkMicro_LastVotingPhase measures one four-round LastVoting phase
// at n=16.
func BenchmarkMicro_LastVotingPhase(b *testing.B) {
	initial := make([]core.Value, 16)
	ru, err := core.NewRunner(lastvoting.Algorithm{}, initial, adversary.Full{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ru.RunRounds(4)
	}
}

// BenchmarkMicro_TranslationMacroRound measures one f+1-round macro-round
// of the Algorithm 4 translation (n=9, f=4).
func BenchmarkMicro_TranslationMacroRound(b *testing.B) {
	initial := make([]core.Value, 9)
	alg := translation.Algorithm{Inner: otr.Algorithm{}, F: 4}
	ru, err := core.NewRunner(alg, initial, adversary.Full{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ru.RunRounds(5)
	}
}

// BenchmarkMicro_SimtimeStep measures raw event-loop throughput: one
// Algorithm 2 protocol step (send or receive) on the §4.1 simulator.
func BenchmarkMicro_SimtimeStep(b *testing.B) {
	stack, err := predimpl.BuildStack(predimpl.StackConfig{
		Kind:      predimpl.UseAlg2,
		Algorithm: otr.Algorithm{},
		Initial:   make([]core.Value, 8),
		Sim:       simtime.Config{N: 8, Phi: 1, Delta: 5, Seed: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	target := stack.Sim.Stats().Steps + int64(b.N)
	stack.Sim.RunUntil(func() bool { return stack.Sim.Stats().Steps >= target }, simtime.Forever)
}

// BenchmarkMicro_PredicateCheck measures checking P_otr on a 50-round
// trace at n=16.
func BenchmarkMicro_PredicateCheck(b *testing.B) {
	prov := &adversary.TransmissionLoss{Rate: 0.3, RNG: xrand.New(5)}
	ru, err := core.NewRunner(otr.Algorithm{}, make([]core.Value, 16), prov)
	if err != nil {
		b.Fatal(err)
	}
	ru.RunRounds(50)
	tr := ru.Trace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predicate.Potr{}.Holds(tr)
	}
}

// BenchmarkMicro_CTConsensus measures one Chandra–Toueg run to full
// decision over reliable links (n=5).
func BenchmarkMicro_CTConsensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nodes := make([]*ctcs.Node, 5)
		sim, err := runtime.New(runtime.Config{
			N: 5, MinDelay: 0.5, MaxDelay: 1, Seed: uint64(i),
		}, func(p runtime.NodeID) runtime.Handler {
			nodes[p] = ctcs.NewNodeDeferred(5, core.Value(int(p)+1), 2)
			return nodes[p]
		})
		if err != nil {
			b.Fatal(err)
		}
		det := fd.NewEventuallyStrong(sim, 0, uint64(i))
		for _, nd := range nodes {
			nd.SetDetector(det)
		}
		ok := sim.RunUntil(func() bool {
			for _, nd := range nodes {
				if _, decided := nd.Decided(); !decided {
					return false
				}
			}
			return true
		}, 400)
		if !ok {
			b.Fatal("CT did not decide over reliable links")
		}
	}
}

// BenchmarkMicro_ACRConsensus measures one Aguilera et al. run to full
// decision with pre-GST loss (n=5).
func BenchmarkMicro_ACRConsensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nodes := make([]*acr.Node, 5)
		stores := stable.NewRegistry()
		sim, err := runtime.New(runtime.Config{
			N: 5, MinDelay: 0.5, MaxDelay: 1,
			LossProb: 0.3, GST: 30, Seed: uint64(i),
		}, func(p runtime.NodeID) runtime.Handler {
			nodes[p] = acr.NewNodeDeferred(5, core.Value(int(p)+1), stores.For(int(p)), 2, 3)
			return nodes[p]
		})
		if err != nil {
			b.Fatal(err)
		}
		det := fd.NewEventuallySu(sim, 30, uint64(i))
		for _, nd := range nodes {
			nd.SetDetector(det)
		}
		ok := sim.RunUntil(func() bool {
			for _, nd := range nodes {
				if _, decided := nd.Decided(); !decided {
					return false
				}
			}
			return true
		}, 3000)
		if !ok {
			b.Fatal("ACR did not decide")
		}
	}
}

// BenchmarkMicro_ModelCheckOTRN3 measures the exhaustive n=3 safety
// verification of OneThirdRule.
func BenchmarkMicro_ModelCheckOTRN3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := modelcheck.New(modelcheck.OTRCoder{}, []core.Value{0, 1, 1})
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Violation != nil {
			b.Fatal(res.Violation.Message)
		}
	}
}

// BenchmarkMicro_KVStoreSlot measures replicating one command through a
// 5-replica KV group under 20% loss, in virtual rounds.
func BenchmarkMicro_KVStoreSlot(b *testing.B) {
	cluster, err := kvstore.NewCluster(1, live.CoreConfig[kvstore.Command]{
		N: 5, Algorithm: otr.Algorithm{}, Msg: otr.WireCodec{},
	}, func(int) core.HOProvider {
		return &adversary.TransmissionLoss{Rate: 0.2, RNG: xrand.New(1)}
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cluster.Submit(i%5, kvstore.Command{Op: kvstore.OpPut, Key: "k", Value: "v"}); err != nil {
			b.Fatal(err)
		}
		if _, err := cluster.Drain(1000); err != nil {
			b.Fatal(err)
		}
	}
}
