package adversary

import (
	"testing"

	"heardof/internal/core"
	"heardof/internal/predicate"
	"heardof/internal/xrand"
)

func collectTrace(prov core.HOProvider, n int, rounds core.Round) *core.Trace {
	tr := core.NewTrace(n, make([]core.Value, n))
	for r := core.Round(1); r <= rounds; r++ {
		ho := prov.HOSets(r, n)
		clamped := make([]core.PIDSet, n)
		for p := 0; p < n; p++ {
			if p < len(ho) {
				clamped[p] = ho[p].Intersect(core.FullSet(n))
			}
		}
		tr.RecordRound(clamped)
	}
	return tr
}

func TestFullAndSilence(t *testing.T) {
	n := 5
	full := Full{}.HOSets(3, n)
	for p, ho := range full {
		if ho != core.FullSet(n) {
			t.Errorf("Full: HO(%d) = %v", p, ho)
		}
	}
	silent := Silence{}.HOSets(3, n)
	for p, ho := range silent {
		if !ho.IsEmpty() {
			t.Errorf("Silence: HO(%d) = %v", p, ho)
		}
	}
}

func TestCrashStopRemovesVictimsFromRoundOn(t *testing.T) {
	prov := CrashStop{CrashRound: map[core.ProcessID]core.Round{2: 3}}
	n := 4
	before := prov.HOSets(2, n)
	after := prov.HOSets(3, n)
	if !before[0].Has(2) {
		t.Error("victim missing before crash round")
	}
	if after[0].Has(2) {
		t.Error("victim present at crash round")
	}
	if prov.HOSets(10, n)[0].Has(2) {
		t.Error("crash is not permanent (SP class violated)")
	}
}

func TestTransmissionLossRateZeroAndOne(t *testing.T) {
	n := 4
	none := &TransmissionLoss{Rate: 0, RNG: xrand.New(1)}
	for _, ho := range none.HOSets(1, n) {
		if ho != core.FullSet(n) {
			t.Error("rate 0 lost a message")
		}
	}
	all := &TransmissionLoss{Rate: 1, RNG: xrand.New(1)}
	for _, ho := range all.HOSets(1, n) {
		if !ho.IsEmpty() {
			t.Error("rate 1 delivered a message")
		}
	}
}

func TestTransmissionLossIsDeterministicPerSeed(t *testing.T) {
	mk := func() *core.Trace {
		return collectTrace(&TransmissionLoss{Rate: 0.3, RNG: xrand.New(77)}, 5, 10)
	}
	a, b := mk(), mk()
	for r := core.Round(1); r <= 10; r++ {
		for p := 0; p < 5; p++ {
			if a.HO(core.ProcessID(p), r) != b.HO(core.ProcessID(p), r) {
				t.Fatal("same seed produced different HO sets")
			}
		}
	}
}

func TestSendOmissionOnlyAffectsFaultySenders(t *testing.T) {
	prov := &SendOmission{Faulty: core.SetOf(0), Rate: 1, RNG: xrand.New(3)}
	for p, ho := range prov.HOSets(1, 4) {
		if ho.Has(0) {
			t.Errorf("p%d heard faulty sender with omission rate 1", p)
		}
		if !ho.Has(1) || !ho.Has(2) || !ho.Has(3) {
			t.Errorf("p%d lost a message from a correct sender", p)
		}
	}
}

func TestReceiveOmissionOnlyAffectsFaultyReceivers(t *testing.T) {
	prov := &ReceiveOmission{Faulty: core.SetOf(1), Rate: 1, RNG: xrand.New(3)}
	hos := prov.HOSets(1, 4)
	if !hos[1].IsEmpty() {
		t.Error("faulty receiver heard something at rate 1")
	}
	if hos[0] != core.FullSet(4) || hos[2] != core.FullSet(4) {
		t.Error("correct receiver lost messages")
	}
}

func TestPartitionAssignsGroups(t *testing.T) {
	groups := []core.PIDSet{core.SetOf(0, 1), core.SetOf(2, 3, 4)}
	hos := Partition{Groups: groups}.HOSets(1, 5)
	if hos[0] != groups[0] || hos[1] != groups[0] {
		t.Error("group 0 members got wrong HO set")
	}
	if hos[4] != groups[1] {
		t.Error("group 1 member got wrong HO set")
	}
}

func TestScriptedFallsThroughToThen(t *testing.T) {
	script := Scripted{
		Rounds: [][]core.PIDSet{{core.SetOf(1), core.SetOf(0)}},
		Then:   Silence{},
	}
	if got := script.HOSets(1, 2); got[0] != core.SetOf(1) {
		t.Errorf("scripted round = %v", got)
	}
	if got := script.HOSets(2, 2); !got[0].IsEmpty() {
		t.Error("fall-through round not from Then")
	}
	noThen := Scripted{}
	if got := noThen.HOSets(1, 2); got[0] != core.FullSet(2) {
		t.Error("nil Then should default to Full")
	}
}

func TestScriptedPotrRealizesPotr(t *testing.T) {
	n := 5
	pi0 := core.SetOf(0, 1, 2, 3) // 4 > 10/3
	tr := collectTrace(ScriptedPotr{R0: 3, Pi0: pi0}, n, 6)
	r0, got, ok := predicate.FindPotrWitness(tr)
	if !ok {
		t.Fatal("ScriptedPotr trace does not satisfy Potr")
	}
	if r0 != 3 || got != pi0 {
		t.Errorf("witness = (%d, %v), want (3, %v)", r0, got, pi0)
	}
}

func TestSpaceUniformRoundsRealizesPsu(t *testing.T) {
	n := 5
	pi0 := core.SetOf(1, 2, 3)
	tr := collectTrace(SpaceUniformRounds{Pi0: pi0, From: 2, To: 4}, n, 5)
	if !(predicate.SpaceUniform{Pi0: pi0, From: 2, To: 4}).Holds(tr) {
		t.Error("Psu not realized")
	}
	if !tr.HO(0, 2).IsEmpty() {
		t.Error("process outside Π0 heard something")
	}
	if !tr.HO(1, 5).IsEmpty() {
		t.Error("round outside window should default to Silence")
	}
}

func TestKernelRoundsRealizesPk(t *testing.T) {
	n := 6
	pi0 := core.SetOf(0, 2, 4)
	prov := KernelRounds{Pi0: pi0, From: 1, To: 8, RNG: xrand.New(5)}
	tr := collectTrace(prov, n, 8)
	if !(predicate.Kernel{Pi0: pi0, From: 1, To: 8}).Holds(tr) {
		t.Error("Pk not realized")
	}
}

func TestGoodBadCycles(t *testing.T) {
	n := 4
	pi0 := core.SetOf(0, 1, 2)
	prov := &GoodBad{Pi0: pi0, BadLen: 2, GoodLen: 2, BadLoss: 1, RNG: xrand.New(9)}
	tr := collectTrace(prov, n, 8)
	// Rounds 3,4 and 7,8 are good (space-uniform for Π0).
	for _, r := range []core.Round{3, 4, 7, 8} {
		if !(predicate.SpaceUniform{Pi0: pi0, From: r, To: r}).Holds(tr) {
			t.Errorf("round %d should be space-uniform", r)
		}
	}
	// Bad rounds with loss 1 are silent.
	for _, r := range []core.Round{1, 2, 5, 6} {
		if !tr.HO(0, r).IsEmpty() {
			t.Errorf("bad round %d not silent at loss 1", r)
		}
	}
	zero := &GoodBad{}
	if got := zero.HOSets(1, n); got[0] != core.FullSet(n) {
		t.Error("degenerate GoodBad should behave like Full")
	}
}

func TestArbitraryEmptyBias(t *testing.T) {
	prov := &Arbitrary{RNG: xrand.New(11), EmptyBias: 1}
	for _, ho := range prov.HOSets(1, 5) {
		if !ho.IsEmpty() {
			t.Error("EmptyBias 1 produced a non-empty set")
		}
	}
	some := &Arbitrary{RNG: xrand.New(11)}
	nonEmpty := 0
	for r := core.Round(1); r <= 20; r++ {
		for _, ho := range some.HOSets(r, 8) {
			if !ho.IsEmpty() {
				nonEmpty++
			}
		}
	}
	if nonEmpty == 0 {
		t.Error("Arbitrary produced only empty sets")
	}
}

func TestRotatingCrashCutsOffOneVictimPerEpochHalf(t *testing.T) {
	n := 5
	rc := RotatingCrash{Epoch: 4}
	for r := core.Round(1); r <= 24; r++ {
		ho := rc.HOSets(r, n)
		epoch, phase := int(r-1)/4, int(r-1)%4
		down := phase < 2
		victim := core.ProcessID(epoch % n)
		for p := 0; p < n; p++ {
			want := core.FullSet(n)
			switch {
			case !down:
			case core.ProcessID(p) == victim:
				want = 0
			default:
				want = want.Remove(victim)
			}
			if ho[p] != want {
				t.Fatalf("round %d: HO(%d) = %v, want %v", r, p, ho[p], want)
			}
		}
	}
	if ho := (RotatingCrash{}).HOSets(1, n); ho[0] != core.FullSet(n) {
		t.Errorf("epoch < 2 should be fault-free, got %v", ho[0])
	}
}
