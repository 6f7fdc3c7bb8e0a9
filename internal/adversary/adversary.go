// Package adversary provides HO-set providers (core.HOProvider) that model
// the fault taxonomy of §2.2 of Hutle & Schiper (DSN 2007) at the HO layer:
//
//   - SP (static permanent): crash-stop — a fixed subset of processes
//     crash and stay crashed (CrashStop).
//   - ST (static transient): a fixed subset suffers intermittent send or
//     receive omissions (SendOmission, ReceiveOmission).
//   - DP (dynamic permanent): any process may fail permanently
//     (CrashStop with arbitrary victims).
//   - DT (dynamic transient): every message may independently be lost
//     (TransmissionLoss) — the most general benign class.
//
// It also provides scripted providers that realize specific communication
// predicates (ScriptedPotr, GoodBad, SpaceUniformRounds) and adversarial
// providers for safety fuzzing (Arbitrary, Partition).
//
// All randomized providers are deterministic for a given seed.
package adversary

import (
	"heardof/internal/core"
	"heardof/internal/xrand"
)

// Full is the fault-free environment: HO(p, r) = Π for all p, r.
type Full struct{}

// HOSets implements core.HOProvider.
func (Full) HOSets(_ core.Round, n int) []core.PIDSet {
	all := core.FullSet(n)
	out := make([]core.PIDSet, n)
	for p := range out {
		out[p] = all
	}
	return out
}

// Silence is the degenerate environment in which nothing is ever heard
// (every round is totally lossy). P_otr explicitly allows such rounds to
// occur between its witness rounds.
type Silence struct{}

// HOSets implements core.HOProvider.
func (Silence) HOSets(_ core.Round, n int) []core.PIDSet {
	return make([]core.PIDSet, n)
}

// ---------------------------------------------------------------------------
// Fault classes.
// ---------------------------------------------------------------------------

// CrashStop models the SP class (crash-stop): process p is absent from
// every heard-of set from round CrashRound[p] on. A crashed process is
// indistinguishable (at this layer) from one that receives everything and
// sends nothing, as §3.2 observes, so crashed processes keep full
// heard-of sets of the surviving senders.
type CrashStop struct {
	// CrashRound maps a victim to the first round in which its messages
	// are no longer received. Processes absent from the map never crash.
	CrashRound map[core.ProcessID]core.Round
}

// HOSets implements core.HOProvider.
func (c CrashStop) HOSets(r core.Round, n int) []core.PIDSet {
	alive := core.FullSet(n)
	for p, cr := range c.CrashRound {
		if r >= cr {
			alive = alive.Remove(p)
		}
	}
	out := make([]core.PIDSet, n)
	for p := range out {
		out[p] = alive
	}
	return out
}

// TransmissionLoss models the DT class: every (sender, receiver, round)
// transmission is independently lost with probability Rate. With Rate = 0
// it degenerates to Full.
type TransmissionLoss struct {
	Rate float64
	RNG  *xrand.Rand
}

// HOSets implements core.HOProvider.
func (t *TransmissionLoss) HOSets(_ core.Round, n int) []core.PIDSet {
	out := make([]core.PIDSet, n)
	for p := 0; p < n; p++ {
		var ho core.PIDSet
		for q := 0; q < n; q++ {
			if !t.RNG.Bool(t.Rate) {
				ho = ho.Add(core.ProcessID(q))
			}
		}
		out[p] = ho
	}
	return out
}

// SendOmission models the ST class with send-omission faults: every
// message sent by a process in Faulty is lost with probability Rate
// (uniformly for the round: an omitted send reaches nobody with
// probability Rate per destination, modelling per-message omissions).
type SendOmission struct {
	Faulty core.PIDSet
	Rate   float64
	RNG    *xrand.Rand
}

// HOSets implements core.HOProvider.
func (s *SendOmission) HOSets(_ core.Round, n int) []core.PIDSet {
	out := make([]core.PIDSet, n)
	for p := 0; p < n; p++ {
		var ho core.PIDSet
		for q := 0; q < n; q++ {
			if s.Faulty.Has(core.ProcessID(q)) && s.RNG.Bool(s.Rate) {
				continue
			}
			ho = ho.Add(core.ProcessID(q))
		}
		out[p] = ho
	}
	return out
}

// ReceiveOmission models the ST class with receive-omission faults: every
// message destined to a process in Faulty is lost with probability Rate.
type ReceiveOmission struct {
	Faulty core.PIDSet
	Rate   float64
	RNG    *xrand.Rand
}

// HOSets implements core.HOProvider.
func (s *ReceiveOmission) HOSets(_ core.Round, n int) []core.PIDSet {
	out := make([]core.PIDSet, n)
	for p := 0; p < n; p++ {
		var ho core.PIDSet
		for q := 0; q < n; q++ {
			if s.Faulty.Has(core.ProcessID(p)) && s.RNG.Bool(s.Rate) {
				continue
			}
			ho = ho.Add(core.ProcessID(q))
		}
		out[p] = ho
	}
	return out
}

// ---------------------------------------------------------------------------
// Adversarial providers (safety fuzzing).
// ---------------------------------------------------------------------------

// Arbitrary draws every heard-of set independently and uniformly from all
// subsets of Π (optionally biased towards empty sets). The OneThirdRule
// safety properties must survive any such run.
type Arbitrary struct {
	RNG *xrand.Rand
	// EmptyBias, if positive, replaces each set with ∅ with this
	// probability, exercising totally lossy rounds.
	EmptyBias float64
}

// HOSets implements core.HOProvider.
func (a *Arbitrary) HOSets(_ core.Round, n int) []core.PIDSet {
	out := make([]core.PIDSet, n)
	for p := 0; p < n; p++ {
		if a.RNG.Bool(a.EmptyBias) {
			out[p] = core.EmptySet
			continue
		}
		out[p] = core.PIDSet(a.RNG.Uint64()) & core.FullSet(n)
	}
	return out
}

// Partition splits Π into groups; every process hears exactly its own
// group, forever. No group of size ≤ 2n/3 can decide under OneThirdRule,
// and no two groups can decide differently regardless of size.
type Partition struct {
	Groups []core.PIDSet
}

// HOSets implements core.HOProvider.
func (pa Partition) HOSets(_ core.Round, n int) []core.PIDSet {
	out := make([]core.PIDSet, n)
	for p := 0; p < n; p++ {
		for _, g := range pa.Groups {
			if g.Has(core.ProcessID(p)) {
				out[p] = g
				break
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Scripted / predicate-realizing providers.
// ---------------------------------------------------------------------------

// Scripted replays an explicit per-round script; rounds beyond the script
// fall through to Then (or Full if Then is nil).
type Scripted struct {
	Rounds [][]core.PIDSet
	Then   core.HOProvider
}

// HOSets implements core.HOProvider.
func (s Scripted) HOSets(r core.Round, n int) []core.PIDSet {
	if int(r) <= len(s.Rounds) {
		return s.Rounds[r-1]
	}
	then := s.Then
	if then == nil {
		then = Full{}
	}
	return then.HOSets(r, n)
}

// ScriptedPotr realizes P_otr: before round R0 it behaves like Before (an
// arbitrary bad period; defaults to heavy loss); at round R0 every process
// hears exactly Pi0; after R0 every process hears Pi0 every round (so
// every process has its r_p). Pi0 must satisfy |Pi0| > 2n/3 for P_otr to
// hold; the provider does not check this.
type ScriptedPotr struct {
	R0     core.Round
	Pi0    core.PIDSet
	Before core.HOProvider
}

// HOSets implements core.HOProvider.
func (s ScriptedPotr) HOSets(r core.Round, n int) []core.PIDSet {
	switch {
	case r < s.R0:
		before := s.Before
		if before == nil {
			before = Silence{}
		}
		return before.HOSets(r, n)
	default:
		out := make([]core.PIDSet, n)
		for p := range out {
			out[p] = s.Pi0
		}
		return out
	}
}

// SpaceUniformRounds makes rounds [From, To] space-uniform for Pi0
// (members of Pi0 hear exactly Pi0, everyone else hears nothing) and
// delegates all other rounds to Else (default Silence).
type SpaceUniformRounds struct {
	Pi0      core.PIDSet
	From, To core.Round
	Else     core.HOProvider
}

// HOSets implements core.HOProvider.
func (s SpaceUniformRounds) HOSets(r core.Round, n int) []core.PIDSet {
	if r >= s.From && r <= s.To {
		out := make([]core.PIDSet, n)
		for p := 0; p < n; p++ {
			if s.Pi0.Has(core.ProcessID(p)) {
				out[p] = s.Pi0
			}
		}
		return out
	}
	el := s.Else
	if el == nil {
		el = Silence{}
	}
	return el.HOSets(r, n)
}

// KernelRounds makes rounds [From, To] satisfy P_k(Pi0, From, To): members
// of Pi0 hear Pi0 plus a random extra subset; everyone else hears a random
// set. Other rounds delegate to Else (default Silence).
type KernelRounds struct {
	Pi0      core.PIDSet
	From, To core.Round
	RNG      *xrand.Rand
	Else     core.HOProvider
}

// HOSets implements core.HOProvider.
func (k KernelRounds) HOSets(r core.Round, n int) []core.PIDSet {
	if r >= k.From && r <= k.To {
		out := make([]core.PIDSet, n)
		for p := 0; p < n; p++ {
			extra := core.PIDSet(k.RNG.Uint64()) & core.FullSet(n)
			if k.Pi0.Has(core.ProcessID(p)) {
				out[p] = k.Pi0.Union(extra)
			} else {
				out[p] = extra
			}
		}
		return out
	}
	el := k.Else
	if el == nil {
		el = Silence{}
	}
	return el.HOSets(r, n)
}

// GoodBad alternates bad and good phases at the HO layer: rounds in a bad
// phase use heavy random loss; rounds in a good phase are space-uniform
// for Pi0. Phases have fixed lengths, starting with a bad phase.
type GoodBad struct {
	Pi0       core.PIDSet
	BadLen    core.Round
	GoodLen   core.Round
	BadLoss   float64
	RNG       *xrand.Rand
	badPhase  *TransmissionLoss
	goodCache []core.PIDSet
}

// HOSets implements core.HOProvider.
func (g *GoodBad) HOSets(r core.Round, n int) []core.PIDSet {
	cycle := g.BadLen + g.GoodLen
	if cycle <= 0 {
		return Full{}.HOSets(r, n)
	}
	pos := (r - 1) % cycle
	if pos < g.BadLen {
		if g.badPhase == nil {
			g.badPhase = &TransmissionLoss{Rate: g.BadLoss, RNG: g.RNG}
		}
		return g.badPhase.HOSets(r, n)
	}
	if g.goodCache == nil {
		g.goodCache = make([]core.PIDSet, n)
		for p := 0; p < n; p++ {
			if g.Pi0.Has(core.ProcessID(p)) {
				g.goodCache[p] = g.Pi0
			}
		}
	}
	out := make([]core.PIDSet, n)
	copy(out, g.goodCache)
	return out
}

// RotatingCrash is a crash-recovery schedule over rounds: in every
// Epoch-round epoch one rotating process is cut off — it hears nobody
// and nobody hears it — for the first half, and recovers with its state
// intact for the second. At most one process is down at a time, so a
// >2n/3-quorum algorithm keeps deciding for n ≥ 4.
type RotatingCrash struct {
	Epoch core.Round
}

// HOSets implements core.HOProvider.
func (c RotatingCrash) HOSets(r core.Round, n int) []core.PIDSet {
	out := Full{}.HOSets(r, n)
	if c.Epoch < 2 {
		return out
	}
	epoch, phase := (r-1)/c.Epoch, (r-1)%c.Epoch
	if phase >= c.Epoch/2 {
		return out
	}
	victim := core.ProcessID(int(epoch) % n)
	for p := range out {
		out[p] = out[p].Remove(victim)
	}
	out[victim] = 0
	return out
}
