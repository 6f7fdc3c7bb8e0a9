package rsm_test

import (
	"errors"
	"fmt"
	"testing"

	"heardof/internal/adversary"
	"heardof/internal/core"
	"heardof/internal/kvstore"
	"heardof/internal/lastvoting"
	"heardof/internal/live"
	"heardof/internal/otr"
	"heardof/internal/rsm"
	"heardof/internal/xrand"
)

type cmd = kvstore.Command

// logs records every replica's applied commands so tests can check
// convergence and exactly-once application.
type logs [][]string

func (l logs) apply(p int, e live.Entry[cmd]) {
	l[p] = append(l[p], fmt.Sprintf("%d/%d:%s", e.Client, e.Seq, e.Cmd.Value))
}

func (l logs) converged() bool {
	for _, lg := range l[1:] {
		if fmt.Sprint(lg) != fmt.Sprint(l[0]) {
			return false
		}
	}
	return true
}

func (l logs) firstDuplicate() (string, bool) {
	seen := make(map[string]bool)
	for _, c := range l[0] {
		if seen[c] {
			return c, true
		}
		seen[c] = true
	}
	return "", false
}

func coreConfig(n, maxBatch int) live.CoreConfig[cmd] {
	return live.CoreConfig[cmd]{N: n, Algorithm: otr.Algorithm{}, Msg: otr.WireCodec{}, Batch: kvstore.Codec{}, MaxBatch: maxBatch}
}

func newGroup(t testing.TB, cfg live.CoreConfig[cmd], env core.HOProvider) (*rsm.Group[cmd], logs) {
	t.Helper()
	l := make(logs, cfg.N)
	g, err := rsm.NewGroup(cfg, env, l.apply)
	if err != nil {
		t.Fatal(err)
	}
	return g, l
}

func put(v string) cmd { return cmd{Op: kvstore.OpPut, Key: "k", Value: v} }

func settle(t *testing.T, g *rsm.Group[cmd], budget int) {
	t.Helper()
	if err := rsm.Settle([]*rsm.Group[cmd]{g}, budget); err != nil {
		t.Fatal(err)
	}
}

func TestBatchAmortization(t *testing.T) {
	// M commands queued at one contact drain in ≤ ⌈M/B⌉ + 1 slots: each
	// slot decides a whole batch, not one command.
	for _, tc := range []struct{ m, b int }{{200, 64}, {100, 10}, {64, 63}, {5, 1}} {
		g, l := newGroup(t, coreConfig(4, tc.b), adversary.Full{})
		for i := 0; i < tc.m; i++ {
			if _, err := g.SubmitNext(0, 1, put(fmt.Sprint(i))); err != nil {
				t.Fatal(err)
			}
		}
		settle(t, g, 4*tc.m)
		st := g.Stats()
		if st.Committed != tc.m || len(l[0]) != tc.m {
			t.Fatalf("M=%d B=%d: committed %d", tc.m, tc.b, st.Committed)
		}
		if bound := (tc.m+tc.b-1)/tc.b + 1; st.Slots > uint64(bound) {
			t.Errorf("M=%d B=%d: used %d slots, want ≤ ⌈M/B⌉+1 = %d", tc.m, tc.b, st.Slots, bound)
		}
		if !l.converged() {
			t.Errorf("M=%d B=%d: replicas diverged", tc.m, tc.b)
		}
	}
}

func TestSessionDedupExactlyOnce(t *testing.T) {
	g, l := newGroup(t, coreConfig(3, 0), adversary.Full{})
	if dup, err := g.Submit(0, 7, 1, put("x")); err != nil || dup {
		t.Fatalf("first submit: dup=%v err=%v", dup, err)
	}
	// A retry before the command commits joins the pending one.
	if dup, err := g.Submit(0, 7, 1, put("x")); err != nil || dup {
		t.Fatalf("pending retry: dup=%v err=%v", dup, err)
	}
	settle(t, g, 20)
	// A retry after the command committed is a duplicate.
	if dup, err := g.Submit(0, 7, 1, put("x")); err != nil || !dup {
		t.Fatalf("post-commit retry: dup=%v err=%v", dup, err)
	}
	settle(t, g, 20)
	for p, lg := range l {
		if len(lg) != 1 {
			t.Errorf("replica %d applied the command %d times, want exactly once", p, len(lg))
		}
	}
	if c := g.Core(0); !c.SeqApplied(7, 1) || c.SeqApplied(7, 2) {
		t.Error("SeqApplied disagrees with the applied sequence")
	}
	if _, err := g.Submit(0, 7, 0, put("bad")); err == nil {
		t.Error("sequence 0 accepted")
	}
	if _, err := g.Submit(3, 7, 2, put("bad")); err == nil {
		t.Error("replica 3 of 3 accepted")
	}
}

func TestExactlyOnceAcrossContacts(t *testing.T) {
	// One (client, seq) submitted to two replicas — a client that timed
	// out and retried elsewhere — applies once, under loss too.
	for _, env := range []core.HOProvider{adversary.Full{}, &adversary.TransmissionLoss{Rate: 0.2, RNG: xrand.New(3)}} {
		g, l := newGroup(t, coreConfig(5, 0), env)
		if _, err := g.Submit(1, 9, 1, put("once")); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Submit(3, 9, 1, put("once")); err != nil {
			t.Fatal(err)
		}
		settle(t, g, 500)
		for p, lg := range l {
			if len(lg) != 1 {
				t.Errorf("%T: replica %d applied %v, want the command exactly once", env, p, lg)
			}
		}
		if got := len(g.Latencies()); got != 2 {
			t.Errorf("%T: %d contact latencies, want one per contact", env, got)
		}
	}
}

func TestSubmitNextAutoSession(t *testing.T) {
	g, l := newGroup(t, coreConfig(3, 0), adversary.Full{})
	next := func(want uint64) {
		t.Helper()
		if seq, err := g.SubmitNext(0, 4, put("a")); err != nil || seq != want {
			t.Errorf("SubmitNext = %d, %v; want %d", seq, err, want)
		}
	}
	next(1)
	next(2)
	// SubmitNext advances past explicitly submitted sequences too.
	if _, err := g.Submit(0, 4, 10, put("c")); err != nil {
		t.Fatal(err)
	}
	next(11)
	settle(t, g, 20)
	if got := len(l[0]); got != 4 {
		t.Errorf("applied %d commands, want 4", got)
	}
}

// submitRetried submits cmds commands round-robin over the contacts,
// each retried once at the next contact. Every command is its own client
// session: high-water-mark dedup assumes a client's next sequence number
// waits for the previous one to apply, as the closed loop does.
func submitRetried(t *testing.T, g *rsm.Group[cmd], cmds int) {
	t.Helper()
	for i := 0; i < cmds; i++ {
		for _, p := range []int{i % g.N(), (i + 1) % g.N()} {
			if _, err := g.Submit(p, uint64(i), 1, put(fmt.Sprint(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestConvergenceAndExactlyOnceUnderLoss(t *testing.T) {
	g, l := newGroup(t, coreConfig(5, 8), &adversary.TransmissionLoss{Rate: 0.2, RNG: xrand.New(17)})
	const cmds = 60
	submitRetried(t, g, cmds)
	settle(t, g, 3000)
	if st := g.Stats(); st.Committed != cmds || st.Divergent != 0 {
		t.Errorf("committed %d of %d, divergent %d", st.Committed, cmds, st.Divergent)
	}
	if !l.converged() {
		t.Error("replicas diverged under loss")
	}
	if dup, has := l.firstDuplicate(); has {
		t.Errorf("command %q applied twice", dup)
	}
}

func TestConvergenceAndExactlyOnceUnderCrashRecovery(t *testing.T) {
	g, l := newGroup(t, coreConfig(5, 4), adversary.RotatingCrash{Epoch: 20})
	const cmds = 56
	submitRetried(t, g, cmds)
	settle(t, g, 3000)
	if st := g.Stats(); st.Committed != cmds || st.Divergent != 0 {
		t.Errorf("committed %d of %d, divergent %d", st.Committed, cmds, st.Divergent)
	}
	if !l.converged() {
		t.Error("replicas diverged across crash-recovery epochs")
	}
	if dup, has := l.firstDuplicate(); has {
		t.Errorf("command %q applied twice", dup)
	}
}

func TestDrainBudgetExhaustedKeepsSentinel(t *testing.T) {
	g, _ := newGroup(t, coreConfig(3, 1), adversary.Full{})
	for i := 0; i < 5; i++ {
		if _, err := g.SubmitNext(0, 1, put("x")); err != nil {
			t.Fatal(err)
		}
	}
	err := rsm.Settle([]*rsm.Group[cmd]{g}, 2)
	if !errors.Is(err, rsm.ErrTickBudget) {
		t.Fatalf("error = %v, want ErrTickBudget", err)
	}
	if st := g.Stats(); st.Committed >= 5 {
		t.Errorf("committed %d of 5 in 2 ticks", st.Committed)
	}
}

func TestDrainBudgetIsAHardLaunchBound(t *testing.T) {
	// The tick budget is a hard bound: a group that can never decide
	// stops after exactly the budget.
	g, _ := newGroup(t, coreConfig(3, 0), adversary.Silence{})
	if _, err := g.SubmitNext(0, 1, put("x")); err != nil {
		t.Fatal(err)
	}
	if err := rsm.Settle([]*rsm.Group[cmd]{g}, 7); !errors.Is(err, rsm.ErrTickBudget) {
		t.Fatalf("error = %v, want ErrTickBudget", err)
	}
	if st := g.Stats(); st.Ticks != 7 || st.Slots != 0 {
		t.Errorf("ticks %d slots %d, want 7 and 0", st.Ticks, st.Slots)
	}
}

func TestLatencyAccounting(t *testing.T) {
	// A command submitted at tick 0 under good rounds is decided by OTR
	// in two rounds: latency 2 ticks at its contact.
	g, _ := newGroup(t, coreConfig(3, 0), adversary.Full{})
	for p := 0; p < 2; p++ {
		if _, err := g.SubmitNext(p, uint64(p), put("x")); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, g, 20)
	lats := g.Latencies()
	if len(lats) != 2 {
		t.Fatalf("latencies = %v, want 2 entries", lats)
	}
	for _, lat := range lats {
		if lat < 2 {
			t.Errorf("latency %d < 2 ticks", lat)
		}
	}
	if g.Stats().Ticks < 2 {
		t.Error("clock did not advance")
	}
}

func TestNewValidation(t *testing.T) {
	bad := []live.CoreConfig[cmd]{
		coreConfig(0, 0),
		{N: 3, Msg: otr.WireCodec{}, Batch: kvstore.Codec{}},
		{N: 3, Algorithm: otr.Algorithm{}, Batch: kvstore.Codec{}},
		{N: 3, Algorithm: otr.Algorithm{}, Msg: otr.WireCodec{}},
	}
	for i, cfg := range bad {
		if _, err := rsm.NewGroup(cfg, adversary.Full{}, nil); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := rsm.NewGroup(coreConfig(3, 0), nil, nil); err == nil {
		t.Error("nil provider accepted")
	}
}

func TestConvergesUnderEveryEnvironment(t *testing.T) {
	lv := live.CoreConfig[cmd]{N: 3, Algorithm: lastvoting.Algorithm{}, Msg: lastvoting.WireCodec{}, Batch: kvstore.Codec{}}
	for _, tc := range []struct {
		name string
		cfg  live.CoreConfig[cmd]
		env  core.HOProvider
	}{
		{"good", coreConfig(5, 8), adversary.Full{}},
		{"loss 20%", coreConfig(5, 8), &adversary.TransmissionLoss{Rate: 0.2, RNG: xrand.New(8)}},
		{"crash-recovery", coreConfig(5, 8), adversary.RotatingCrash{Epoch: 20}},
		{"lastvoting loss 10%", lv, &adversary.TransmissionLoss{Rate: 0.1, RNG: xrand.New(8)}},
	} {
		g, l := newGroup(t, tc.cfg, tc.env)
		submitRetried(t, g, 40)
		settle(t, g, 3000)
		if st := g.Stats(); st.Committed != 40 || st.Divergent != 0 {
			t.Errorf("%s: committed %d of 40, divergent %d", tc.name, st.Committed, st.Divergent)
		}
		if !g.Settled() || !l.converged() {
			t.Errorf("%s: replicas did not converge", tc.name)
		}
	}
}
