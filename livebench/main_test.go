package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"heardof/internal/live"
)

func TestCheckerFlagsStaleRead(t *testing.T) {
	c := newChecker([]string{"a", "b"})
	c.get(0, "", false, nil) // never written: not found is right
	c.put(0, "v1", nil)
	c.put(0, "v2", nil)
	c.get(0, "v2", true, nil)
	if n, _ := c.failures(); n != 0 {
		t.Fatalf("%d violations on a correct history", n)
	}

	c.get(0, "v1", true, nil) // injected stale read
	c.get(1, "x", true, nil)  // a value nobody wrote
	c.get(0, "", false, nil)  // an acknowledged write lost
	if n, msgs := c.failures(); n != 3 {
		t.Fatalf("got %d violations (%v), want 3", n, msgs)
	}

	// A failed PUT may or may not have committed: the key is unchecked
	// until the next acknowledged PUT.
	c = newChecker([]string{"a"})
	c.put(0, "v1", nil)
	c.put(0, "v2", os.ErrDeadlineExceeded)
	c.get(0, "v1", true, nil)
	c.get(0, "v2", true, nil)
	c.put(0, "v3", nil)
	c.get(0, "v2", true, nil)
	if n, _ := c.failures(); n != 1 {
		t.Fatalf("got %d violations, want 1 (only the read after v3 was acknowledged)", n)
	}
}

func TestCompareViewsFlagsLogMismatch(t *testing.T) {
	same := func() [][]groupView {
		v := []groupView{{logLen: 10, logHash: 0xabc, fingerprint: "k=v;"}, {logLen: 4, logHash: 0xdef}}
		return [][]groupView{v, append([]groupView(nil), v...), append([]groupView(nil), v...)}
	}
	if settled, err := compareViews(same()); !settled || err != nil {
		t.Fatalf("equal views: settled=%v err=%v", settled, err)
	}

	lagging := same()
	lagging[2][0].logLen, lagging[2][0].logHash = 9, 0x123
	if settled, err := compareViews(lagging); settled || err != nil {
		t.Fatalf("lagging node: settled=%v err=%v, want unsettled without error", settled, err)
	}

	mismatch := same()
	mismatch[1][1].logHash = 0x999 // injected: same length, different log
	if _, err := compareViews(mismatch); err == nil {
		t.Fatal("log mismatch at equal length not flagged")
	}

	divergent := same()
	divergent[2][0].divergent = 1
	if _, err := compareViews(divergent); err == nil {
		t.Fatal("divergent decision not flagged")
	}

	state := same()
	state[1][0].fingerprint = "k=w;"
	if settled, _ := compareViews(state); settled {
		t.Fatal("state fingerprint mismatch reported as settled")
	}
}

func TestWireSizeMatchesEncoding(t *testing.T) {
	for _, env := range []live.Envelope{
		{Group: 1, Slot: 7, Round: 3, Kind: live.KindRound, Payload: []byte("abc")},
		{Group: 300, Slot: 1 << 40, Round: 200, Kind: live.KindSync, Payload: make([]byte, 1000)},
		{Kind: live.KindBatchPull},
	} {
		env.From = 2
		if got, want := wireSize(env, 2), 4+len(live.AppendEnvelope(nil, env)); got != want {
			t.Errorf("wireSize(%+v) = %d, want %d", env, got, want)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h histogram
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 1000e3
		if got := h.quantile(q); got < want*0.93 || got > want*1.07 {
			t.Errorf("q%v = %v ns, want within 7%% of %v", q, got, want)
		}
	}
}

func TestSteadyLeavesOutStolenWindows(t *testing.T) {
	win := func(steal int64) window { return window{use: usage{ticks: 1000, steal: steal}} }
	if got := steady([]window{win(0), win(50), win(20), win(5)}); len(got) != 3 {
		t.Fatalf("kept %d windows, want the 3 with at most 2%% steal", len(got))
	}
	if got := steady([]window{win(0), win(50), win(60), win(70)}); len(got) != 4 {
		t.Fatalf("kept %d windows, want all 4 when most were disturbed", len(got))
	}
}

func TestInputsFollowSeed(t *testing.T) {
	a, b := genSessions(5, 1, 4, 40, 0), genSessions(5, 1, 4, 40, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different inputs")
	}
	if reflect.DeepEqual(a, genSessions(6, 1, 4, 40, 0)) {
		t.Fatal("different seeds gave the same inputs")
	}
}

// TestShortRunPrintsEveryMetric runs each workload briefly, untraced and
// traced, and checks every named metric is printed with its unit.
func TestShortRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up live clusters")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", trace,
					"--ops", "320", "--min-windows", "2", "--out", t.TempDir()}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(defs) {
					t.Fatalf("result %+v", res)
				}
				for _, m := range defs {
					if got := res.Metrics[m.name]; got.Unit != m.unit {
						t.Errorf("%s: unit %q, want %q", m.name, got.Unit, m.unit)
					}
					if !strings.Contains(out.String(), "\n"+m.name+" ") {
						t.Errorf("%s not printed by name", m.name)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the runs
// are judged by, in step with the metrics and workloads defined here
// (it gates a subset of the workloads).
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, sw := range spec.Workloads {
		w, err := workloadByName(sw.Name)
		if err != nil || sw.Why != w.why {
			t.Errorf("BENCHMARK.json workload %+v does not match %q: %q (%v)", sw, w.name, w.why, err)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i] != (metric{m.name, m.unit, m.better}) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, here %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
