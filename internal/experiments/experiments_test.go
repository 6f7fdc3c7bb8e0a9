package experiments

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
)

func col(t *testing.T, tbl *Table, name string) int {
	t.Helper()
	for i, h := range tbl.Header {
		if h == name {
			return i
		}
	}
	t.Fatalf("table %s has no column %q (header %v)", tbl.ID, name, tbl.Header)
	return -1
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("not a float: %q", s)
	}
	return v
}

func TestE1RatiosBounded(t *testing.T) {
	tbl := E1Theorem3(1)
	if len(tbl.Rows) == 0 {
		t.Fatal("E1 produced no rows")
	}
	ratio := col(t, tbl, "ratio")
	for _, row := range tbl.Rows {
		if r := parseF(t, row[ratio]); r > 1.0+1e-9 {
			t.Errorf("E1 row %v: ratio %v exceeds 1 (bound violated)", row, r)
		}
	}
}

func TestE2TradeOffDirection(t *testing.T) {
	tbl := E2Corollary4(1)
	p2 := col(t, tbl, "P2otr bound")
	p11 := col(t, tbl, "P11otr bound (each)")
	twice := col(t, tbl, "2×P11otr")
	for _, row := range tbl.Rows {
		b2, b11, b22 := parseF(t, row[p2]), parseF(t, row[p11]), parseF(t, row[twice])
		if !(b11 < b2 && b2 < b22) {
			t.Errorf("trade-off direction broken: p11=%v p2=%v 2·p11=%v", b11, b2, b22)
		}
	}
}

func TestE3BoundRatioIsThreeHalves(t *testing.T) {
	tbl := E3InitialVsNonInitial(1)
	ratio := col(t, tbl, "bound ratio")
	for _, row := range tbl.Rows {
		r := parseF(t, row[ratio])
		if r < 1.5 || r > 1.75 {
			t.Errorf("bound ratio %v outside [1.5, 1.75] in row %v", r, row)
		}
	}
}

func TestE4E5RatiosBounded(t *testing.T) {
	for _, tbl := range []*Table{E4Theorem6(1), E5Theorem7(1)} {
		if len(tbl.Rows) == 0 {
			t.Fatalf("%s produced no rows", tbl.ID)
		}
		ratio := col(t, tbl, "ratio")
		for _, row := range tbl.Rows {
			if r := parseF(t, row[ratio]); r > 1.0+1e-9 {
				t.Errorf("%s row %v: ratio %v exceeds 1", tbl.ID, row, r)
			}
		}
	}
}

func TestE6DownRowsRespectBound(t *testing.T) {
	tbl := E6FullStack(1)
	mode := col(t, tbl, "outsiders")
	ratio := col(t, tbl, "ratio")
	downRows := 0
	for _, row := range tbl.Rows {
		if row[mode] != "down" {
			continue
		}
		downRows++
		if r := parseF(t, row[ratio]); r > 1.0+1e-9 {
			t.Errorf("E6 down row %v: ratio %v exceeds bound", row, r)
		}
	}
	if downRows == 0 {
		t.Error("E6 produced no outsiders-down rows")
	}
}

func TestE7ZeroViolationsFullLiveness(t *testing.T) {
	tbl := E7SafetyAndLiveness(1)
	viol := col(t, tbl, "safety violations")
	runs := col(t, tbl, "runs")
	live := col(t, tbl, "liveness successes")
	for _, row := range tbl.Rows {
		if row[viol] != "0" {
			t.Errorf("row %v: safety violations %s", row, row[viol])
		}
		if row[live] == "n/a" {
			continue
		}
		if row[live] != row[runs] {
			t.Errorf("row %v: liveness %s of %s runs", row, row[live], row[runs])
		}
	}
}

func TestE8ShowsTheGap(t *testing.T) {
	tbl := E8Uniformity(1)
	system := col(t, tbl, "system")
	model := col(t, tbl, "fault model")
	decide := col(t, tbl, "all decide")
	var hoCS, hoCR, ctCR, acrCR string
	for _, row := range tbl.Rows {
		switch {
		case strings.HasPrefix(row[system], "HO") && strings.Contains(row[model], "crash-stop"):
			hoCS = row[decide]
		case strings.HasPrefix(row[system], "HO") && strings.Contains(row[model], "crash-recovery"):
			hoCR = row[decide]
		case strings.HasPrefix(row[system], "Chandra") && strings.Contains(row[model], "crash-recovery"):
			ctCR = row[decide]
		case strings.HasPrefix(row[system], "Aguilera"):
			acrCR = row[decide]
		}
	}
	if hoCS != "true" || hoCR != "true" {
		t.Errorf("HO stack rows: crash-stop=%s crash-recovery=%s, want true/true", hoCS, hoCR)
	}
	if ctCR != "false" {
		t.Errorf("CT crash-recovery = %s, want false (naive reboot blocks)", ctCR)
	}
	if acrCR != "true" {
		t.Errorf("ACR crash-recovery = %s, want true", acrCR)
	}
}

func TestE9HOAlwaysDecides(t *testing.T) {
	tbl := E9LossSweep(1)
	ho := col(t, tbl, "HO stack decided")
	ct := col(t, tbl, "CT-◇S decided")
	loss := col(t, tbl, "loss")
	var ctAtMaxLoss, runsTotal int
	for _, row := range tbl.Rows {
		parts := strings.Split(row[ho], "/")
		if len(parts) != 2 || parts[0] != parts[1] {
			t.Errorf("loss %s: HO decided %s, want all", row[loss], row[ho])
		}
		ctParts := strings.Split(row[ct], "/")
		n, _ := strconv.Atoi(ctParts[0])
		runsTotal, _ = strconv.Atoi(ctParts[1])
		if parseF(t, row[loss]) >= 0.39 {
			ctAtMaxLoss = n
		}
	}
	if ctAtMaxLoss >= runsTotal {
		t.Errorf("CT decided %d/%d at 40%% loss; expected the footnote-2 collapse", ctAtMaxLoss, runsTotal)
	}
}

func TestE10AmortizationAcrossEnvironments(t *testing.T) {
	tbl := E10Service(1)
	if len(tbl.Rows) != 4 {
		t.Fatalf("E10 has %d rows, want 4 (notes: %v)", len(tbl.Rows), tbl.Notes)
	}
	cmds := col(t, tbl, "cmds")
	spc := col(t, tbl, "slots/cmd")
	tput := col(t, tbl, "cmds/round")
	for _, row := range tbl.Rows {
		if row[cmds] != "150" {
			t.Errorf("row %v: completed %s of 150", row, row[cmds])
		}
		if v := parseF(t, row[spc]); v >= 1 {
			t.Errorf("row %v: slots/cmd %v — batching must amortize below the old 1.0", row, v)
		}
		if v := parseF(t, row[tput]); v <= 0 {
			t.Errorf("row %v: throughput %v", row, v)
		}
	}
}

// TestE10DeterministicAcrossParallel is the workload half of this repo's
// determinism contract: the E10 table is byte-identical whether the sweep
// runs its cells on one worker or eight.
func TestE10DeterministicAcrossParallel(t *testing.T) {
	render := func(parallel int) string {
		tbl := New(Config{Seed: 1, Parallel: parallel}).E10Service(context.Background())
		var buf bytes.Buffer
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Errorf("E10 output differs between -parallel 1 and 8:\n%s\nvs\n%s", seq, par)
	}
}

func TestE11ScalingShape(t *testing.T) {
	tbl := E11Sharding(1)
	if len(tbl.Rows) != 8 {
		t.Fatalf("E11 has %d rows, want 8 (notes: %v)", len(tbl.Rows), tbl.Notes)
	}
	shards := col(t, tbl, "shards")
	dist := col(t, tbl, "dist")
	cmds := col(t, tbl, "cmds")
	tput := col(t, tbl, "cmds/round")
	hot := col(t, tbl, "hot-shard cmds")
	// cmds/round per (dist) keyed by shard count, to check scaling.
	uniform := map[string]float64{}
	for _, row := range tbl.Rows {
		// Weak scaling: 120 commands per shard.
		s := int(parseF(t, row[shards]))
		if want := strconv.Itoa(120 * s); row[cmds] != want {
			t.Errorf("row %v: completed %s of %s", row, row[cmds], want)
		}
		if v := parseF(t, row[tput]); v <= 0 {
			t.Errorf("row %v: throughput %v", row, v)
		}
		h, c := parseF(t, row[hot]), parseF(t, row[cmds])
		if h > c {
			t.Errorf("row %v: hot-shard cmds %v above total %v", row, h, c)
		}
		if row[dist] == "uniform" {
			uniform[row[shards]] = parseF(t, row[tput])
		}
	}
	// Uniform load over more shards must raise aggregate throughput:
	// S=8 over S=1 is the headline scaling claim of the sharded layer.
	if !(uniform["8"] > uniform["1"]) {
		t.Errorf("uniform cmds/round did not scale: S=1 %v vs S=8 %v", uniform["1"], uniform["8"])
	}
}

// TestE11DeterministicAcrossParallel extends the determinism contract to
// the sharded table: its bytes are identical whether the sweep runs its
// cells on one worker or eight.
func TestE11DeterministicAcrossParallel(t *testing.T) {
	render := func(parallel int) string {
		tbl := New(Config{Seed: 1, Parallel: parallel}).E11Sharding(context.Background())
		var buf bytes.Buffer
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Errorf("E11 output differs between -parallel 1 and 8:\n%s\nvs\n%s", seq, par)
	}
}

func TestAblationTableShape(t *testing.T) {
	tbl := Ablations(1)
	if len(tbl.Rows) != 3 {
		t.Fatalf("ablation table has %d rows, want 3 (notes: %v)", len(tbl.Rows), tbl.Notes)
	}
	effect := col(t, tbl, "effect")
	broken := false
	for _, row := range tbl.Rows {
		if strings.Contains(row[effect], "broken") {
			broken = true
		}
	}
	if !broken {
		t.Error("expected the INIT-quorum ablation to break the predicate")
	}
}

func TestRenderAndMarkdown(t *testing.T) {
	tbl := &Table{
		ID:     "T",
		Title:  "test",
		Header: []string{"a", "b"},
		Notes:  []string{"a note"},
	}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("x", "y")

	var text bytes.Buffer
	if err := tbl.Render(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "== T: test ==") ||
		!strings.Contains(text.String(), "2.50") ||
		!strings.Contains(text.String(), "note: a note") {
		t.Errorf("render output:\n%s", text.String())
	}

	var md bytes.Buffer
	if err := tbl.Markdown(&md); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "| a | b |") || !strings.Contains(md.String(), "| --- | --- |") {
		t.Errorf("markdown output:\n%s", md.String())
	}
}

func TestAllProducesEveryTable(t *testing.T) {
	tables := All(1)
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "EA"}
	if len(tables) != len(want) {
		t.Fatalf("All returned %d tables, want %d", len(tables), len(want))
	}
	for i, tbl := range tables {
		if tbl.ID != want[i] {
			t.Errorf("table %d is %s, want %s", i, tbl.ID, want[i])
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("table %s is empty", tbl.ID)
		}
	}
	var buf bytes.Buffer
	if err := RenderAll(&buf, tables); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("RenderAll produced no output")
	}
}
