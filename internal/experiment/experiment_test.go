package experiment

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	mercury "github.com/recursive-restart/mercury"
)

// trials is kept small in unit tests; the benchmarks and cmd/rrbench run
// the paper's full 100.
const trials = 5

func TestRunCellTreeII(t *testing.T) {
	s, err := RunCell(context.Background(), Cell{
		Tree: "II", Policy: mercury.PolicyPerfect, Component: "rtu",
	}, RunConfig{Trials: trials, BaseSeed: 1000})
	if err != nil {
		t.Fatalf("RunCell: %v", err)
	}
	if s.N() != trials {
		t.Fatalf("N = %d", s.N())
	}
	mean := s.MeanSeconds()
	if mean < 4 || mean > 8 {
		t.Fatalf("tree II rtu mean = %.2fs, want ~5.6", mean)
	}
	// The paper's assumption: distributions with small CVs.
	if s.CV() > 0.25 {
		t.Fatalf("CV = %.3f, want small", s.CV())
	}
}

func TestTable2ShapeHolds(t *testing.T) {
	rows, err := Table2Cfg(context.Background(), RunConfig{Trials: trials, BaseSeed: 2000})
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if len(rows) != 2 || rows[0].Label != "I/perfect" || rows[1].Label != "II/perfect" {
		t.Fatalf("rows = %+v", rows)
	}
	treeI, treeII := rows[0].Cells, rows[1].Cells
	// Tree I: every component costs a whole-system restart — roughly equal
	// and high.
	for comp, s := range treeI {
		if s.MeanSeconds() < 20 || s.MeanSeconds() > 30 {
			t.Fatalf("tree I %s = %.2fs, want ~24.75", comp, s.MeanSeconds())
		}
	}
	// Tree II: every component recovers at least as fast; all but the
	// slowest strictly faster.
	faster := 0
	for comp, s2 := range treeII {
		s1 := treeI[comp]
		if s2.MeanSeconds() > s1.MeanSeconds()+1 {
			t.Fatalf("tree II %s slower than tree I: %.2f vs %.2f",
				comp, s2.MeanSeconds(), s1.MeanSeconds())
		}
		if s2.MeanSeconds() < s1.MeanSeconds()-2 {
			faster++
		}
	}
	if faster < 4 {
		t.Fatalf("only %d components recovered faster under tree II", faster)
	}
	// fedrcom stays the slow one (~21s), rtu the fast one (~5.6s).
	if treeII["fedrcom"].MeanSeconds() < 18 {
		t.Fatalf("fedrcom = %.2fs, want ~21", treeII["fedrcom"].MeanSeconds())
	}
	if treeII["rtu"].MeanSeconds() > 8 {
		t.Fatalf("rtu = %.2fs, want ~5.6", treeII["rtu"].MeanSeconds())
	}
}

func TestConsolidationShape(t *testing.T) {
	// Tree III ses ≈ 9.5s (sequential); tree IV ses ≈ 6.25s (max-based).
	s3, err := RunCell(context.Background(), Cell{Tree: "III", Policy: mercury.PolicyPerfect, Component: "ses"}, RunConfig{Trials: trials, BaseSeed: 3000})
	if err != nil {
		t.Fatal(err)
	}
	s4, err := RunCell(context.Background(), Cell{Tree: "IV", Policy: mercury.PolicyPerfect, Component: "ses"}, RunConfig{Trials: trials, BaseSeed: 3100})
	if err != nil {
		t.Fatal(err)
	}
	if s4.MeanSeconds() >= s3.MeanSeconds()-1 {
		t.Fatalf("consolidation did not help: III=%.2f IV=%.2f",
			s3.MeanSeconds(), s4.MeanSeconds())
	}
}

func TestNodePromotionShape(t *testing.T) {
	// §4.4: joint-cure pbcom faults under the 30% faulty oracle. Tree V
	// beats tree IV; with a perfect oracle tree V is no better.
	cure := []string{"fedr", "pbcom"}
	iv, err := RunCell(context.Background(), Cell{Tree: "IV", Policy: mercury.PolicyFaulty, FaultyP: FaultyP,
		Component: "pbcom", Cure: cure}, RunConfig{Trials: 10, BaseSeed: 4000})
	if err != nil {
		t.Fatal(err)
	}
	v, err := RunCell(context.Background(), Cell{Tree: "V", Policy: mercury.PolicyFaulty, FaultyP: FaultyP,
		Component: "pbcom", Cure: cure}, RunConfig{Trials: 10, BaseSeed: 4100})
	if err != nil {
		t.Fatal(err)
	}
	if v.MeanSeconds() >= iv.MeanSeconds()-1 {
		t.Fatalf("promotion did not help the faulty oracle: IV=%.2f V=%.2f",
			iv.MeanSeconds(), v.MeanSeconds())
	}
	// Tree V with faulty oracle ≈ tree IV/V with perfect oracle (joint
	// restart either way).
	vPerfect, err := RunCell(context.Background(), Cell{Tree: "V", Policy: mercury.PolicyPerfect,
		Component: "pbcom", Cure: cure}, RunConfig{Trials: trials, BaseSeed: 4200})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.MeanSeconds()-vPerfect.MeanSeconds()) > 2 {
		t.Fatalf("tree V faulty (%.2f) should match tree V perfect (%.2f)",
			v.MeanSeconds(), vPerfect.MeanSeconds())
	}
}

func TestTable1Calibration(t *testing.T) {
	res, err := Table1Cfg(context.Background(), 4000, RunConfig{BaseSeed: 5})
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(res) != len(PaperMTTF) {
		t.Fatalf("rows = %d", len(res))
	}
	for _, r := range res {
		rel := math.Abs(r.Measured.MeanSeconds()-r.Configured.Seconds()) / r.Configured.Seconds()
		if rel > 0.05 {
			t.Fatalf("%s achieved MTTF off by %.1f%%", r.Component, rel*100)
		}
		if cv := r.Measured.CV(); cv < 0.15 || cv > 0.35 {
			t.Fatalf("%s CV = %.3f, want ~0.25", r.Component, cv)
		}
	}
	out := RenderTable1(res)
	if !strings.Contains(out, "fedrcom") {
		t.Fatalf("render missing component:\n%s", out)
	}
	if _, err := Table1Cfg(context.Background(), 0, RunConfig{BaseSeed: 1}); err == nil {
		t.Fatal("zero samples accepted")
	}
}

func TestHeadlineFactor(t *testing.T) {
	// Small-trial version of the §8 computation; the shape requirement is
	// an improvement factor around 4.
	rows, err := Table4Cfg(context.Background(), RunConfig{Trials: 3, BaseSeed: 6000})
	if err != nil {
		t.Fatalf("Table4: %v", err)
	}
	h, err := Headline(rows)
	if err != nil {
		t.Fatalf("Headline: %v", err)
	}
	if h.Factor < 3.0 || h.Factor > 5.5 {
		t.Fatalf("improvement factor = %.2f, want ~4", h.Factor)
	}
	out := RenderHeadline(h)
	if !strings.Contains(out, "factor") {
		t.Fatalf("render:\n%s", out)
	}
	if _, err := Headline(nil); err == nil {
		t.Fatal("empty rows accepted")
	}
}

func TestRenderRows(t *testing.T) {
	rows, err := Table2Cfg(context.Background(), RunConfig{Trials: 2, BaseSeed: 7000})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderRows(rows, "Table 2")
	for _, want := range []string{"Table 2", "I/perfect", "II/perfect", "paper 24.75"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigures(t *testing.T) {
	out, err := Figures()
	if err != nil {
		t.Fatalf("Figures: %v", err)
	}
	for _, want := range []string{"Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6",
		"pbcom", "fedrcom"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figures missing %q", want)
		}
	}
	f1 := Figure1()
	for _, want := range []string{"mbus", "FD", "REC", "dedicated"} {
		if !strings.Contains(f1, want) {
			t.Fatalf("figure 1 missing %q", want)
		}
	}
	t3 := Table3()
	for _, want := range []string{"depth augmentation", "group consolidation", "node promotion",
		"A_cure", "f_A + f_B"} {
		if !strings.Contains(t3, want) {
			t.Fatalf("table 3 missing %q", want)
		}
	}
}

func TestCellLabel(t *testing.T) {
	if l := (Cell{Tree: "IV", Policy: mercury.PolicyFaulty}).Label(); l != "IV/faulty" {
		t.Fatalf("label = %q", l)
	}
	if l := (Cell{Tree: "II", Policy: mercury.PolicyPerfect}).Label(); l != "II/perfect" {
		t.Fatalf("label = %q", l)
	}
	if l := (Cell{Tree: "II", Policy: mercury.PolicyLearning}).Label(); l != "II/learning" {
		t.Fatalf("label = %q", l)
	}
}

func TestCureForCell(t *testing.T) {
	if c := cureForCell("IV/faulty", "pbcom"); len(c) != 2 {
		t.Fatalf("cure = %v", c)
	}
	if c := cureForCell("IV/perfect", "pbcom"); c != nil {
		t.Fatalf("cure = %v", c)
	}
	if c := cureForCell("IV/faulty", "rtu"); c != nil {
		t.Fatalf("cure = %v", c)
	}
}

func TestTable2MatchesTable4Rows(t *testing.T) {
	// Table 2 now measures only trees I and II; its rows must still be
	// identical to the corresponding Table 4 rows for the same seed.
	t2, err := Table2Cfg(context.Background(), RunConfig{Trials: 2, BaseSeed: 9000})
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	t4, err := Table4Cfg(context.Background(), RunConfig{Trials: 2, BaseSeed: 9000})
	if err != nil {
		t.Fatalf("Table4: %v", err)
	}
	if len(t2) != 2 {
		t.Fatalf("Table2 rows = %d", len(t2))
	}
	for i, row := range t2 {
		want := t4[i]
		if row.Label != want.Label {
			t.Fatalf("row %d label %q vs %q", i, row.Label, want.Label)
		}
		if len(row.Cells) != len(want.Cells) {
			t.Fatalf("row %s cell count %d vs %d", row.Label, len(row.Cells), len(want.Cells))
		}
		for comp, s := range row.Cells {
			w, ok := want.Cells[comp]
			if !ok {
				t.Fatalf("row %s: Table4 missing %s", row.Label, comp)
			}
			if s.MeanSeconds() != w.MeanSeconds() || s.N() != w.N() {
				t.Fatalf("row %s %s: Table2 %.6f/%d vs Table4 %.6f/%d",
					row.Label, comp, s.MeanSeconds(), s.N(), w.MeanSeconds(), w.N())
			}
		}
	}
}

func TestParallelCellBitIdenticalToSequential(t *testing.T) {
	cell := Cell{Tree: "IV", Policy: mercury.PolicyPerfect, Component: "ses"}
	seq, err := RunCell(context.Background(), cell, RunConfig{Trials: 6, BaseSeed: 12_000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCell(context.Background(), cell, RunConfig{Trials: 6, BaseSeed: 12_000, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	p95s, _ := seq.Percentile(95)
	p95p, _ := par.Percentile(95)
	if seq.MeanSeconds() != par.MeanSeconds() || seq.StdDev() != par.StdDev() ||
		seq.Min() != par.Min() || seq.Max() != par.Max() || p95s != p95p {
		t.Fatalf("parallel cell diverged: %v/%v/%v vs %v/%v/%v",
			seq.MeanSeconds(), seq.StdDev(), p95s, par.MeanSeconds(), par.StdDev(), p95p)
	}
}

// TestSoaksMatchesSoak: two trees soaked side by side on two workers match
// each tree soaked on its own.
func TestSoaksMatchesSoak(t *testing.T) {
	many, err := Soak(context.Background(), []string{"I", "IV"}, time.Hour, 1002, 2)
	if err != nil {
		t.Fatalf("Soak: %v", err)
	}
	for i, tree := range []string{"I", "IV"} {
		one, err := Soak(context.Background(), []string{tree}, time.Hour, 1002, 1)
		if err != nil {
			t.Fatalf("Soak %s: %v", tree, err)
		}
		if many[i].Availability != one[0].Availability || many[i].Failures != one[0].Failures {
			t.Fatalf("tree %s: parallel soak diverged: %+v vs %+v", tree, many[i], one[0])
		}
	}
}

// TestSatPassesMatchesSatPass: two trees' passes side by side on two
// workers match each tree's pass on its own.
func TestSatPassesMatchesSatPass(t *testing.T) {
	many, err := SatPass(context.Background(), []string{"I", "IV"}, 901, 2)
	if err != nil {
		t.Fatalf("SatPass: %v", err)
	}
	for i, tree := range []string{"I", "IV"} {
		one, err := satPass(tree, 901)
		if err != nil {
			t.Fatalf("SatPass %s: %v", tree, err)
		}
		if many[i].Recovery != one.Recovery || many[i].CollectedKb != one.CollectedKb {
			t.Fatalf("tree %s: parallel pass diverged", tree)
		}
	}
}

func TestDeterministicCells(t *testing.T) {
	run := func() float64 {
		s, err := RunCell(context.Background(), Cell{Tree: "IV", Policy: mercury.PolicyPerfect, Component: "str"}, RunConfig{Trials: 3, BaseSeed: 8000})
		if err != nil {
			t.Fatal(err)
		}
		return s.MeanSeconds()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different cell means: %v vs %v", a, b)
	}
}
