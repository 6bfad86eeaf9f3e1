package core_test

import (
	"math"
	"strings"
	"testing"

	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/station"
)

func mercuryTreesForAnalysis(t *testing.T) map[string]*core.Tree {
	t.Helper()
	trees, err := core.MercuryTrees(
		[]string{"mbus", "fedrcom", "ses", "str", "rtu"},
		[]string{"mbus", "fedr", "pbcom", "ses", "str", "rtu"})
	if err != nil {
		t.Fatal(err)
	}
	return trees
}

func TestAnalyticMatchesSimulationShape(t *testing.T) {
	trees := mercuryTreesForAnalysis(t)
	ap := station.AnalyticParams()

	// Single rtu fault under tree II: analytic ≈ 5.7 s (paper 5.59).
	mix := []core.FaultClass{{Manifest: "rtu", Weight: 1}}
	got, err := core.ExpectedMTTR(trees["II"], mix, ap, core.ModelPerfect, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-5.7) > 1.0 {
		t.Fatalf("analytic tree II rtu = %.2f, want ~5.7", got)
	}

	// Same fault under tree I: whole-system restart ≈ 24.75.
	got, err = core.ExpectedMTTR(trees["I"], mix, ap, core.ModelPerfect, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-24.75) > 2.0 {
		t.Fatalf("analytic tree I rtu = %.2f, want ~24.75", got)
	}
}

func TestAnalyticFaultyOracleOrdering(t *testing.T) {
	trees := mercuryTreesForAnalysis(t)
	ap := station.AnalyticParams()
	mix := []core.FaultClass{{Manifest: "pbcom", Cure: []string{"fedr", "pbcom"}, Weight: 1}}

	iv, err := core.ExpectedMTTR(trees["IV"], mix, ap, core.ModelFaulty, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.ExpectedMTTR(trees["V"], mix, ap, core.ModelFaulty, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	ivPerfect, err := core.ExpectedMTTR(trees["IV"], mix, ap, core.ModelPerfect, 0)
	if err != nil {
		t.Fatal(err)
	}
	vPerfect, err := core.ExpectedMTTR(trees["V"], mix, ap, core.ModelPerfect, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: IV faulty 29.19 > V faulty 21.63; with a perfect oracle V has
	// no advantage.
	if v >= iv {
		t.Fatalf("promotion did not help analytically: IV=%.2f V=%.2f", iv, v)
	}
	if math.Abs(iv-29.19) > 3 {
		t.Fatalf("analytic IV faulty = %.2f, paper 29.19", iv)
	}
	if vPerfect < ivPerfect-1e-9 {
		t.Fatalf("tree V should not beat IV under a perfect oracle: %.2f vs %.2f",
			vPerfect, ivPerfect)
	}
}

func TestAnalyticEscalatingCorrelatedPair(t *testing.T) {
	trees := mercuryTreesForAnalysis(t)
	ap := station.AnalyticParams()
	mix := []core.FaultClass{{Manifest: "ses", Cure: []string{"ses", "str"}, Weight: 1}}
	iii, err := core.ExpectedMTTR(trees["III"], mix, ap, core.ModelEscalating, 0)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := core.ExpectedMTTR(trees["IV"], mix, ap, core.ModelEscalating, 0)
	if err != nil {
		t.Fatal(err)
	}
	if iv >= iii {
		t.Fatalf("consolidation did not help analytically: III=%.2f IV=%.2f", iii, iv)
	}
}

func TestAnalyticValidation(t *testing.T) {
	trees := mercuryTreesForAnalysis(t)
	ap := station.AnalyticParams()
	if _, err := core.ExpectedMTTR(trees["II"], nil, ap, core.ModelPerfect, 0); err != core.ErrNoFaultClasses {
		t.Fatalf("err = %v", err)
	}
	zero := []core.FaultClass{{Manifest: "rtu", Weight: 0}}
	if _, err := core.ExpectedMTTR(trees["II"], zero, ap, core.ModelPerfect, 0); err != core.ErrNoFaultClasses {
		t.Fatalf("zero-weight err = %v", err)
	}
	bad := core.AnalyticParams{RestartSeconds: map[string]float64{}}
	mix := []core.FaultClass{{Manifest: "rtu", Weight: 1}}
	if _, err := core.ExpectedMTTR(trees["II"], mix, bad, core.ModelPerfect, 0); err == nil {
		t.Fatal("missing restart time accepted")
	}
	if _, err := core.ExpectedMTTR(trees["II"], mix, station.AnalyticParams(), core.OracleModel(99), 0); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestGroupCells(t *testing.T) {
	trees := mercuryTreesForAnalysis(t)
	t2 := trees["IIp"]
	grouped, err := core.GroupCells(t2, "g", "fedr", "pbcom")
	if err != nil {
		t.Fatalf("core.GroupCells: %v", err)
	}
	cover, err := grouped.LowestCovering([]string{"fedr", "pbcom"})
	if err != nil {
		t.Fatal(err)
	}
	if cover == grouped.Root() {
		t.Fatal("grouping did not create a joint node")
	}
	// Errors.
	if _, err := core.GroupCells(t2, "g", "fedr", "fedr"); err == nil {
		t.Fatal("self-group accepted")
	}
	if _, err := core.GroupCells(trees["IV"], "g", "ses", "str"); err == nil {
		t.Fatal("grouping a shared cell accepted")
	}
	if _, err := core.GroupCells(trees["V"], "g", "fedr", "mbus"); err == nil {
		t.Fatal("non-sibling group accepted")
	}
}

func TestIsolate(t *testing.T) {
	trees := mercuryTreesForAnalysis(t)
	t4 := trees["IV"]
	iso, err := core.Isolate(t4, "iso", "str")
	if err != nil {
		t.Fatalf("core.Isolate: %v", err)
	}
	sesCell, _ := iso.CellOf("ses")
	strCell, _ := iso.CellOf("str")
	if sesCell == strCell {
		t.Fatal("isolation did not split the cell")
	}
	if _, err := core.Isolate(iso, "x", "str"); err == nil {
		t.Fatal("isolating a singleton accepted")
	}
}

func TestOptimizerRediscoversConsolidation(t *testing.T) {
	comps := []string{"mbus", "fedr", "pbcom", "ses", "str", "rtu"}
	res, err := core.Optimize(comps, core.MercuryFaultMix(), station.AnalyticParams(), core.ModelEscalating, 0)
	if err != nil {
		t.Fatalf("core.Optimize: %v", err)
	}
	if res.Expected >= res.Start {
		t.Fatalf("optimizer found no improvement: %.2f -> %.2f", res.Start, res.Expected)
	}
	// The paper's key insight must fall out: ses and str end in one cell.
	sesCell, err := res.Tree.CellOf("ses")
	if err != nil {
		t.Fatal(err)
	}
	strCell, err := res.Tree.CellOf("str")
	if err != nil {
		t.Fatal(err)
	}
	if sesCell != strCell {
		t.Fatalf("optimizer missed the ses/str consolidation:\n%s", res.Tree.Render())
	}
}

func TestOptimizerPromotesUnderFaultyOracle(t *testing.T) {
	comps := []string{"mbus", "fedr", "pbcom", "ses", "str", "rtu"}
	res, err := core.Optimize(comps, core.MercuryFaultMix(), station.AnalyticParams(), core.ModelFaulty, 0.30)
	if err != nil {
		t.Fatalf("core.Optimize: %v", err)
	}
	// Under a faulty oracle the pbcom cell must cover fedr too (promotion
	// or joint grouping), eliminating guess-too-low double restarts.
	pbcomCell, err := res.Tree.CellOf("pbcom")
	if err != nil {
		t.Fatal(err)
	}
	sub := pbcomCell.Subtree()
	hasFedr := false
	for _, c := range sub {
		if c == "fedr" {
			hasFedr = true
		}
	}
	if !hasFedr {
		t.Fatalf("optimizer missed pbcom's promotion:\n%s", res.Tree.Render())
	}
	if len(res.Steps) == 0 {
		t.Fatal("no optimization steps recorded")
	}
}

func TestOptimizeValidation(t *testing.T) {
	if _, err := core.Optimize(nil, core.MercuryFaultMix(), station.AnalyticParams(), core.ModelPerfect, 0); err != core.ErrNoComponents {
		t.Fatalf("err = %v", err)
	}
}

func TestRenderMixAndModelString(t *testing.T) {
	out := core.RenderMix(core.MercuryFaultMix())
	if !strings.Contains(out, "fedr") || !strings.Contains(out, "cure=") {
		t.Fatalf("mix render:\n%s", out)
	}
	if core.ModelPerfect.String() != "perfect" || core.ModelEscalating.String() != "escalating" {
		t.Fatal("model names wrong")
	}
	if !strings.Contains(core.OracleModel(42).String(), "42") {
		t.Fatal("unknown model string")
	}
}

// Property: the optimizer's tree is never worse than any of the paper's
// hand-derived trees under the same mix and oracle model.
func TestPropertyOptimizerDominatesPaperTrees(t *testing.T) {
	trees := mercuryTreesForAnalysis(t)
	comps := []string{"mbus", "fedr", "pbcom", "ses", "str", "rtu"}
	mix := core.MercuryFaultMix()
	ap := station.AnalyticParams()
	for _, tc := range []struct {
		model  core.OracleModel
		faulty float64
	}{
		{core.ModelPerfect, 0},
		{core.ModelEscalating, 0},
		{core.ModelFaulty, 0.30},
	} {
		res, err := core.Optimize(comps, mix, ap, tc.model, tc.faulty)
		if err != nil {
			t.Fatalf("%v: %v", tc.model, err)
		}
		for _, name := range []string{"IIp", "III", "IV", "V"} {
			e, err := core.ExpectedMTTR(trees[name], mix, ap, tc.model, tc.faulty)
			if err != nil {
				t.Fatal(err)
			}
			if res.Expected > e+1e-9 {
				t.Fatalf("model %v: optimizer (%.3f) worse than tree %s (%.3f)",
					tc.model, res.Expected, name, e)
			}
		}
	}
}
