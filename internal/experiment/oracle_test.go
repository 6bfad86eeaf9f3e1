package experiment

import (
	"context"
	"math"
	"testing"
	"time"
)

// testOracleConfig shrinks the campaign to CI size while keeping the
// alternating state-corruption / sub-crash schedule intact.
func testOracleConfig() OracleConfig {
	cfg := DefaultOracleConfig()
	cfg.Trials = 2
	cfg.Users = 1 << 12
	cfg.PassRate = 200
	cfg.FedRate = 100
	cfg.TrainEpisodes = 4
	cfg.Episodes = 6
	return cfg
}

// TestOraclePolicyCriterion pins the issue's acceptance criterion: on the
// mixed-fault campaign the cost-aware oracle must accumulate strictly less
// measured user harm than every fixed policy.
func TestOraclePolicyCriterion(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cells, err := OracleSweep(context.Background(), testOracleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 || cells[0].Policy != "costaware" {
		t.Fatalf("unexpected sweep cells: %+v", cells)
	}
	v2 := cells[0]
	if v2.Issued == 0 || v2.OK == 0 {
		t.Fatalf("degenerate costaware cell: %+v", v2)
	}
	for _, c := range cells[1:] {
		if !(v2.HarmScore < c.HarmScore) {
			t.Errorf("costaware harm %.2f not strictly below %s harm %.2f",
				v2.HarmScore, c.Policy, c.HarmScore)
		}
	}
	t.Logf("\n%s", RenderOracle(testOracleConfig(), cells))
}

// TestOracleCellReproducible: the same cell measured twice is ==.
func TestOracleCellReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := testOracleConfig()
	cfg.Trials = 1
	cfg.Episodes = 2
	cfg.TrainEpisodes = 1
	pol := OraclePolicies()[0]
	a, err := RunOracleCell(context.Background(), cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOracleCell(context.Background(), cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("oracle cell not reproducible:\n%+v\n%+v", *a, *b)
	}
}

// TestTreeValidationRankCorrelation checks the analytic model against
// fleet-sim ground truth on a CI-sized random-tree population; the rrbench
// campaign runs the full 1000.
func TestTreeValidationRankCorrelation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rc := RunConfig{Trials: 60, BaseSeed: 2002}
	res, err := RunTreeValidation(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != rc.Trials {
		t.Fatalf("scored %d trees, want %d", len(res.Scores), rc.Trials)
	}
	for _, s := range res.Scores {
		if s.Predicted <= 0 || s.Measured <= 0 || math.IsNaN(s.Measured) {
			t.Fatalf("degenerate score %+v", s)
		}
	}
	if res.Spearman < 0.6 {
		t.Fatalf("Spearman rank correlation %.3f below 0.6\n%s",
			res.Spearman, RenderTreeValidation(res))
	}
	t.Logf("\n%s", RenderTreeValidation(res))
}

// TestSpearman sanity-checks the rank-correlation helper.
func TestSpearman(t *testing.T) {
	up := []float64{1, 2, 3, 4, 5}
	down := []float64{10, 8, 6, 4, 2}
	if got := spearman(up, up); math.Abs(got-1) > 1e-12 {
		t.Errorf("spearman(up,up) = %v, want 1", got)
	}
	if got := spearman(up, down); math.Abs(got+1) > 1e-12 {
		t.Errorf("spearman(up,down) = %v, want -1", got)
	}
	// Ties share average ranks; a constant series has no ranking.
	if got := spearman(up, []float64{7, 7, 7, 7, 7}); got != 0 {
		t.Errorf("spearman vs constant = %v, want 0", got)
	}
}

// TestOnlineProposal soaks tree II′ under a correlated ses↔str failure
// regime and checks that the miner's empirical mix drives the optimizer to
// consolidate the two — the paper's hand-derived move, rediscovered from
// measured episodes alone.
func TestOnlineProposal(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := DefaultOnlineConfig()
	cfg.Horizon = 2 * time.Hour
	p, err := RunOnlineProposal(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Episodes < 5 {
		t.Fatalf("soak mined only %d episodes", p.Episodes)
	}
	if len(p.Result.Steps) == 0 {
		t.Fatalf("optimizer proposed no transformation:\n%s", RenderOnlineProposal(cfg, p))
	}
	if !(p.Result.Expected < p.Result.Start) {
		t.Fatalf("proposal does not improve expected MTTR: %.2f → %.2f",
			p.Result.Start, p.Result.Expected)
	}
	tree := p.Result.Tree
	cs, err := tree.CellOf("ses")
	if err != nil {
		t.Fatal(err)
	}
	ct, err := tree.CellOf("str")
	if err != nil {
		t.Fatal(err)
	}
	if cs != ct {
		t.Fatalf("proposal did not consolidate ses+str:\n%s", tree.Render())
	}
	t.Logf("\n%s", RenderOnlineProposal(cfg, p))
}
