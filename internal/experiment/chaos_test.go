package experiment

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// testChaosConfig is a small, fast grid for determinism checks.
func testChaosConfig(workers int) ChaosConfig {
	return ChaosConfig{
		RunConfig:    RunConfig{Trials: 4, BaseSeed: 2002, Workers: workers},
		Trees:        []string{"IV"},
		LossRates:    []float64{0.10},
		SuspectAfter: []int{1, 3},
		Horizon:      30 * time.Second,
	}
}

// TestChaosSweepParallelMatchesSequential: the campaign's results are a
// pure function of (config, seed); worker count changes wall time only.
func TestChaosSweepParallelMatchesSequential(t *testing.T) {
	seq, err := ChaosSweep(context.Background(), testChaosConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := ChaosSweep(context.Background(), testChaosConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel sweep diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestChaosHardeningCriterion: in a ≥10% ping-loss regime (5% per-hop ⇒
// ~18.5% per-probe loss), SuspectAfter=3 must cut false-positive restarts
// at least 8× versus the paper's single-miss detector while keeping
// detection of a real fault under 2× the 1 s ping period. (The factor was
// 12.6× while the restart budget silently kept charges from cured
// episodes and so abandoned components mid-storm; with cured recoveries
// refunding their budget — the correct semantics — neither detector is
// throttled by give-ups and the measured gap at these parameters is ~9×.)
func TestChaosHardeningCriterion(t *testing.T) {
	cfg := testChaosConfig(0)
	cfg.LossRates = []float64{0.05}
	cfg.Trials = 8
	cfg.Horizon = 2 * time.Minute
	if pl := PingLoss(0.05, ChaosDup); pl < 0.10 {
		t.Fatalf("per-probe ping loss %.3f below the 10%% regime the criterion targets", pl)
	}
	cells, err := ChaosSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	byK := map[int]*ChaosCellResult{}
	for _, c := range cells {
		byK[c.SuspectAfter] = c
	}
	k1, k3 := byK[1], byK[3]
	if k1 == nil || k3 == nil {
		t.Fatalf("missing cells: %+v", cells)
	}
	if k1.FalseRestarts == 0 {
		t.Fatal("single-miss detector saw no false restarts; the scenario is vacuous")
	}
	if k1.FalseRestarts < 8*k3.FalseRestarts {
		t.Fatalf("SuspectAfter=3 cut false restarts only %.1f× (%.2f → %.2f), want ≥8×",
			k1.FalseRestarts/k3.FalseRestarts, k1.FalseRestarts, k3.FalseRestarts)
	}
	if k3.Detect.N() == 0 {
		t.Fatal("K=3 never detected the injected fault")
	}
	if mean := k3.Detect.MeanSeconds(); mean >= 2 {
		t.Fatalf("K=3 detection latency %.2fs, want < 2s (2× the 1s ping period)", mean)
	}
	if k3.Availability <= k1.Availability {
		t.Fatalf("hardened availability %.4f not above stock %.4f", k3.Availability, k1.Availability)
	}
}
