package experiment

import (
	"context"
	"fmt"
	"time"

	mercury "github.com/recursive-restart/mercury"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/metrics"
)

// manualSeedStride spaces the per-trial seeds of the manual baseline.
const manualSeedStride = 6151

// This file reproduces the paper's §8 secondary claim: "in the past,
// relying on operators to notice failures was adding minutes or hours to
// the recovery time". The manual baseline models pre-RR Mercury: no FD, no
// REC — a human operator eventually notices the silent station and reboots
// the whole thing (the only procedure tree I admits).

// OperatorNotice is the paper's "minutes or hours": how long until a human
// notices the failure. The default draws from 2–45 minutes; failures
// during unattended hours sit at the long end.
var OperatorNotice = fault.Uniform{Lo: 2 * time.Minute, Hi: 45 * time.Minute}

// ManualResult compares operator-driven recovery with automated RR.
type ManualResult struct {
	Trials         int            `json:"trials"`
	ManualRecovery metrics.Sample `json:"manual_recovery"`
	AutoRecovery   metrics.Sample `json:"auto_recovery"`
	ManualAvail    float64        `json:"manual_availability"` // availability at the Table 1 fedrcom rate
	AutoAvail      float64        `json:"auto_availability"`
}

// manualTrial is one paired observation: the operator-driven recovery and
// the automated recovery of the equivalent failure under the same seed.
type manualTrial struct {
	manual, auto time.Duration
}

// measureManual runs the pre-RR procedure once: no FD/REC; the operator
// notices after OperatorNotice and performs the only procedure tree I
// admits — a whole-system restart.
func measureManual(seed int64) (time.Duration, error) {
	sys, err := boot(mercury.Config{Seed: seed, TreeName: "I", DisableRecovery: true})
	if err != nil {
		return 0, err
	}
	start := sys.Now()
	if err := sys.Inject(mercury.Fault{Component: "fedrcom"}); err != nil {
		return 0, err
	}
	notice := OperatorNotice.Sample(sys.Kernel.Rand())
	if err := sys.Kernel.RunUntil(start.Add(notice)); err != nil {
		return 0, err
	}
	if err := sys.Mgr.Restart(sys.Components()); err != nil {
		return 0, err
	}
	deadline := sys.Now().Add(3 * time.Minute)
	for !sys.Mgr.AllServing(sys.Components()...) {
		if sys.Now().After(deadline) {
			return 0, fmt.Errorf("experiment: manual reboot did not complete")
		}
		if !sys.Kernel.Step() {
			return 0, fmt.Errorf("experiment: simulation idle during manual reboot")
		}
	}
	// The board still lists the fault (cured by the full restart's batch
	// hook); recovery spans failure → all serving.
	return sys.Now().Sub(start), nil
}

// ManualVsAutoCfg measures recovery of the most frequent failure (the front
// end) under the pre-RR manual procedure versus the automated tree-IV
// station, and derives the availability each implies at fedrcom's
// 10-minute... (Table 1) failure rate — using the post-split fedr rate for
// the automated system. The paired trials run across the runner pool;
// samples are folded in seed order, so results match a sequential run
// exactly.
func ManualVsAutoCfg(ctx context.Context, rc RunConfig) (*ManualResult, error) {
	pairs, err := runTrials(ctx, rc, "manual", func(i int, _ int64) (manualTrial, error) {
		// The pairs keep their own seed spacing, not the runner's stride.
		seed := rc.BaseSeed + int64(i)*manualSeedStride
		manual, err := measureManual(seed)
		if err != nil {
			return manualTrial{}, err
		}
		// Automated: tree IV, escalating oracle, fedr failure.
		auto, err := Cell{Tree: "IV", Policy: mercury.PolicyEscalating, Component: "fedr"}.Measure(seed)
		if err != nil {
			return manualTrial{}, fmt.Errorf("auto: %w", err)
		}
		return manualTrial{manual: manual, auto: auto}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &ManualResult{Trials: rc.Trials}
	for _, p := range pairs {
		res.ManualRecovery.Add(p.manual)
		res.AutoRecovery.Add(p.auto)
	}
	res.ManualAvail = metrics.Availability(PaperMTTF["fedrcom"], res.ManualRecovery.Mean())
	res.AutoAvail = metrics.Availability(SplitMTTF["fedr"], res.AutoRecovery.Mean())
	return res, nil
}

// RenderManual formats the comparison.
func RenderManual(r *ManualResult) string {
	return fmt.Sprintf(
		"§8 — automated recovery vs. the pre-RR manual procedure (%d trials)\n"+
			"  manual (operator notices, whole-system reboot): mean %7.1f s → availability %.4f\n"+
			"  automated (FD + REC, tree IV):                  mean %7.1f s → availability %.4f\n"+
			"  the operator adds minutes; automation holds recovery to seconds\n",
		r.Trials,
		r.ManualRecovery.MeanSeconds(), r.ManualAvail,
		r.AutoRecovery.MeanSeconds(), r.AutoAvail)
}
