package experiment

import (
	"context"
	"fmt"
	"time"

	mercury "github.com/recursive-restart/mercury"
	"github.com/recursive-restart/mercury/internal/orbit"
	"github.com/recursive-restart/mercury/internal/station"
)

// This file reproduces the paper's §5.2 argument — "not all downtime is
// the same": downtime during a satellite pass costs science data, and if
// recovery takes too long the communication link breaks and the whole
// session is lost. A short MTTR provides high assurance the pass survives
// a failure; a large MTTF alone does not.

// DataRateKbps is Mercury's downlink rate (paper: up to 38.4 kbps).
const DataRateKbps = 38.4

// LinkBreakThreshold is how long the link survives an outage mid-pass
// before the session is unrecoverable (tracking drifts too far, protocol
// state lost). Tree I's ~25 s whole-system recovery exceeds it; tree IV's
// ~6 s partial restarts do not.
const LinkBreakThreshold = 15 * time.Second

// PassOutcome summarises one simulated pass with a mid-pass failure.
type PassOutcome struct {
	Tree        string
	Pass        orbit.Pass
	FailureAt   time.Time
	Recovery    time.Duration
	LinkBroken  bool
	CollectedKb float64
	AvailableKb float64
}

// SatPass simulates one pass per tree as independent trials on the runner
// pool, all from the same seed so trees see the same pass and the same
// mid-pass failure instant. Each boots a station with its restart tree,
// waits for the next pass of the workload satellite, injects a front-end
// failure mid-pass (the most frequent failure class: fedrcom before the
// split, fedr after) and accounts for the science data.
func SatPass(ctx context.Context, trees []string, seed int64, workers int) ([]*PassOutcome, error) {
	return runTrials(ctx, RunConfig{Trials: len(trees), Workers: workers}, "pass", func(i int, _ int64) (*PassOutcome, error) {
		tree := trees[i]
		sys, err := boot(mercury.Config{Seed: seed, TreeName: tree, Policy: mercury.PolicyPerfect})
		if err != nil {
			return nil, err
		}

		sat, ground := station.Workload(sys.Epoch)
		passes, err := orbit.PredictPasses(sat, ground, sys.Now(), 24*time.Hour, 10*3.14159/180)
		if err != nil {
			return nil, err
		}
		// Pick the first pass long enough to fail in the middle of.
		var pass *orbit.Pass
		for k := range passes {
			if passes[k].Duration() >= 4*time.Minute {
				pass = &passes[k]
				break
			}
		}
		if pass == nil {
			return nil, fmt.Errorf("experiment: no usable pass within 24h")
		}

		// Run quietly until two minutes into the pass, then fail the front end.
		failAt := pass.AOS.Add(2 * time.Minute)
		if err := sys.Kernel.RunUntil(failAt); err != nil {
			return nil, err
		}
		comp := "fedr"
		if tree == "I" || tree == "II" {
			comp = "fedrcom"
		}
		recovery, err := sys.MeasureRecovery(mercury.Fault{Component: comp}, 5*time.Minute)
		if err != nil {
			return nil, err
		}
		if err := sys.Kernel.RunUntil(pass.LOS); err != nil {
			return nil, err
		}

		out := &PassOutcome{
			Tree:        tree,
			Pass:        *pass,
			FailureAt:   failAt,
			Recovery:    recovery,
			LinkBroken:  recovery > LinkBreakThreshold,
			AvailableKb: DataRateKbps * pass.Duration().Seconds(),
		}
		if out.LinkBroken {
			// Session lost: only the data before the failure was captured.
			out.CollectedKb = DataRateKbps * failAt.Sub(pass.AOS).Seconds()
		} else {
			out.CollectedKb = DataRateKbps * (pass.Duration() - recovery).Seconds()
		}
		return out, nil
	})
}

// RenderPassOutcome formats one pass account.
func RenderPassOutcome(o *PassOutcome) string {
	status := "link held"
	if o.LinkBroken {
		status = "LINK BROKEN — remainder of session lost"
	}
	return fmt.Sprintf(
		"tree %-3s pass %s → %s (%.1f min, max el %.0f°)\n"+
			"         failure at +2 min, recovered in %5.2f s — %s\n"+
			"         science data: %.0f of %.0f kbit (%.0f%%)\n",
		o.Tree,
		o.Pass.AOS.Format("15:04:05"), o.Pass.LOS.Format("15:04:05"),
		o.Pass.Duration().Minutes(), o.Pass.MaxEl*180/3.14159,
		o.Recovery.Seconds(), status,
		o.CollectedKb, o.AvailableKb, 100*o.CollectedKb/o.AvailableKb)
}
