package experiment

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	mercury "github.com/recursive-restart/mercury"
	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/metrics"
	"github.com/recursive-restart/mercury/internal/trace"
)

// This file measures the system on a *degraded* network — the failure
// model the paper leaves out. The bus chaos layer drops, duplicates and
// jitters frames per hop; the sweep crosses per-hop loss rate × restart
// tree × the FD's SuspectAfter threshold and reports, per cell:
//
//   - availability over a fault-free horizon (all downtime is therefore
//     self-inflicted: false-positive restarts under A_entire),
//   - false-positive restart actions per trial over that horizon,
//   - detection latency and recovery for one real injected fault, under
//     the same chaos.
//
// Trials fan out on the runner and fold in seed order, so a parallel
// campaign is byte-identical to a sequential one.

// ChaosConfig parameterises the degraded-network sweep.
type ChaosConfig struct {
	RunConfig
	// Trees are the restart trees to measure (e.g. "I", "IV").
	Trees []string
	// LossRates are per-hop frame-loss probabilities to sweep.
	LossRates []float64
	// SuspectAfter are the FD K-consecutive-miss thresholds to sweep.
	SuspectAfter []int
	// Horizon is the fault-free observation window.
	Horizon time.Duration
}

// Every degraded fabric — each chaos and microreboot cell — duplicates a
// frame with probability ChaosDup and delays it by up to ChaosJitter on
// top of its loss rate; in every chaos cell REC damps restart storms with
// a backoff from ChaosBackoff up to chaosBackoffMax.
const (
	ChaosDup        = 0.01
	ChaosJitter     = 2 * time.Millisecond
	ChaosBackoff    = 250 * time.Millisecond
	chaosBackoffMax = 2 * time.Second
)

// DefaultChaosConfig is the EXPERIMENTS.md "Degraded network" setup.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		RunConfig:    RunConfig{Trials: 20, BaseSeed: 2002},
		Trees:        []string{"I", "IV"},
		LossRates:    []float64{0, 0.02, 0.05, 0.10, 0.20},
		SuspectAfter: []int{1, 3},
		Horizon:      2 * time.Minute,
	}
}

// bootDegraded boots a station and only then degrades its fabric, so a
// lossy fabric cannot wedge the initial whole-system start: per-hop loss
// plus the shared duplication and jitter.
func bootDegraded(cfg mercury.Config, loss float64) (*mercury.System, error) {
	sys, err := boot(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.SetChaos(&bus.ChaosProfile{Loss: loss, Dup: ChaosDup, Jitter: fault.Uniform{Lo: 0, Hi: ChaosJitter}}); err != nil {
		return nil, err
	}
	return sys, nil
}

// ChaosSpec identifies one cell of the sweep.
type ChaosSpec struct {
	Tree         string  `json:"tree"`
	Loss         float64 `json:"loss"`
	SuspectAfter int     `json:"suspect_after"`
}

// PingLoss converts a per-hop loss rate into the probability that one FD
// liveness probe fails: ping and pong each cross two hops (FD → broker →
// target and back), and a duplicated frame survives if either copy does.
// This is the loss rate the detector actually experiences.
func PingLoss(loss, dup float64) float64 {
	effHop := loss * (1 - dup*(1-loss)) // dup rescues a drop iff the twin survives
	deliver := 1 - effHop
	return 1 - deliver*deliver*deliver*deliver
}

// ChaosCellResult aggregates one cell's trials.
type ChaosCellResult struct {
	ChaosSpec
	Trials int `json:"trials"`
	// Availability is the mean fraction of the fault-free horizon with
	// every component serving (A_entire; all downtime is self-inflicted).
	Availability float64 `json:"availability"`
	// FalseRestarts is the mean number of component restarts during the
	// fault-free horizon — every one a false positive. Counted per
	// component incarnation, so an escalated whole-station restart weighs
	// its full cost; FalseActions counts REC's restart decisions.
	FalseRestarts float64 `json:"false_restarts_per_trial"`
	FalseActions  float64 `json:"false_actions_per_trial"`
	// GiveUps counts components abandoned across all trials.
	GiveUps int `json:"give_ups"`
	// Detected counts trials whose injected fault was detected; Detect
	// samples the fault → FailureDetected latency over those.
	Detected int            `json:"detected"`
	Detect   metrics.Sample `json:"detect"`
	// Recovered counts trials whose injected fault fully recovered;
	// Recovery samples the recovery time over those.
	Recovered int            `json:"recovered"`
	Recovery  metrics.Sample `json:"recovery"`
}

// chaosTrial is one trial's raw measurements.
type chaosTrial struct {
	falseRestarts int // component restarts during the fault-free horizon
	falseActions  int // REC restart decisions during the same window
	downtime      time.Duration
	giveUps       int
	detected      bool
	detect        time.Duration
	recovered     bool
	recovery      time.Duration
}

// chaosTarget picks the real-fault victim: the front end, the paper's
// dominant failure source.
func chaosTarget(tree string) string {
	if tree == "I" || tree == "II" {
		return "fedrcom"
	}
	return "fedr"
}

// runChaosTrial is the pure (spec, seed) → result trial: build a fresh
// station, boot it clean, degrade the fabric, observe a fault-free
// horizon, then inject one real fault and time its detection/recovery.
func runChaosTrial(spec ChaosSpec, horizon time.Duration, seed int64) (chaosTrial, error) {
	fdp := core.DefaultFDParams()
	fdp.SuspectAfter = spec.SuspectAfter
	recp := core.DefaultRECParams()
	recp.RestartBackoff, recp.RestartBackoffMax = ChaosBackoff, chaosBackoffMax
	sys, err := bootDegraded(mercury.Config{
		Seed:      seed,
		TreeName:  spec.Tree,
		Policy:    mercury.PolicyEscalating,
		FDParams:  &fdp,
		RECParams: &recp,
	}, spec.Loss)
	if err != nil {
		return chaosTrial{}, err
	}

	var (
		res        chaosTrial
		faultFree  = true
		out        trace.Outages
		injected   bool
		injectedAt time.Time
		target     = chaosTarget(spec.Tree)
	)
	sys.Log.Subscribe(func(e trace.Event) {
		out.Observe(e)
		switch e.Kind {
		case trace.RestartRequested:
			if faultFree {
				res.falseActions++
			}
		case trace.FailureDetected:
			if injected && !res.detected && e.Component == target {
				res.detected = true
				res.detect = e.At.Sub(injectedAt)
			}
		}
	})

	// Phase 1 — degraded but fault-free: every restart is a false positive.
	if err := sys.RunFor(horizon); err != nil {
		return chaosTrial{}, err
	}
	// An outage open at the horizon is charged up to it; anything after
	// belongs to the injected-fault phase.
	out.CloseAt(sys.Now())
	res.downtime = out.Downtime
	for _, c := range sys.Components() {
		n, err := sys.Mgr.Restarts(c)
		if err != nil {
			return chaosTrial{}, err
		}
		res.falseRestarts += n
	}
	faultFree = false

	// Phase 2 — one real fault under the same chaos.
	injectedAt = sys.Now()
	injected = true
	d, err := sys.MeasureRecovery(mercury.Fault{Component: target}, 2*time.Minute)
	switch {
	case err == nil:
		res.recovered = true
		res.recovery = d
	case errors.Is(err, mercury.ErrNoRecovery):
		// A K=1 storm can abandon the target before (or after) injection;
		// that is the measurement, not an error.
	default:
		return chaosTrial{}, err
	}
	res.giveUps = out.GiveUps
	return res, nil
}

// runChaosCell measures one cell of the sweep over cfg.Trials trials.
func runChaosCell(ctx context.Context, cfg ChaosConfig, spec ChaosSpec) (*ChaosCellResult, error) {
	label := fmt.Sprintf("chaos %s/loss=%.2f/k=%d", spec.Tree, spec.Loss, spec.SuspectAfter)
	trials, err := runTrials(ctx, cfg.RunConfig, label, func(_ int, seed int64) (chaosTrial, error) {
		return runChaosTrial(spec, cfg.Horizon, seed)
	})
	if err != nil {
		return nil, err
	}
	res := &ChaosCellResult{ChaosSpec: spec, Trials: len(trials)}
	availSum := 0.0
	for _, tr := range trials {
		availSum += 1 - tr.downtime.Seconds()/cfg.Horizon.Seconds()
		res.FalseRestarts += float64(tr.falseRestarts)
		res.FalseActions += float64(tr.falseActions)
		res.GiveUps += tr.giveUps
		if tr.detected {
			res.Detected++
			res.Detect.Add(tr.detect)
		}
		if tr.recovered {
			res.Recovered++
			res.Recovery.Add(tr.recovery)
		}
	}
	n := float64(len(trials))
	res.Availability = availSum / n
	res.FalseRestarts /= n
	res.FalseActions /= n
	return res, nil
}

// ChaosSweep measures the full grid in deterministic cell order
// (tree, then loss rate, then SuspectAfter). Every cell reuses the same
// per-trial seeds, so cells are paired comparisons.
func ChaosSweep(ctx context.Context, cfg ChaosConfig) ([]*ChaosCellResult, error) {
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("experiment: non-positive chaos horizon")
	}
	var out []*ChaosCellResult
	for _, tree := range cfg.Trees {
		for _, loss := range cfg.LossRates {
			for _, k := range cfg.SuspectAfter {
				cell, err := runChaosCell(ctx, cfg, ChaosSpec{Tree: tree, Loss: loss, SuspectAfter: k})
				if err != nil {
					return nil, err
				}
				out = append(out, cell)
			}
		}
	}
	return out, nil
}

// RenderChaos formats the sweep as the availability-vs-loss table.
func RenderChaos(cfg ChaosConfig, cells []*ChaosCellResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Degraded network — availability vs per-hop loss (%d trials/cell, %v fault-free horizon, dup %.0f%%, jitter ≤%v)\n",
		cfg.Trials, cfg.Horizon, ChaosDup*100, ChaosJitter)
	fmt.Fprintf(&sb, "%-5s %6s %10s %8s %14s %16s %9s %12s %10s %11s %10s\n",
		"tree", "loss", "ping-loss", "suspect", "availability", "false-restarts", "give-ups", "detect-mean", "detected", "recovered", "recovery")
	for _, c := range cells {
		detect := "—"
		if c.Detect.N() > 0 {
			detect = fmt.Sprintf("%.2fs", c.Detect.MeanSeconds())
		}
		recovery := "—"
		if c.Recovery.N() > 0 {
			recovery = fmt.Sprintf("%.2fs", c.Recovery.MeanSeconds())
		}
		fmt.Fprintf(&sb, "%-5s %5.0f%% %9.1f%% %8d %14.4f %16.2f %9d %12s %7d/%d %8d/%d %10s\n",
			c.Tree, c.Loss*100, PingLoss(c.Loss, ChaosDup)*100, c.SuspectAfter, c.Availability,
			c.FalseRestarts, c.GiveUps, detect, c.Detected, c.Trials, c.Recovered, c.Trials, recovery)
	}
	sb.WriteString("ping-loss = probability one FD probe round trip (4 lossy hops) fails; " +
		"false-restarts = component restarts per trial with no fault injected; " +
		"detect/recovery measure one real front-end fault under the same chaos\n")
	return sb.String()
}
