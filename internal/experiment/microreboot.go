package experiment

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	mercury "github.com/recursive-restart/mercury"
	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/metrics"
	"github.com/recursive-restart/mercury/internal/trace"
)

// This file measures what the crash-only decomposition buys: for a
// ses/str-class fault under a lossy fabric, it compares three recovery
// granularities —
//
//	microreboot  tree IIIm: the fault hits one subcomponent (ses.cache,
//	             str.track); the container self-reports it and REC
//	             microreboots just that sub, state reattached from the
//	             crash-only store;
//	process      tree III: the same logical fault costs a full process
//	             restart, and the ses↔str resync artifact co-crashes the
//	             peer (the paper's induced correlated failure);
//	group        tree IV: the paper's own mitigation — consolidate ses+str
//	             into one group so both always restart together.
//
// Per (mode, class) cell it reports single-fault MTTR, how many times the
// *peer* component was restarted as collateral, and availability over a
// horizon of repeated faults. Cells share per-trial seeds, so the
// comparison is paired.

// MicroConfig parameterises the microreboot-vs-restart comparison.
type MicroConfig struct {
	RunConfig
	// Faults and Gap shape the availability phase: Faults repeated
	// injections separated by Gap of healthy operation.
	Faults int
	Gap    time.Duration
}

const (
	// MicroLoss is the per-hop loss of the fabric every phase runs on
	// (installed after boot, with the chaos sweep's duplication and jitter).
	MicroLoss = 0.02
	// MicroSuspectAfter is the FD K-consecutive-miss threshold. 3
	// suppresses false-positive storms so the comparison isolates the
	// *injected* fault's recovery cost (the chaos sweep covers storms).
	MicroSuspectAfter = 3
)

// DefaultMicroConfig is the EXPERIMENTS.md "Microreboot" setup.
func DefaultMicroConfig() MicroConfig {
	return MicroConfig{RunConfig: RunConfig{Trials: 20, BaseSeed: 2002}, Faults: 4, Gap: 10 * time.Second}
}

// MicroModes returns the three recovery granularities in report order.
func MicroModes() []MicroMode {
	return []MicroMode{
		{Name: "microreboot", Tree: "IIIm"},
		{Name: "process", Tree: "III"},
		{Name: "group", Tree: "IV"},
	}
}

// MicroMode is one recovery granularity.
type MicroMode struct {
	Name string
	Tree string
}

// micro reports whether the mode runs the microrebootable decomposition.
func (m MicroMode) micro() bool { return strings.HasSuffix(m.Tree, "m") }

// MicroClasses returns the fault classes in report order. Target is the
// classic-mode victim component; Sub the micro-mode subcomponent inside
// it; Peer the component that classic recovery damages as collateral.
func MicroClasses() []MicroClass {
	return []MicroClass{
		{Name: "ses-session", Target: "ses", Sub: "ses.cache", Peer: "str"},
		{Name: "str-track", Target: "str", Sub: "str.track", Peer: "ses"},
	}
}

// MicroClass is one fault class.
type MicroClass struct {
	Name   string
	Target string
	Sub    string
	Peer   string
}

// victim returns the injection target for the mode.
func (c MicroClass) victim(m MicroMode) string {
	if m.micro() {
		return c.Sub
	}
	return c.Target
}

// MicroCellResult aggregates one (mode, class) cell.
type MicroCellResult struct {
	Mode  string `json:"mode"`
	Tree  string `json:"tree"`
	Class string `json:"class"`

	Trials int `json:"trials"`
	// Recovered counts trials whose single measured fault recovered;
	// MTTR samples the recovery time over those.
	Recovered int            `json:"recovered"`
	MTTR      metrics.Sample `json:"mttr"`
	// PeerRestarts is the total number of extra peer incarnations across
	// all single-fault measurements — collateral damage of the recovery.
	PeerRestarts int `json:"peer_restarts"`
	// Availability is the mean fraction of the repeated-fault horizon the
	// station was whole.
	Availability float64 `json:"availability"`
	// GiveUps counts components abandoned across all trials.
	GiveUps int `json:"give_ups"`
}

// microTrial is one trial's raw measurements.
type microTrial struct {
	recovered    bool
	mttr         time.Duration
	peerRestarts int
	availability float64
	giveUps      int
}

// runMicroTrial is the pure (mode, class, seed) → result trial.
func runMicroTrial(cfg MicroConfig, mode MicroMode, class MicroClass, seed int64) (microTrial, error) {
	fdp := core.DefaultFDParams()
	fdp.SuspectAfter = MicroSuspectAfter
	sys, err := bootDegraded(mercury.Config{
		Seed:     seed,
		TreeName: mode.Tree,
		Policy:   mercury.PolicyEscalating,
		FDParams: &fdp,
	}, MicroLoss)
	if err != nil {
		return microTrial{}, err
	}

	var (
		res microTrial
		out trace.Outages
	)
	sys.Log.Subscribe(func(e trace.Event) { out.Observe(e) })

	victim := class.victim(mode)

	// Phase 1 — one measured fault: MTTR and peer collateral.
	peerInc, err := sys.Mgr.Incarnation(class.Peer)
	if err != nil {
		return microTrial{}, err
	}
	d, err := sys.MeasureRecovery(mercury.Fault{Component: victim}, 2*time.Minute)
	switch {
	case err == nil:
		res.recovered = true
		res.mttr = d
	case errors.Is(err, mercury.ErrNoRecovery):
		res.giveUps = out.GiveUps
		return res, nil // abandoned under chaos: that is the measurement
	default:
		return microTrial{}, err
	}
	after, err := sys.Mgr.Incarnation(class.Peer)
	if err != nil {
		return microTrial{}, err
	}
	res.peerRestarts = after - peerInc

	// Phase 2 — availability over repeated faults with healthy gaps.
	// Downtime is the outage fold's ComponentDown → SystemRecovered spans,
	// so any false-positive restarts the chaos still causes count against
	// availability too (A_entire: the station is whole or it is not).
	start := sys.Now()
	out.Downtime = 0
	for i := 0; i < cfg.Faults; i++ {
		if _, err := sys.MeasureRecovery(mercury.Fault{Component: victim}, 2*time.Minute); err != nil {
			if errors.Is(err, mercury.ErrNoRecovery) {
				break
			}
			return microTrial{}, err
		}
		if err := sys.RunFor(cfg.Gap); err != nil {
			return microTrial{}, err
		}
	}
	out.CloseAt(sys.Now())
	if total := sys.Now().Sub(start); total > 0 {
		res.availability = 1 - out.Downtime.Seconds()/total.Seconds()
	}
	res.giveUps = out.GiveUps
	return res, nil
}

// RunMicroCell measures one (mode, class) cell over cfg.Trials trials.
func RunMicroCell(ctx context.Context, cfg MicroConfig, mode MicroMode, class MicroClass) (*MicroCellResult, error) {
	trials, err := runTrials(ctx, cfg.RunConfig, "micro "+mode.Name+"/"+class.Name, func(_ int, seed int64) (microTrial, error) {
		return runMicroTrial(cfg, mode, class, seed)
	})
	if err != nil {
		return nil, err
	}
	res := &MicroCellResult{Mode: mode.Name, Tree: mode.Tree, Class: class.Name, Trials: len(trials)}
	availSum, availN := 0.0, 0
	for _, tr := range trials {
		if tr.recovered {
			res.Recovered++
			res.MTTR.Add(tr.mttr)
			availSum += tr.availability
			availN++
		}
		res.PeerRestarts += tr.peerRestarts
		res.GiveUps += tr.giveUps
	}
	if availN > 0 {
		res.Availability = availSum / float64(availN)
	}
	return res, nil
}

// MicroSweep measures every (mode, class) cell in deterministic order.
// Cells reuse the same per-trial seeds, so rows are paired comparisons.
func MicroSweep(ctx context.Context, cfg MicroConfig) ([]*MicroCellResult, error) {
	if cfg.Faults < 0 || cfg.Gap < 0 {
		return nil, fmt.Errorf("experiment: negative micro availability phase")
	}
	var out []*MicroCellResult
	for _, class := range MicroClasses() {
		for _, mode := range MicroModes() {
			cell, err := RunMicroCell(ctx, cfg, mode, class)
			if err != nil {
				return nil, err
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

// RenderMicro formats the sweep as the microreboot-vs-restart table.
func RenderMicro(cfg MicroConfig, cells []*MicroCellResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Microreboot vs restart — ses/str-class faults under %.0f%% loss (%d trials/cell, %d repeated faults + %v gaps)\n",
		MicroLoss*100, cfg.Trials, cfg.Faults, cfg.Gap)
	fmt.Fprintf(&sb, "%-12s %-12s %-5s %10s %10s %14s %14s %9s\n",
		"class", "mode", "tree", "recovered", "mttr", "peer-restarts", "availability", "give-ups")
	for _, c := range cells {
		mttr := "—"
		if c.MTTR.N() > 0 {
			mttr = fmt.Sprintf("%.2fs", c.MTTR.MeanSeconds())
		}
		fmt.Fprintf(&sb, "%-12s %-12s %-5s %7d/%d %10s %14d %14.4f %9d\n",
			c.Class, c.Mode, c.Tree, c.Recovered, c.Trials, mttr, c.PeerRestarts, c.Availability, c.GiveUps)
	}
	sb.WriteString("mttr = single-fault recovery; peer-restarts = extra incarnations of the *other* " +
		"ses/str component across all measured faults (classic resync co-crashes it; " +
		"microreboot leaves it untouched)\n")
	return sb.String()
}
