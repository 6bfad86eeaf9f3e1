package experiment

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	mercury "github.com/recursive-restart/mercury"
	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/load"
	"github.com/recursive-restart/mercury/internal/station"
)

// This file is the oracle-v2 campaign plane (`rrbench oracle`), in three
// parts. The *policy* campaign compares the cost-aware oracle against the
// fixed baselines (always-microreboot, always-process-restart,
// always-checkpoint) on a mixed fault schedule — state-corruption faults
// where only a checkpoint restore beats a full process restart, and plain
// sub faults where a microreboot is unbeatable — scoring each policy by
// measured user harm from the open-loop request plane. The *tree
// validation* campaign boots thousands of seeded random restart trees and
// checks that the analytic model's expected-MTTR ranking matches the
// simulated ground truth (rank correlation), which is what licenses the
// online optimizer to act on analytic scores. The *online proposal* soak
// runs organic failures against a deployed tree, mines the recovery
// episodes into an empirical fault mix, and asks the optimizer to propose
// transformations — the §7 "algorithms for transforming restart trees"
// item made data-driven.

// OracleConfig parameterises the policy-comparison campaign. Trials are
// per policy, with paired seeds across policies.
type OracleConfig struct {
	RunConfig
	// PassRate / FedRate are the two cohorts' aggregate arrivals/s: the
	// pass class exercises the tracker (str), the federation class the
	// translator (fedr) — the two fault sites of the schedule.
	PassRate float64
	FedRate  float64
	// Users per cohort.
	Users int
	// Warmup runs the healthy station before anything is measured.
	Warmup time.Duration
	// TrainEpisodes run before the measured window so the estimator
	// converges; their harm is discarded (every policy gets the same
	// schedule, so the comparison stays paired).
	TrainEpisodes int
	// Episodes is the measured fault-injection count; faults alternate
	// between the state-corruption and plain-sub classes.
	Episodes int
	// Gap of operation after each injection (recovery happens inside it).
	Gap time.Duration
}

// oracleCkptInterval is every policy cell's checkpoint period.
const oracleCkptInterval = 10 * time.Second

// DefaultOracleConfig is the EXPERIMENTS.md "Policy choice" setup.
func DefaultOracleConfig() OracleConfig {
	return OracleConfig{
		RunConfig:     RunConfig{Trials: 4, BaseSeed: 2002},
		PassRate:      600,
		FedRate:       300,
		Users:         1 << 16,
		Warmup:        3 * time.Second,
		TrainEpisodes: 4,
		Episodes:      6,
		Gap:           20 * time.Second,
	}
}

// OraclePolicy is one policy cell of the campaign.
type OraclePolicy struct {
	Name   string
	Policy mercury.Policy
}

// OraclePolicies returns the campaign's cells in report order: oracle v2
// first, then the fixed baselines it must beat.
func OraclePolicies() []OraclePolicy {
	return []OraclePolicy{
		{Name: "costaware", Policy: mercury.PolicyCostAware},
		{Name: "fixed-micro", Policy: mercury.PolicyFixedMicro},
		{Name: "fixed-process", Policy: mercury.PolicyFixedProcess},
		{Name: "fixed-ckpt", Policy: mercury.PolicyFixedCkpt},
	}
}

// oracleFault returns the i-th episode's fault. Even episodes corrupt the
// tracker's externalized target (a microreboot faithfully reattaches to
// the poison — only a pre-fault checkpoint restore or a full tracker
// restart cures); odd episodes are plain translator-session faults where
// the microreboot is the cheapest cure and a checkpoint restore pays its
// floor for nothing.
func oracleFault(i int) mercury.Fault {
	if i%2 == 0 {
		return mercury.Fault{
			Component: "str.track",
			Cure:      []string{"str"},
			StateKey:  station.KeyTrackTarget,
		}
	}
	return mercury.Fault{Component: "fedr.session"}
}

// OracleCellResult aggregates one policy's harm accounting. Comparable, so
// parallel-vs-sequential agreement is plain ==.
type OracleCellResult struct {
	Policy string `json:"policy"`

	Trials   int `json:"trials"`
	Episodes int `json:"episodes"`

	// Retries is always 0: the load engine never re-sends a request.
	Issued  uint64 `json:"issued"`
	OK      uint64 `json:"ok"`
	Failed  uint64 `json:"failed"`
	Shed    uint64 `json:"shed"`
	Retries uint64 `json:"retries"`

	// FailedPerEpisode and DowntimePerEpisode are the two harm currencies
	// (requests lost, broken-session user-seconds), per fault episode.
	FailedPerEpisode   float64 `json:"failed_per_episode"`
	DowntimePerEpisode float64 `json:"user_downtime_per_episode_s"`
	// HarmScore is the campaign's single ranking number: failed requests
	// plus broken-user-seconds per episode. The units differ, but both
	// are "user pain per fault" and the policies are compared on an
	// identical schedule, so the sum is a fair rank.
	HarmScore float64 `json:"harm_score"`
}

// RunOracleCell measures one policy over cfg.Trials paired-seed trials.
func RunOracleCell(ctx context.Context, cfg OracleConfig, pol OraclePolicy) (*OracleCellResult, error) {
	trial := harmTrial{
		sys: mercury.Config{
			TreeName:     "IIIm",
			Policy:       pol.Policy,
			CkptInterval: oracleCkptInterval,
			HarmRates:    map[string]float64{"str": cfg.PassRate, "fedr": cfg.FedRate},
		},
		cohorts: []load.Cohort{
			{Class: load.ClassPass, Users: cfg.Users, Rate: cfg.PassRate, Poisson: true},
			{Class: load.ClassFederation, Users: cfg.Users, Rate: cfg.FedRate, Poisson: true},
		},
		warmup:   cfg.Warmup,
		gap:      cfg.Gap,
		train:    cfg.TrainEpisodes,
		episodes: cfg.Episodes,
		fault:    oracleFault,
		drain:    time.Second,
	}
	if err := trial.check(); err != nil {
		return nil, err
	}
	trials, err := runTrials(ctx, cfg.RunConfig, "oracle "+pol.Name, func(_ int, seed int64) (harm, error) {
		return trial.run(seed)
	})
	if err != nil {
		return nil, err
	}
	res := &OracleCellResult{Policy: pol.Name, Trials: len(trials), Episodes: cfg.Episodes}
	var downtime float64
	for i := range trials {
		tr := &trials[i]
		res.Issued += tr.Stats.Issued
		res.OK += tr.Stats.OK
		res.Failed += tr.Stats.Failed
		res.Shed += tr.Stats.Shed
		downtime += tr.Stats.BrokenUserSeconds
	}
	episodes := float64(len(trials) * cfg.Episodes)
	res.FailedPerEpisode = float64(res.Failed) / episodes
	res.DowntimePerEpisode = downtime / episodes
	res.HarmScore = res.FailedPerEpisode + res.DowntimePerEpisode
	return res, nil
}

// OracleSweep measures every policy with paired seeds, in report order.
func OracleSweep(ctx context.Context, cfg OracleConfig) ([]*OracleCellResult, error) {
	var out []*OracleCellResult
	for _, pol := range OraclePolicies() {
		cell, err := RunOracleCell(ctx, cfg, pol)
		if err != nil {
			return nil, err
		}
		out = append(out, cell)
	}
	return out, nil
}

// RenderOracle formats the sweep as the policy-choice table.
func RenderOracle(cfg OracleConfig, cells []*OracleCellResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Policy choice — mixed faults (state-corruption @ str.track / sub-crash @ fedr.session), "+
		"%d trials/policy, %d train + %d measured episodes, %v gaps, checkpoints every %v\n",
		cfg.Trials, cfg.TrainEpisodes, cfg.Episodes, cfg.Gap, oracleCkptInterval)
	fmt.Fprintf(&sb, "%-14s %12s %14s %16s %12s\n",
		"policy", "issued", "failed/episode", "user-dt/episode", "harm score")
	for _, c := range cells {
		fmt.Fprintf(&sb, "%-14s %12d %14.1f %15.1fs %12.1f\n",
			c.Policy, c.Issued, c.FailedPerEpisode, c.DowntimePerEpisode, c.HarmScore)
	}
	sb.WriteString("harm score = failed requests + broken-session user-seconds per fault episode; " +
		"costaware must rank strictly first (pinned by TestOraclePolicyCriterion)\n")
	return sb.String()
}

// --- Randomized-tree validation -------------------------------------------

// TreeScore is one random tree's pair of numbers: the analytic prediction
// and the simulated ground truth (both weight-averaged expected MTTR over
// the Mercury fault mix, in seconds).
type TreeScore struct {
	Name      string
	Predicted float64
	Measured  float64
}

// TreeValidationResult is the campaign outcome.
type TreeValidationResult struct {
	Scores   []TreeScore
	Spearman float64
}

// runTreeScore generates tree i from its seed, predicts analytically, then
// boots the tree and measures every fault class of the Mercury mix in the
// fleet simulator.
func runTreeScore(i int, seed int64) (TreeScore, error) {
	rng := rand.New(rand.NewSource(seed))
	name := fmt.Sprintf("rand-%d", i)
	tree, err := core.RandomTree(rng, name, station.SplitComponents())
	if err != nil {
		return TreeScore{}, err
	}
	mix := core.MercuryFaultMix()
	ap := station.AnalyticParams()
	predicted, err := core.ExpectedMTTR(tree, mix, ap, core.ModelEscalating, 0)
	if err != nil {
		return TreeScore{}, fmt.Errorf("predict %s: %w", name, err)
	}

	sys, err := boot(mercury.Config{Seed: seed, CustomTree: tree})
	if err != nil {
		return TreeScore{}, err
	}
	var sumW, sumC float64
	for _, fc := range mix {
		if fc.Weight <= 0 {
			continue
		}
		d, err := sys.MeasureRecovery(mercury.Fault{Component: fc.Manifest, Cure: fc.Cure}, 2*time.Minute)
		if err != nil {
			return TreeScore{}, fmt.Errorf("measure %s/%s: %w", name, fc.Manifest, err)
		}
		sumW += fc.Weight
		sumC += fc.Weight * d.Seconds()
		if err := sys.RunFor(3 * time.Second); err != nil {
			return TreeScore{}, err
		}
	}
	return TreeScore{Name: name, Predicted: predicted, Measured: sumC / sumW}, nil
}

// RunTreeValidation scores rc.Trials random trees, tree i generated from
// trial i's seed, and reports the Spearman rank correlation between
// analytic prediction and simulated measurement.
func RunTreeValidation(ctx context.Context, rc RunConfig) (*TreeValidationResult, error) {
	scores, err := runTrials(ctx, rc, "random tree", runTreeScore)
	if err != nil {
		return nil, err
	}
	pred := make([]float64, len(scores))
	meas := make([]float64, len(scores))
	for i, s := range scores {
		pred[i], meas[i] = s.Predicted, s.Measured
	}
	return &TreeValidationResult{Scores: scores, Spearman: spearman(pred, meas)}, nil
}

// RenderTreeValidation summarises the validation campaign.
func RenderTreeValidation(res *TreeValidationResult) string {
	var sb strings.Builder
	n := len(res.Scores)
	fmt.Fprintf(&sb, "Analytic-vs-simulated tree ranking over %d random restart trees\n", n)
	var bestP, bestM, worstP, worstM float64
	for i, s := range res.Scores {
		if i == 0 || s.Predicted < bestP {
			bestP, bestM = s.Predicted, s.Measured
		}
		if i == 0 || s.Predicted > worstP {
			worstP, worstM = s.Predicted, s.Measured
		}
	}
	fmt.Fprintf(&sb, "  best predicted tree:  %.2f s analytic, %.2f s simulated\n", bestP, bestM)
	fmt.Fprintf(&sb, "  worst predicted tree: %.2f s analytic, %.2f s simulated\n", worstP, worstM)
	fmt.Fprintf(&sb, "  Spearman rank correlation: %.3f\n", res.Spearman)
	return sb.String()
}

// ranks assigns average ranks (ties share the mean of their positions).
func ranks(x []float64) []float64 {
	n := len(x)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && x[idx[j+1]] == x[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// spearman is the rank correlation of two equal-length samples.
func spearman(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	rx, ry := ranks(x), ranks(y)
	n := float64(len(x))
	var mx, my float64
	for i := range rx {
		mx += rx[i]
		my += ry[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range rx {
		dx, dy := rx[i]-mx, ry[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// --- Online tree-optimization soak ----------------------------------------

// OnlineConfig parameterises the episode-mining soak.
type OnlineConfig struct {
	// Tree is the deployed restart tree under observation.
	Tree string
	// Horizon is the simulated soak duration.
	Horizon time.Duration

	Seed int64
}

// The online soak's failure regime: an aggressive correlated ses↔str
// pair plus the usual buggy translator. onlineMTTFs sets each component's
// exponential failure law; onlineCureSets maps a component to the true
// cure set of its organic faults (the injection plane's knowledge; a
// component not listed cures alone).
var (
	onlineMTTFs = map[string]time.Duration{
		"ses":  20 * time.Minute,
		"str":  20 * time.Minute,
		"fedr": 30 * time.Minute,
	}
	onlineCureSets = map[string][]string{
		"ses": {"ses", "str"},
		"str": {"ses", "str"},
	}
)

// DefaultOnlineConfig is the EXPERIMENTS.md online-proposal setup: tree
// II′ soaked for four hours under the online failure regime.
func DefaultOnlineConfig() OnlineConfig {
	return OnlineConfig{Tree: "IIp", Horizon: 4 * time.Hour, Seed: 2002}
}

// OnlineProposal is the soak outcome: the mined mix and the optimizer's
// proposed transformation sequence.
type OnlineProposal struct {
	Episodes int
	Mix      []core.FaultClass
	Result   *core.OptimizeResult
}

// RunOnlineProposal soaks the deployed tree under organic failures, mines
// every recovery episode (manifest, curing set, duration) via the fault
// board's cure feed, and asks the optimizer for transformations of that
// tree under the empirical mix.
func RunOnlineProposal(_ context.Context, cfg OnlineConfig) (*OnlineProposal, error) {
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("experiment: online soak needs a positive horizon")
	}
	sys, err := boot(mercury.Config{Seed: cfg.Seed, TreeName: cfg.Tree})
	if err != nil {
		return nil, err
	}
	miner := core.NewOnlineOptimizer()
	sys.Board.OnCure(func(ev fault.CureEvent) {
		miner.Add(core.Episode{
			Manifest: ev.Fault.Manifest,
			CuredBy:  ev.Fault.CureList(),
			Recovery: ev.CuredAt.Sub(ev.InjectedAt),
		})
	})
	sys.Injector.CureFor = func(c string) []string { return onlineCureSets[c] }
	laws := make(map[string]fault.Law, len(onlineMTTFs))
	for c, m := range onlineMTTFs {
		laws[c] = fault.Exponential{M: m}
	}
	sys.Injector.Arm(laws)
	if err := sys.RunFor(cfg.Horizon); err != nil {
		return nil, err
	}
	sys.Injector.Disable()
	if err := sys.RunFor(2 * time.Minute); err != nil {
		return nil, err
	}
	res, err := miner.Propose(sys.REC.Tree(), station.AnalyticParams(),
		core.ModelEscalating, 0, cfg.Horizon, nil)
	if err != nil {
		return nil, err
	}
	return &OnlineProposal{Episodes: miner.Episodes(), Mix: miner.Mix(cfg.Horizon), Result: res}, nil
}

// RenderOnlineProposal formats the soak outcome.
func RenderOnlineProposal(cfg OnlineConfig, p *OnlineProposal) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Online tree optimization — %v soak of tree %s, %d recovery episodes mined\n",
		cfg.Horizon, cfg.Tree, p.Episodes)
	sb.WriteString("empirical mix:\n")
	sb.WriteString(core.RenderMix(p.Mix))
	fmt.Fprintf(&sb, "expected MTTR: %.2f s deployed → %.2f s proposed\n", p.Result.Start, p.Result.Expected)
	for _, s := range p.Result.Steps {
		fmt.Fprintf(&sb, "  %s\n", s)
	}
	if len(p.Result.Steps) == 0 {
		sb.WriteString("  (deployed tree already optimal for the mined mix)\n")
	}
	return sb.String()
}
