package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	mercury "github.com/recursive-restart/mercury"
	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/load"
	"github.com/recursive-restart/mercury/internal/metrics"
	"github.com/recursive-restart/mercury/internal/runner"
)

// This file re-scores the microreboot-vs-restart comparison in the
// currency users actually experience. The microreboot sweep (see
// microreboot.go) measures MTTR and peer collateral; this campaign puts a
// million-user open-loop request plane on the same station and measures
// what each recovery granularity costs those users — failed requests, slow
// requests, and broken-session user-seconds — across repeated fault
// episodes. Raw MTTR differences of a few seconds turn into thousands of
// user-visible failures once an open-loop arrival process keeps issuing
// requests into the outage, which is precisely the re-scoring the
// end-user-effects literature argues for (PAPERS.md).

// RequestConfig parameterises the user-harm campaign.
type RequestConfig struct {
	// Trials per mode. Cells share per-trial seeds (paired comparison).
	Trials int
	// Class is the request class under test; the default (ClassPass)
	// targets the tracker, the component the fault episodes hit.
	Class load.Class
	// Users is the cohort population; Rate its aggregate arrivals/s.
	Users int
	Rate  float64
	// Deadline/Retries forward to the cohort (zero = engine defaults).
	Deadline time.Duration
	Retries  int
	// Warmup runs the healthy station before measurement starts; its
	// samples are discarded.
	Warmup time.Duration
	// Episodes fault injections per trial, each followed by Gap of
	// operation (recovery happens inside the gap; arrivals never pause).
	Episodes int
	Gap      time.Duration

	BaseSeed int64
	// Workers bounds the trial pool; <= 0 means one per CPU.
	Workers int
}

// DefaultRequestConfig is the EXPERIMENTS.md "User-harm" setup.
func DefaultRequestConfig() RequestConfig {
	return RequestConfig{
		Trials:   8,
		Class:    load.ClassPass,
		Users:    1 << 20,
		Rate:     5000,
		Episodes: 3,
		Gap:      20 * time.Second,
		Warmup:   3 * time.Second,
		BaseSeed: 2002,
	}
}

func (cfg *RequestConfig) validate() error {
	if cfg.Trials <= 0 {
		return fmt.Errorf("experiment: non-positive request trial count")
	}
	if cfg.Rate <= 0 {
		return fmt.Errorf("experiment: non-positive request rate")
	}
	if cfg.Episodes <= 0 || cfg.Gap <= 0 {
		return fmt.Errorf("experiment: request campaign needs fault episodes with positive gaps")
	}
	return nil
}

// requestVictim maps the campaign's fault class onto each mode: the
// tracker subcomponent under the microrebootable decomposition, the whole
// tracker process otherwise.
func requestVictim(mode MicroMode) string {
	if mode.micro() {
		return "str.track"
	}
	return "str"
}

// requestTrial is one trial's raw measurement. It is a flat comparable
// value (the histogram is an inline array), so parallel-vs-sequential
// byte-identity is a plain == on aggregated results.
type requestTrial struct {
	Stats   load.Stats
	Hist    metrics.Hist
	Horizon time.Duration
}

// runRequestTrial is the pure (mode, seed) → measurement trial.
func runRequestTrial(cfg RequestConfig, mode MicroMode, seed int64) (requestTrial, error) {
	sys, err := mercury.NewSystem(mercury.Config{
		Seed:     seed,
		TreeName: mode.Tree,
		Policy:   mercury.PolicyEscalating,
	})
	if err != nil {
		return requestTrial{}, err
	}
	if err := sys.Boot(); err != nil {
		return requestTrial{}, fmt.Errorf("boot: %w", err)
	}
	eng, err := load.NewEngine(clock.Sim{K: sys.Kernel}, sys.Bus, sys.Mgr, load.Config{
		Seed: seed,
		Cohorts: []load.Cohort{{
			Class:    cfg.Class,
			Users:    cfg.Users,
			Rate:     cfg.Rate,
			Poisson:  true,
			Deadline: cfg.Deadline,
			Retries:  cfg.Retries,
		}},
	})
	if err != nil {
		return requestTrial{}, err
	}
	if err := eng.Start(); err != nil {
		return requestTrial{}, err
	}
	if err := sys.RunFor(cfg.Warmup); err != nil {
		return requestTrial{}, err
	}
	base := eng.Stats()
	eng.Hist().Reset()

	victim := requestVictim(mode)
	for i := 0; i < cfg.Episodes; i++ {
		if err := sys.Inject(mercury.Fault{Component: victim}); err != nil {
			return requestTrial{}, fmt.Errorf("inject %s: %w", victim, err)
		}
		if err := sys.RunFor(cfg.Gap); err != nil {
			return requestTrial{}, err
		}
	}
	// Stop arrivals and drain so every issued request resolves (ack or
	// deadline) before the books close.
	eng.Stop()
	drain := cfg.Deadline
	if drain <= 0 {
		drain = 100 * time.Millisecond
	}
	drain *= time.Duration(cfg.Retries + 1)
	if err := sys.RunFor(2 * drain); err != nil {
		return requestTrial{}, err
	}

	end := eng.Stats()
	return requestTrial{
		Stats:   subStats(end, base),
		Hist:    *eng.Hist(),
		Horizon: time.Duration(cfg.Episodes) * cfg.Gap,
	}, nil
}

// subStats returns the counter deltas end−base (instantaneous fields keep
// their end value).
func subStats(end, base load.Stats) load.Stats {
	return load.Stats{
		Issued:            end.Issued - base.Issued,
		Attempts:          end.Attempts - base.Attempts,
		OK:                end.OK - base.OK,
		Slow:              end.Slow - base.Slow,
		Failed:            end.Failed - base.Failed,
		Shed:              end.Shed - base.Shed,
		Retries:           end.Retries - base.Retries,
		StaleAcks:         end.StaleAcks - base.StaleAcks,
		BrokenUsers:       end.BrokenUsers,
		BrokenUserSeconds: end.BrokenUserSeconds - base.BrokenUserSeconds,
	}
}

// RequestCellResult aggregates one mode's user-harm accounting. It is a
// comparable value: two campaigns agree iff their cells are ==, which is
// how the parallel-vs-sequential byte-identity check works.
type RequestCellResult struct {
	Mode string `json:"mode"`
	Tree string `json:"tree"`

	Trials   int `json:"trials"`
	Episodes int `json:"episodes"`

	// Summed over trials (measured window only; warm-up excluded).
	Issued  uint64 `json:"issued"`
	OK      uint64 `json:"ok"`
	Slow    uint64 `json:"slow"`
	Failed  uint64 `json:"failed"`
	Shed    uint64 `json:"shed"`
	Retries uint64 `json:"retries"`

	// GoodputPerSec is OK requests per second of measured horizon.
	GoodputPerSec float64 `json:"goodput_per_sec"`
	// FailedPerEpisode is the user-harm headline: how many requests one
	// fault episode costs users under this recovery granularity.
	FailedPerEpisode float64 `json:"failed_per_episode"`
	// SlowPerEpisode counts degraded-but-successful requests per episode.
	SlowPerEpisode float64 `json:"slow_per_episode"`
	// DowntimePerEpisode is broken-session user-seconds per episode.
	DowntimePerEpisode float64 `json:"user_downtime_per_episode_s"`

	// Latency quantiles over the merged (lossless) trial histograms,
	// intended-start accounting: blown deadlines sit in the tail.
	P50  time.Duration `json:"p50_s"`
	P99  time.Duration `json:"p99_s"`
	P999 time.Duration `json:"p999_s"`

	// Hist is the merged latency histogram itself.
	Hist metrics.Hist `json:"-"`
}

// RunRequestCell measures one mode over cfg.Trials trials.
func RunRequestCell(ctx context.Context, cfg RequestConfig, mode MicroMode) (*RequestCellResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	trials, err := runner.Run(ctx,
		runner.Config{Workers: cfg.Workers, BaseSeed: cfg.BaseSeed, Stride: runner.DefaultStride},
		cfg.Trials,
		func(_ context.Context, i int, seed int64) (requestTrial, error) {
			tr, err := runRequestTrial(cfg, mode, seed)
			if err != nil {
				return requestTrial{}, fmt.Errorf("requests %s trial %d: %w", mode.Name, i, err)
			}
			return tr, nil
		})
	if err != nil {
		return nil, err
	}
	res := &RequestCellResult{Mode: mode.Name, Tree: mode.Tree, Trials: len(trials), Episodes: cfg.Episodes}
	var horizon time.Duration
	var downtime float64
	for i := range trials {
		tr := &trials[i]
		res.Issued += tr.Stats.Issued
		res.OK += tr.Stats.OK
		res.Slow += tr.Stats.Slow
		res.Failed += tr.Stats.Failed
		res.Shed += tr.Stats.Shed
		res.Retries += tr.Stats.Retries
		downtime += tr.Stats.BrokenUserSeconds
		horizon += tr.Horizon
		res.Hist.Merge(&tr.Hist)
	}
	episodes := float64(len(trials) * cfg.Episodes)
	if episodes > 0 {
		res.FailedPerEpisode = float64(res.Failed) / episodes
		res.SlowPerEpisode = float64(res.Slow) / episodes
		res.DowntimePerEpisode = downtime / episodes
	}
	if horizon > 0 {
		res.GoodputPerSec = float64(res.OK) / horizon.Seconds()
	}
	if res.Hist.Count() > 0 {
		res.P50, _ = res.Hist.Quantile(0.50)
		res.P99, _ = res.Hist.Quantile(0.99)
		res.P999, _ = res.Hist.Quantile(0.999)
	}
	return res, nil
}

// RequestModes returns the full tree I–V grid the sweep re-scores, in
// tree order with each micro-augmented variant next to its base. The
// microreboot/process/group cells keep their historical mode names (the
// harm-scoring criterion test addresses them by name); the rest are named
// after their tree.
func RequestModes() []MicroMode {
	return []MicroMode{
		{Name: "I", Tree: "I"},
		{Name: "II", Tree: "II"},
		{Name: "IIp", Tree: "IIp"},
		{Name: "process", Tree: "III"},
		{Name: "microreboot", Tree: "IIIm"},
		{Name: "group", Tree: "IV"},
		{Name: "IVm", Tree: "IVm"},
		{Name: "V", Tree: "V"},
	}
}

// RequestSweep measures every cell of the tree I–V grid with paired
// seeds, in report order: the user-harm re-scoring of recovery
// granularity across the paper's whole tree progression.
func RequestSweep(ctx context.Context, cfg RequestConfig) ([]*RequestCellResult, error) {
	var out []*RequestCellResult
	for _, mode := range RequestModes() {
		cell, err := RunRequestCell(ctx, cfg, mode)
		if err != nil {
			return nil, err
		}
		out = append(out, cell)
	}
	return out, nil
}

// VerifyRequests runs one mode's cell sequentially and with the given
// worker count and errors unless the results are bit-identical — the
// request plane's determinism check (histogram merges are lossless and
// seed-ordered, so parallelism must not change a single bucket).
func VerifyRequests(ctx context.Context, cfg RequestConfig, workers int) error {
	if workers <= 1 {
		workers = 4
	}
	mode := MicroModes()[0]
	seq := cfg
	seq.Workers = 1
	par := cfg
	par.Workers = workers
	a, err := RunRequestCell(ctx, seq, mode)
	if err != nil {
		return err
	}
	b, err := RunRequestCell(ctx, par, mode)
	if err != nil {
		return err
	}
	if *a != *b {
		return fmt.Errorf("experiment: request campaign diverged between 1 and %d workers: %+v vs %+v",
			workers, a, b)
	}
	return nil
}

// RenderRequests formats the sweep as the user-harm table.
func RenderRequests(cfg RequestConfig, cells []*RequestCellResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "User-harm re-scoring — %s-class load at %.0f req/s over %d users (%d trials/mode, %d fault episodes + %v gaps)\n",
		cfg.Class, cfg.Rate, cfg.Users, cfg.Trials, cfg.Episodes, cfg.Gap)
	fmt.Fprintf(&sb, "%-12s %-5s %12s %14s %14s %16s %9s %9s %9s\n",
		"mode", "tree", "goodput/s", "failed/episode", "slow/episode", "user-dt/episode", "p50", "p99", "p99.9")
	for _, c := range cells {
		fmt.Fprintf(&sb, "%-12s %-5s %12.0f %14.1f %14.1f %15.1fs %9s %9s %9s\n",
			c.Mode, c.Tree, c.GoodputPerSec, c.FailedPerEpisode, c.SlowPerEpisode, c.DowntimePerEpisode,
			c.P50.Round(time.Millisecond), c.P99.Round(time.Millisecond), c.P999.Round(time.Millisecond))
	}
	sb.WriteString("failed/episode = open-loop requests lost to one fault under this recovery granularity; " +
		"user-dt/episode = broken-session user-seconds (a user is down from their first failure " +
		"until their next success)\n")
	return sb.String()
}
