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

// RequestConfig parameterises the user-harm campaign. Cells share
// per-trial seeds (paired comparison).
type RequestConfig struct {
	RunConfig
	// Users is the cohort population; Rate its aggregate arrivals/s.
	Users int
	Rate  float64
	// Warmup runs the healthy station before measurement starts; its
	// samples are discarded.
	Warmup time.Duration
	// Episodes fault injections per trial, each followed by Gap of
	// operation (recovery happens inside the gap; arrivals never pause).
	Episodes int
	Gap      time.Duration
}

// RequestClass is the request class under test: pass-class requests
// target the tracker, the component the fault episodes hit. They run at
// the engine's deadline (load.Deadline, 100 ms); the engine never retries.
const RequestClass = load.ClassPass

// DefaultRequestConfig is the EXPERIMENTS.md "User-harm" setup.
func DefaultRequestConfig() RequestConfig {
	return RequestConfig{
		RunConfig: RunConfig{Trials: 8, BaseSeed: 2002},
		Users:     1 << 20,
		Rate:      5000,
		Episodes:  3,
		Gap:       20 * time.Second,
		Warmup:    3 * time.Second,
	}
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

// harmTrial is the user-harm trial of both the request and the policy
// campaign: boot the station, start the open-loop load, warm up, run the
// training episodes (their harm is discarded), then the measured ones —
// each injects fault(i) and runs gap — and finally stop arrivals and run
// drain, so every issued request resolves (ack or deadline) before the
// books close.
type harmTrial struct {
	sys             mercury.Config
	cohorts         []load.Cohort
	warmup, gap     time.Duration
	train, episodes int
	fault           func(episode int) mercury.Fault
	drain           time.Duration
}

// harm is one trial's raw measurement. It is a flat comparable value (the
// histogram is an inline array), so parallel-vs-sequential byte-identity
// is a plain == on aggregated results.
type harm struct {
	Stats   load.Stats
	Hist    metrics.Hist
	Horizon time.Duration
}

func (h harmTrial) check() error {
	if h.episodes <= 0 || h.gap <= 0 {
		return fmt.Errorf("experiment: a user-harm campaign needs fault episodes with positive gaps")
	}
	return nil
}

// run is the pure seed → measurement trial.
func (h harmTrial) run(seed int64) (harm, error) {
	cfg := h.sys
	cfg.Seed = seed
	sys, err := boot(cfg)
	if err != nil {
		return harm{}, err
	}
	eng, err := load.NewEngine(clock.Sim{K: sys.Kernel}, sys.Bus, sys.Mgr, load.Config{Seed: seed, Cohorts: h.cohorts})
	if err != nil {
		return harm{}, err
	}
	if err := eng.Start(); err != nil {
		return harm{}, err
	}
	if err := sys.RunFor(h.warmup); err != nil {
		return harm{}, err
	}
	var base load.Stats
	for i := 0; i < h.train+h.episodes; i++ {
		if i == h.train {
			base = eng.Stats()
			eng.Hist().Reset()
		}
		if err := sys.Inject(h.fault(i)); err != nil {
			return harm{}, fmt.Errorf("inject episode %d: %w", i, err)
		}
		if err := sys.RunFor(h.gap); err != nil {
			return harm{}, err
		}
	}
	eng.Stop()
	if err := sys.RunFor(h.drain); err != nil {
		return harm{}, err
	}
	return harm{
		Stats:   subStats(eng.Stats(), base),
		Hist:    *eng.Hist(),
		Horizon: time.Duration(h.episodes) * h.gap,
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
	// Retries is always 0: the load engine never re-sends a request.
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
	victim := mercury.Fault{Component: requestVictim(mode)}
	trial := harmTrial{
		sys:      mercury.Config{TreeName: mode.Tree, Policy: mercury.PolicyEscalating},
		cohorts:  []load.Cohort{{Class: RequestClass, Users: cfg.Users, Rate: cfg.Rate, Poisson: true}},
		warmup:   cfg.Warmup,
		gap:      cfg.Gap,
		episodes: cfg.Episodes,
		fault:    func(int) mercury.Fault { return victim },
		drain:    2 * load.Deadline,
	}
	if err := trial.check(); err != nil {
		return nil, err
	}
	trials, err := runTrials(ctx, cfg.RunConfig, "requests "+mode.Name, func(_ int, seed int64) (harm, error) {
		return trial.run(seed)
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
		downtime += tr.Stats.BrokenUserSeconds
		horizon += tr.Horizon
		res.Hist.Merge(&tr.Hist)
	}
	episodes := float64(len(trials) * cfg.Episodes)
	res.FailedPerEpisode = float64(res.Failed) / episodes
	res.SlowPerEpisode = float64(res.Slow) / episodes
	res.DowntimePerEpisode = downtime / episodes
	res.GoodputPerSec = float64(res.OK) / horizon.Seconds()
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
		RequestClass, cfg.Rate, cfg.Users, cfg.Trials, cfg.Episodes, cfg.Gap)
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
