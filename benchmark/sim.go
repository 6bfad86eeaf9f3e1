package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	mercury "github.com/recursive-restart/mercury"
	"github.com/recursive-restart/mercury/internal/experiment"
	"github.com/recursive-restart/mercury/internal/runner"
)

// simSize sizes the simulator workloads. Simulated work is a fixed
// function of --seconds (so every simulated statistic is a pure function
// of the seed and the run length, and repeats bit for bit), chosen so the
// measured part takes about --seconds on the 2-core host the sizes were
// taken on. All gated numbers use one worker.
type simSize struct {
	segments int // equal back-to-back segments of the grid and request campaigns

	gridPassesPerSec float64 // Table-4 grid passes (35 trials each) per measured second
	gridWarmup       int     // grid passes of one set-up
	oracleTrialsPer  float64 // oracle trials per policy per measured second

	reqTrialsPerSec float64 // request trials per mode per measured second
	reqUsers        int

	fleetStations      int
	fleetSegments      int     // RunFleet calls per run, each about a third of --seconds on the sizing host
	fleetHorizonPer    float64 // simulated seconds of horizon per measured second
	fleetMinHorizon    time.Duration
	fleetMTTFFactor    float64 // FailMTTF = horizon × factor
	fleetWarmup        int     // stations of one set-up campaign
	fleetCheck         int     // stations of the 1-vs-2-worker determinism check
	fleetRecoverPerSec float64 // recoveries the campaign must produce per measured second (0 = unchecked)
	fleetExtraSmall    int     // stations of the scaling extras (traced run)
	fleetExtraLarge    int
	setups             int
	runnerTrials       int     // trials per cell of the 1-vs-2-worker runner record
	ladderScale        float64 // shrinks the traced run's ladder rungs and probes (1 = full size)
}

func defaultSimSize() simSize {
	return simSize{
		segments:         15,
		gridPassesPerSec: 64, gridWarmup: 20, oracleTrialsPer: 0.2,
		reqTrialsPerSec: 2, reqUsers: 1 << 20,
		fleetStations: 2000, fleetSegments: 3, fleetHorizonPer: 10.0 / 3, fleetMinHorizon: 30 * time.Second, fleetMTTFFactor: 1.3, fleetWarmup: 200,
		fleetCheck: 400, fleetRecoverPerSec: 1000.0 / 15, fleetExtraSmall: 1000, fleetExtraLarge: 4000,
		setups: 3, runnerTrials: 40, ladderScale: 1,
	}
}

// segmentsFor is the number of segments a run of the given length is cut
// into: z.segments, fewer for very short runs so a segment stays a
// measurable piece of work.
func (z simSize) segmentsFor(seconds float64) int {
	n := z.segments
	if s := int(seconds); s < n {
		n = s
	}
	if n < 3 {
		n = min(3, z.segments)
	}
	return n
}

// perSegment turns a per-second work rate into whole units per segment.
func (z simSize) perSegment(perSec, seconds float64) int {
	n := int(math.Round(perSec * seconds / float64(z.segmentsFor(seconds))))
	if n < 1 {
		n = 1
	}
	return n
}

// digester accumulates simulated statistics into the digest a golden file
// pins: a change meant only to speed the simulator must leave it alone.
type digester struct {
	lines []string
}

func (d *digester) addf(format string, args ...any) {
	d.lines = append(d.lines, fmt.Sprintf(format, args...))
}

func (d *digester) sum() string {
	h := sha256.Sum256([]byte(strings.Join(d.lines, "\n")))
	return hex.EncodeToString(h[:8])
}

// table4Cells builds the paper's Table-4 grid from the public row list.
func table4Cells() []experiment.Cell {
	var cells []experiment.Cell
	for _, row := range experiment.Table4Rows() {
		comps := []string{"mbus", "ses", "str", "rtu", "fedr", "pbcom"}
		if row.Tree == "I" || row.Tree == "II" {
			comps = []string{"mbus", "ses", "str", "rtu", "fedrcom"}
		}
		for _, comp := range comps {
			var cure []string
			if comp == "pbcom" && row.Policy == mercury.PolicyFaulty {
				cure = []string{"fedr", "pbcom"} // §4.4: curable only by the joint restart
			}
			cells = append(cells, experiment.Cell{Tree: row.Tree, Policy: row.Policy,
				FaultyP: row.FaultyP, Component: comp, Cure: cure})
		}
	}
	return cells
}

// cellStat is one grid cell's running recovery-time sample.
type cellStat struct {
	sum float64
	n   int
}

// gridPass runs one trial of every Table-4 cell, built exactly as the
// campaign does (NewSystem → Boot → MeasureRecovery), and returns the
// kernel events executed. trial numbers the pass so each gets its own
// seeds.
func gridPass(cells []experiment.Cell, stats []cellStat, seed int64, trial int, sp *spanRec) (uint64, error) {
	var events uint64
	for ci, c := range cells {
		op := uint64(trial*len(cells) + ci)
		tseed := runner.SubSeed(seed, op)
		var sys *mercury.System
		var err error
		var d time.Duration
		sp.timed("mercury", "NewSystem", op, func() {
			sys, err = mercury.NewSystem(mercury.Config{Seed: tseed, TreeName: c.Tree, Policy: c.Policy, FaultyP: c.FaultyP})
		})
		if err != nil {
			return 0, err
		}
		sp.timed("station", "Boot", op, func() { err = sys.Boot() })
		if err != nil {
			return 0, fmt.Errorf("%s/%s boot: %w", c.Label(), c.Component, err)
		}
		sp.timed("core", "MeasureRecovery", op, func() {
			d, err = sys.MeasureRecovery(mercury.Fault{Component: c.Component, Cure: c.Cure}, 5*time.Minute)
		})
		if err != nil {
			return 0, fmt.Errorf("%s/%s: %w", c.Label(), c.Component, err)
		}
		if stats != nil {
			stats[ci].sum += d.Seconds()
			stats[ci].n++
		}
		events += sys.Kernel.Executed()
	}
	return events, nil
}

// simSetup times a workload's set-up — building its inputs from the seed
// plus a fixed discarded warm-up campaign — several times, and records
// the median as setup_s.
func simSetup(r *result, times int, setup func(i int) error) error {
	var samples []float64
	for i := 0; i < times; i++ {
		t0 := time.Now()
		if err := setup(i); err != nil {
			return err
		}
		samples = append(samples, time.Since(t0).Seconds())
	}
	r.set("setup_s", "s", samples)
	return nil
}

// checkGolden compares a digest with the one pinned for this seed and
// size. Goldens exist for the default seed at the default size; other
// runs record the digest (two runs of one commit must still agree) but
// have nothing to compare against.
func (r *result) checkGolden(gold goldenFile, key, digest string) {
	if r.Digest == nil {
		r.Digest = map[string]string{}
	}
	r.Digest[key] = digest
	want, ok := gold.lookup(r.Seed, key)
	if !ok {
		return
	}
	r.check("golden."+key, want == digest, "digest %s, golden %s — regenerate benchmark/golden only for an intended model change", digest, want)
}

// runSimRecovery is workload sim-recovery: the Table-4 campaign, then the
// oracle policy campaign.
func runSimRecovery(r *result, z simSize, sp *spanRec, gold goldenFile) error {
	var cells []experiment.Cell
	if err := simSetup(r, z.setups, func(i int) error {
		cells = table4Cells()
		for p := 0; p < z.gridWarmup; p++ {
			if _, err := gridPass(cells, nil, r.Seed+1000+int64(i), p, nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	passes := z.perSegment(z.gridPassesPerSec, r.Seconds)
	stats := make([]cellStat, len(cells))
	var segs []segment
	var events uint64
	trial := 0
	for s := 0; s < z.segmentsFor(r.Seconds); s++ {
		m := startMeter()
		var segEvents uint64
		for p := 0; p < passes; p++ {
			n, err := gridPass(cells, stats, r.Seed, trial, sp)
			if err != nil {
				return err
			}
			segEvents += n
			trial++
		}
		segs = append(segs, m.stop(segEvents))
		events += segEvents
	}
	throughput(r, segs)
	trials := trial * len(cells)
	r.Attempted = trials // every trial recovered, or gridPass returned its error

	// Simulated results: the grid's mean MTTR and its distance from the
	// paper's Table 4.
	var dig digester
	var sum, worst float64
	worstCell := ""
	for ci, c := range cells {
		mttr := stats[ci].sum / float64(stats[ci].n)
		sum += mttr
		dig.addf("%s/%s %.9f", c.Label(), c.Component, mttr)
		if paper := experiment.PaperTable4[c.Label()][c.Component]; paper > 0 {
			if e := math.Abs(mttr-paper) / paper * 100; e > worst {
				worst, worstCell = e, c.Label()+"/"+c.Component
			}
		}
	}
	dig.addf("events %d", events)
	r.setv("recovery_s", "station-s", sum/float64(len(cells)), trials)
	r.setv("user.mttr_err_pct", "%", worst, len(cells))
	r.setv("sim.events_per_trial", "count", float64(events)/float64(trials), trials)
	r.check("recovery.close-to-paper", worst < 15, "cell %s is %.1f %% from the paper's Table 4", worstCell, worst)

	// The policy campaign (cost-aware oracle v2, checkpoint rung,
	// estimator): wall time per simulated request, harm cells digested.
	ocfg := experiment.DefaultOracleConfig()
	ocfg.Trials = int(math.Max(1, math.Round(z.oracleTrialsPer*r.Seconds)))
	ocfg.BaseSeed = r.Seed
	ocfg.Workers = 1
	t0 := time.Now()
	var issued uint64
	harm := map[string]float64{}
	for _, pol := range experiment.OraclePolicies() {
		var cell *experiment.OracleCellResult
		var err error
		sp.timed("core", "RunOracleCell:"+pol.Name, 0, func() {
			cell, err = experiment.RunOracleCell(context.Background(), ocfg, pol)
		})
		if err != nil {
			return err
		}
		issued += cell.Issued
		harm[pol.Name] = cell.HarmScore
		dig.addf("oracle %s failed=%d harm=%.9f", pol.Name, cell.Failed, cell.HarmScore)
	}
	r.setv("core.oracle_campaign_ns_per_req", "ns", float64(time.Since(t0).Nanoseconds())/float64(issued), int(issued))
	r.setv("core.oracle_harm_costaware", "harm", harm["costaware"], ocfg.Trials)
	best := true
	for name, h := range harm {
		if name != "costaware" && h < harm["costaware"] {
			best = false
		}
	}
	r.check("oracle.costaware-least-harm", best, "harm scores %v", harm)
	r.checkGolden(gold, fmt.Sprintf("passes=%d,oracle=%d", trial, ocfg.Trials), dig.sum())
	if sp == nil {
		return nil
	}
	// Traced run: the simulator's layers, laddered and probed.
	if err := simLadder(r, z.ladderScale, 1e9/r.Metrics["ops_per_s"].Value); err != nil {
		return err
	}
	probeSim(r)
	if err := probeCore(r); err != nil {
		return err
	}
	if err := probeMeasurement(r, 1+int(100*z.ladderScale)); err != nil {
		return err
	}
	return runnerSpeedup(r, z)
}

// runnerSpeedup is the first multi-core record of the trial runner: the
// Table-4 grid through experiment.Table4Cfg at one worker and at two.
func runnerSpeedup(r *result, z simSize) error {
	var wall [2]time.Duration
	for i, w := range []int{1, 2} {
		t0 := time.Now()
		if _, err := experiment.Table4Cfg(context.Background(), experiment.RunConfig{Trials: z.runnerTrials, BaseSeed: r.Seed, Workers: w}); err != nil {
			return err
		}
		wall[i] = time.Since(t0)
	}
	r.setv("runner.speedup_2w", "ratio", wall[0].Seconds()/wall[1].Seconds(), 1)

	// station.boot_s: simulated seconds one whole-station boot takes.
	sys, err := mercury.NewSystem(mercury.Config{Seed: r.Seed, TreeName: "IV"})
	if err != nil {
		return err
	}
	t0 := sys.Now()
	if err := sys.Boot(); err != nil {
		return err
	}
	r.setv("station.boot_s", "station-s", sys.Now().Sub(t0).Seconds(), 1)
	return nil
}

// requestModes are the three recovery granularities sim-requests scores.
var requestModes = []experiment.MicroMode{
	{Name: "process", Tree: "III"},
	{Name: "microreboot", Tree: "IIIm"},
	{Name: "group", Tree: "IV"},
}

// runSimRequests is workload sim-requests: the user-harm campaign at the
// EXPERIMENTS.md defaults (2^20 users, 5 000 simulated requests/s, three
// fault episodes with 20 s gaps) for process, microreboot and group
// restart. One operation is one simulated request issued.
func runSimRequests(r *result, z simSize, sp *spanRec, gold goldenFile) error {
	cfg := experiment.DefaultRequestConfig()
	cfg.Users = z.reqUsers
	cfg.Workers = 1
	ctx := context.Background()
	if err := simSetup(r, z.setups, func(i int) error {
		// Set-up: one discarded trial fills the arenas and pools.
		w := cfg
		w.Trials, w.BaseSeed = 1, r.Seed+1000+int64(i)
		_, err := experiment.RunRequestCell(ctx, w, requestModes[1])
		return err
	}); err != nil {
		return err
	}

	cfg.Trials = z.perSegment(z.reqTrialsPerSec, r.Seconds)
	var segs []segment
	var dig digester
	var issued, failed uint64
	outage := map[string][]float64{} // per mode: user-visible outage per episode, simulated seconds
	for s := 0; s < z.segmentsFor(r.Seconds); s++ {
		cfg.BaseSeed = runner.SubSeed(r.Seed, uint64(s))
		m := startMeter()
		var segIssued uint64
		for _, mode := range requestModes {
			var cell *experiment.RequestCellResult
			var err error
			sp.timed("load", "RunRequestCell:"+mode.Name, uint64(s), func() {
				cell, err = experiment.RunRequestCell(ctx, cfg, mode)
			})
			if err != nil {
				return err
			}
			segIssued += cell.Issued
			failed += cell.Failed
			outage[mode.Name] = append(outage[mode.Name], cell.FailedPerEpisode/cfg.Rate)
			dig.addf("seg %d %s issued=%d ok=%d failed=%d shed=%d retries=%d p50=%d p99=%d",
				s, mode.Name, cell.Issued, cell.OK, cell.Failed, cell.Shed, cell.Retries, cell.P50, cell.P99)
		}
		segs = append(segs, m.stop(segIssued))
		issued += segIssued
	}
	throughput(r, segs)
	r.Attempted = cfg.Trials * z.segmentsFor(r.Seconds) * len(requestModes)

	// What users saw of each recovery granularity: failed requests per
	// episode ÷ arrival rate is the outage in simulated seconds.
	r.setMean("recovery_s", "station-s", outage["process"])
	r.setMean("user.micro_recovery_s", "station-s", outage["microreboot"])
	r.setMean("user.group_recovery_s", "station-s", outage["group"])
	r.setv("user.failed_frac", "ratio", float64(failed)/float64(issued), int(issued))
	r.check("requests.microreboot-least-harm",
		mean(outage["microreboot"]) < mean(outage["group"]) && mean(outage["group"]) < mean(outage["process"]),
		"outage per episode: micro %.2f, group %.2f, process %.2f s", mean(outage["microreboot"]), mean(outage["group"]), mean(outage["process"]))
	r.checkGolden(gold, fmt.Sprintf("trials=%d,users=%d", cfg.Trials, cfg.Users), dig.sum())
	if sp == nil {
		return nil
	}
	return requestRung(r, r.Seed, 1+int(60*z.ladderScale), 1e9/r.Metrics["ops_per_s"].Value)
}

// fleetConfig is the constellation sim-fleet measures.
func fleetConfig(z simSize, stations int, seconds float64, seed int64, workers int) experiment.FleetConfig {
	horizon := time.Duration(z.fleetHorizonPer * seconds * float64(time.Second))
	if horizon < z.fleetMinHorizon {
		horizon = z.fleetMinHorizon // shorter, and no failure has time to be recovered from
	}
	return experiment.FleetConfig{
		Stations: stations,
		Group:    25,
		Trees:    []string{"II", "IV", "IIIm"},
		Horizon:  horizon,
		FailMTTF: time.Duration(float64(horizon) * z.fleetMTTFFactor),
		BaseSeed: seed,
		Workers:  workers,
	}
}

// runSimFleet is workload sim-fleet: 2 000 stations on sharded kernels
// with organic failures, one worker.
func runSimFleet(r *result, z simSize, sp *spanRec, gold goldenFile) error {
	ctx := context.Background()
	if err := simSetup(r, z.setups, func(i int) error {
		_, err := experiment.RunFleet(ctx, fleetConfig(z, z.fleetWarmup, r.Seconds, r.Seed+int64(i), 1))
		return err
	}); err != nil {
		return err
	}

	var segs []segment
	var dig digester
	var downtime time.Duration
	var recoveries, giveups, epochs, parcels uint64
	var avail []float64
	for s := 0; s < z.fleetSegments; s++ {
		cfg := fleetConfig(z, z.fleetStations, r.Seconds, runner.SubSeed(r.Seed, uint64(s)), 1)
		m := startMeter()
		var res *experiment.FleetResult
		var err error
		sp.timed("sim", "RunFleet", uint64(s), func() { res, err = experiment.RunFleet(ctx, cfg) })
		if err != nil {
			return err
		}
		segs = append(segs, m.stop(res.Events))
		downtime += res.Downtime
		recoveries += res.Recoveries
		giveups += res.GiveUps
		epochs += res.Epochs
		parcels += res.Parcels
		avail = append(avail, res.Availability)
		dig.addf("%s", res.Fold())
	}
	throughput(r, segs)
	r.Attempted = z.fleetSegments
	if recoveries > 0 {
		r.setv("recovery_s", "station-s", downtime.Seconds()/float64(recoveries), int(recoveries))
	}
	r.setv("user.availability", "ratio", mean(avail), len(avail))
	r.setv("sim.fleet_epochs", "count", float64(epochs), z.fleetSegments)
	r.setv("sim.fleet_parcels", "count", float64(parcels), z.fleetSegments)
	r.setv("core.giveups", "count", float64(giveups), int(recoveries))
	wantRecoveries := uint64(z.fleetRecoverPerSec * r.Seconds)
	r.check("fleet.recoveries", recoveries >= wantRecoveries && recoveries > 0,
		"%d recoveries, want at least %d", recoveries, wantRecoveries)
	sort.Float64s(avail)
	if wantRecoveries > 0 { // the full-size campaign must sit in the regime the workload is for
		r.check("fleet.availability-in-range", avail[0] >= 0.90 && avail[len(avail)-1] <= 0.999,
			"availability %v outside 0.90–0.999: the failure rate no longer exercises recovery", avail)
	}

	// Determinism: a smaller constellation folds identically at 1 and 2
	// workers.
	var folds [2]string
	for i, w := range []int{1, 2} {
		res, err := experiment.RunFleet(ctx, fleetConfig(z, z.fleetCheck, r.Seconds, r.Seed, w))
		if err != nil {
			return err
		}
		folds[i] = res.Fold()
	}
	r.check("fleet.workers-fold-identically", folds[0] == folds[1], "1 worker:\n%s2 workers:\n%s", folds[0], folds[1])
	dig.addf("check %s", folds[0])
	r.checkGolden(gold, fmt.Sprintf("stations=%d,horizon=%s", z.fleetStations, fleetConfig(z, 1, r.Seconds, 0, 1).Horizon), dig.sum())
	if sp == nil {
		return nil
	}
	return fleetExtras(r, z)
}

// fleetExtras are the ungated scaling points of the traced run: the same
// failure-free constellation at two sizes (does a bigger working set cost
// more per event?) and the smaller one again on two workers.
func fleetExtras(r *result, z simSize) error {
	ctx := context.Background()
	run := func(stations, workers int) (*experiment.FleetResult, error) {
		cfg := fleetConfig(z, stations, r.Seconds/2, r.Seed, workers)
		cfg.NoFailures = true
		return experiment.RunFleet(ctx, cfg)
	}
	small, err := run(z.fleetExtraSmall, 1)
	if err != nil {
		return err
	}
	large, err := run(z.fleetExtraLarge, 1)
	if err != nil {
		return err
	}
	small2, err := run(z.fleetExtraSmall, 2)
	if err != nil {
		return err
	}
	nsSmall := float64(small.Wall.Nanoseconds()) / float64(small.Events)
	nsLarge := float64(large.Wall.Nanoseconds()) / float64(large.Events)
	r.setv("sim.fleet_ns_per_event_1k", "ns", nsSmall, int(small.Events))
	r.setv("sim.fleet_ns_per_event_4k", "ns", nsLarge, int(large.Events))
	r.setv("sim.fleet_scale_ratio", "ratio", nsLarge/nsSmall, 1)
	r.setv("sim.fleet_speedup_2w", "ratio", small.Wall.Seconds()/small2.Wall.Seconds(), 1)
	r.check("fleet.extras-fold-identically", small.Fold() == small2.Fold(), "1 and 2 workers fold differently on the failure-free constellation")
	return nil
}
