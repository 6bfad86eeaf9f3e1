package experiment

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"strings"
	"time"

	mercury "github.com/recursive-restart/mercury"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/orbit"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/runner"
	"github.com/recursive-restart/mercury/internal/sim"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// This file is the fleet-scale campaign: N simulated ground stations, each
// a full mercury.System with its own restart tree and organic failures,
// partitioned across shard kernels and driven in parallel by the sim.Fleet
// epoch scheduler. Stations exchange periodic telemetry beacons with their
// ring neighbor over inter-station links whose latency is derived from the
// constellation geometry (a GEO relay bounce), and that latency is the
// fleet's conservative-lookahead bound: beacons always land at least one
// epoch in the future, so shard kernels never need to roll back. The
// folded result of a campaign is byte-identical for a given configuration
// and seed no matter how many cores execute it.

// geoAltitudeKm is the geostationary orbit altitude the inter-station
// relay bounce transits (up to the relay, back down to the peer).
const geoAltitudeKm = 35786.0

// defaultLinkSeconds is the relay bounce time in seconds (a variable so
// the fractional constant can be converted to a Duration below).
var defaultLinkSeconds = 2 * geoAltitudeKm / orbit.SpeedOfLight

// DefaultLinkLatency is the one-way inter-station message latency via the
// GEO relay: 2 x 35,786 km at the speed of light, ~238.7 ms. It is also
// every fleet's epoch length — the largest epoch the lookahead bound
// allows.
var DefaultLinkLatency = time.Duration(defaultLinkSeconds * float64(time.Second))

// FleetConfig parameterises a fleet campaign. Every station runs the
// escalating oracle. The zero value of every field has a usable default;
// only Stations is required.
type FleetConfig struct {
	// Stations is the constellation size. Required, >= 1.
	Stations int
	// Group is the number of stations co-located on one shard kernel;
	// default 1 (one kernel per station). Grouping trades scheduler
	// overhead against intra-shard parallelism. Station-to-shard placement
	// affects the event schedule, so Group is part of the reproducibility
	// key (unlike Workers, which never is).
	Group int
	// Trees assigns restart trees round-robin across stations; default
	// {"IV"}.
	Trees []string
	// Horizon is the simulated campaign duration after all stations are
	// up; default 60s.
	Horizon time.Duration
	// BaseSeed seeds the campaign; per-shard kernel seeds are sub-derived
	// with runner.SubSeed.
	BaseSeed int64
	// Workers bounds the fleet's shard-execution pool; <= 0 means
	// runtime.GOMAXPROCS(0). Output-neutral.
	Workers int
	// BeaconPeriod is each station's beacon interval; default 5s.
	BeaconPeriod time.Duration
	// FailMTTF is the per-component organic MTTF (lognormal, CV 0.25);
	// zero means the default, 10m. NoFailures is what disables them.
	FailMTTF time.Duration
	// NoFailures disables organic fault injection (pure messaging load).
	NoFailures bool
}

// withDefaults returns cfg with defaults applied, or an error.
func (cfg FleetConfig) withDefaults() (FleetConfig, error) {
	if cfg.Stations < 1 {
		return cfg, fmt.Errorf("experiment: fleet needs >= 1 station, got %d", cfg.Stations)
	}
	if cfg.Group < 1 {
		cfg.Group = 1
	}
	if len(cfg.Trees) == 0 {
		cfg.Trees = []string{"IV"}
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = time.Minute
	}
	if cfg.BeaconPeriod <= 0 {
		cfg.BeaconPeriod = 5 * time.Second
	}
	if cfg.FailMTTF <= 0 {
		cfg.FailMTTF = 10 * time.Minute
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return cfg, nil
}

// shardCount returns the number of shards the constellation partitions
// into.
func (cfg FleetConfig) shardCount() int {
	return (cfg.Stations + cfg.Group - 1) / cfg.Group
}

// xlinkName is the per-station component receiving inter-station beacons.
const xlinkName = "xlink"

// stationAddr renders station i's fleet-global address for a local
// component: "s<i>:<local>". Local addresses never contain ':', so the
// form is unambiguous.
func stationAddr(station int, local string) string {
	return "s" + strconv.Itoa(station) + ":" + local
}

// fleetStation is one station's campaign state: the wired system, the
// beacons it sent since the last epoch barrier, and the deterministic
// counters folded into the campaign result.
type fleetStation struct {
	idx    int
	sys    *mercury.System
	outbox []sim.Parcel // in send order; drained by the fleet's collect

	beaconSeq   uint64
	beaconsSent uint64
	beaconsRecv uint64
}

// xlinkHandler is the beacon terminal: instantly ready, counts inbound
// telemetry. It lives outside the restart tree — the inter-station link
// is infrastructure, not a monitored station component.
type xlinkHandler struct {
	st *fleetStation
}

func (h *xlinkHandler) Start(ctx proc.Context) { ctx.After(0, ctx.Ready) }
func (h *xlinkHandler) Receive(_ proc.Context, m *xmlcmd.Message) {
	if m.Kind() == xmlcmd.KindTelemetry {
		h.st.beaconsRecv++
	}
}

// fleetShard is one shard: a kernel hosting a contiguous slice of
// stations.
type fleetShard struct {
	k        *sim.Kernel
	stations []*fleetStation
}

// collect drains the shard's outboxes into dst, in station order and then
// send order: the fleet's collect function for this shard.
func (sh *fleetShard) collect(dst []sim.Parcel) []sim.Parcel {
	for _, st := range sh.stations {
		dst = append(dst, st.outbox...)
		st.outbox = st.outbox[:0]
	}
	return dst
}

// buildShard constructs and boots shard idx: its kernel (seed sub-derived
// from the campaign seed), its stations and their beacon terminals, and
// the organic-failure laws.
func buildShard(cfg FleetConfig, idx int) (*fleetShard, error) {
	k := sim.New(runner.SubSeed(cfg.BaseSeed, uint64(idx)))
	first := idx * cfg.Group
	count := cfg.Group
	if first+count > cfg.Stations {
		count = cfg.Stations - first
	}
	sh := &fleetShard{k: k}
	systems := make([]*mercury.System, 0, count)
	for j := 0; j < count; j++ {
		g := first + j
		sys, err := mercury.NewSystem(mercury.Config{Kernel: k, TreeName: cfg.Trees[g%len(cfg.Trees)]})
		if err != nil {
			return nil, fmt.Errorf("station %d: %w", g, err)
		}
		st := &fleetStation{idx: g, sys: sys}
		if err := sys.Mgr.Register(xlinkName, func() proc.Handler { return &xlinkHandler{st: st} }); err != nil {
			return nil, fmt.Errorf("station %d: %w", g, err)
		}
		sh.stations = append(sh.stations, st)
		systems = append(systems, sys)
	}
	if err := mercury.BootAll(k, systems); err != nil {
		return nil, fmt.Errorf("shard %d boot: %w", idx, err)
	}
	for _, st := range sh.stations {
		if err := st.sys.Mgr.Start(xlinkName); err != nil {
			return nil, err
		}
	}
	if !cfg.NoFailures {
		// Station by station: priming draws from the shard RNG, so station
		// order is part of the schedule.
		for _, st := range sh.stations {
			laws := make(map[string]fault.Law)
			for _, comp := range st.sys.Components() {
				laws[comp] = fault.LogNormal{M: cfg.FailMTTF, CV: 0.25}
			}
			st.sys.Injector.Arm(laws)
		}
	}
	return sh, nil
}

// beaconOffset is how long after the campaign start station idx sends its
// first beacon: a deterministic stagger across the period.
func beaconOffset(idx int, period time.Duration) time.Duration {
	return time.Duration(idx%97+1) * period / 100
}

// scheduleBeacons arms every station's beacon ticker, aligned to the
// fleet-wide start instant so no cross-shard traffic predates the first
// epoch. Stations beacon their ring successor.
//
// A beacon skips both stations' buses: the inter-station link is its own
// transport, not a hop through either broker. The sender stamps it due one
// link latency after the send and puts it in its outbox; at the next
// barrier the fleet schedules its delivery on the peer's kernel, even when
// the peer shares the sender's shard.
func scheduleBeacons(cfg FleetConfig, shards []*fleetShard, start, end time.Time) {
	var stations []*fleetStation
	for _, sh := range shards {
		stations = append(stations, sh.stations...)
	}
	for _, sh := range shards {
		k := sh.k
		for _, st := range sh.stations {
			st := st
			peer := stations[(st.idx+1)%cfg.Stations]
			if peer == st {
				continue // single-station fleet: no one to beacon
			}
			from := stationAddr(st.idx, xlinkName)
			to := peer.idx / cfg.Group
			var tick func()
			tick = func() {
				now := k.Now()
				if !now.Before(end) {
					return
				}
				st.beaconSeq++
				st.beaconsSent++
				m := xmlcmd.NewTelemetry(from, xlinkName, st.beaconSeq, "fleet_beacon", float64(st.idx), now)
				st.outbox = append(st.outbox, sim.Parcel{
					To:      to,
					At:      now.Add(DefaultLinkLatency),
					Deliver: func() { peer.sys.Mgr.Deliver(m) },
				})
				k.AfterFunc(cfg.BeaconPeriod, tick)
			}
			k.AfterFunc(start.Sub(k.Now())+beaconOffset(st.idx, cfg.BeaconPeriod), tick)
		}
	}
}

// FleetResult is one campaign's outcome. Every field except Workers and
// Wall is a deterministic function of (FleetConfig minus Workers) — Fold
// renders exactly that deterministic subset.
type FleetResult struct {
	Stations int   `json:"stations"`
	Shards   int   `json:"shards"`
	Group    int   `json:"group"`
	Workers  int   `json:"cores"`
	BaseSeed int64 `json:"seed"`

	Horizon     time.Duration `json:"horizon_s"`
	Epoch       time.Duration `json:"epoch_s"`
	LinkLatency time.Duration `json:"latency_s"`

	Epochs  uint64 `json:"epochs"`
	Parcels uint64 `json:"parcels"`
	Events  uint64 `json:"events"`

	Failures    int           `json:"failures"`
	Recoveries  uint64        `json:"recoveries"`
	GiveUps     uint64        `json:"give_ups"`
	BeaconsSent uint64        `json:"beacons_sent"`
	BeaconsRecv uint64        `json:"beacons_recv"`
	Downtime    time.Duration `json:"downtime_s"`
	// Availability is the station-mean A_entire over the horizon.
	Availability float64 `json:"availability"`
	// Digest fingerprints the full per-station outcome vector (FNV-1a
	// over each station's counters in station order), so two runs that
	// agree on aggregates but differ anywhere per-station still fold
	// differently.
	Digest uint64 `json:"digest"`

	// Wall is the real elapsed execution time (excluded from Fold).
	Wall time.Duration `json:"wall_s"`
}

// Fold renders the deterministic byte string the reproducibility gates
// compare: equal configurations and seeds must fold identically on any
// core count.
func (r *FleetResult) Fold() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fleet stations=%d shards=%d group=%d seed=%d horizon=%s epoch=%s latency=%s\n",
		r.Stations, r.Shards, r.Group, r.BaseSeed, r.Horizon, r.Epoch, r.LinkLatency)
	fmt.Fprintf(&sb, "epochs=%d parcels=%d events=%d\n", r.Epochs, r.Parcels, r.Events)
	fmt.Fprintf(&sb, "failures=%d recoveries=%d giveups=%d beacons_sent=%d beacons_recv=%d\n",
		r.Failures, r.Recoveries, r.GiveUps, r.BeaconsSent, r.BeaconsRecv)
	fmt.Fprintf(&sb, "downtime=%s availability=%.6f\n", r.Downtime, r.Availability)
	fmt.Fprintf(&sb, "digest=%016x\n", r.Digest)
	return sb.String()
}

// RunFleet executes one fleet campaign.
func RunFleet(ctx context.Context, cfg FleetConfig) (*FleetResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	wallStart := time.Now()

	// Build and boot shards in parallel — each is self-contained, so this
	// is output-neutral wall-clock speedup, same as trial fan-out.
	nShards := cfg.shardCount()
	shards, err := runner.Run(ctx, runner.Config{Workers: cfg.Workers, BaseSeed: cfg.BaseSeed},
		nShards, func(_ context.Context, i int, _ int64) (*fleetShard, error) {
			return buildShard(cfg, i)
		})
	if err != nil {
		return nil, err
	}
	kernels := make([]*sim.Kernel, nShards)
	for i, sh := range shards {
		kernels[i] = sh.k
	}
	fl := sim.NewFleet(sim.FleetConfig{Epoch: DefaultLinkLatency, Workers: cfg.Workers}, kernels,
		func(i int, dst []sim.Parcel) []sim.Parcel { return shards[i].collect(dst) })

	// Align the campaign to the most advanced shard clock: beacons (the
	// only cross-shard traffic) start strictly after every shard has
	// passed the first epoch edge's base.
	start := fl.Now()
	end := start.Add(cfg.Horizon)
	scheduleBeacons(cfg, shards, start, end)

	if err := fl.RunUntil(end); err != nil {
		return nil, err
	}

	res := &FleetResult{
		Stations:    cfg.Stations,
		Shards:      nShards,
		Group:       cfg.Group,
		Workers:     cfg.Workers,
		BaseSeed:    cfg.BaseSeed,
		Horizon:     cfg.Horizon,
		Epoch:       DefaultLinkLatency,
		LinkLatency: DefaultLinkLatency,
		Epochs:      fl.Epochs(),
		Parcels:     fl.Parcels(),
		Events:      fl.Executed(),
	}
	digest := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		digest.Write(buf[:])
	}
	var availSum float64
	for _, sh := range shards {
		for _, st := range sh.stations {
			st.sys.Injector.Disable()
			out := &st.sys.Outages
			out.CloseAt(end)
			failures := st.sys.Board.Injected()
			res.Failures += failures
			res.Recoveries += uint64(out.Recoveries)
			res.GiveUps += uint64(out.GiveUps)
			res.BeaconsSent += st.beaconsSent
			res.BeaconsRecv += st.beaconsRecv
			res.Downtime += out.Downtime
			availSum += 1 - float64(out.Downtime)/float64(cfg.Horizon.Nanoseconds())
			put(uint64(st.idx))
			put(uint64(failures))
			put(uint64(out.Recoveries))
			put(uint64(out.GiveUps))
			put(uint64(out.Downtime))
			put(st.beaconsSent)
			put(st.beaconsRecv)
		}
	}
	res.Availability = availSum / float64(cfg.Stations)
	res.Digest = digest.Sum64()
	res.Wall = time.Since(wallStart)
	return res, nil
}

// RenderFleet formats a campaign result for the console.
func RenderFleet(r *FleetResult) string {
	eps := float64(r.Events) / r.Wall.Seconds()
	var sb strings.Builder
	fmt.Fprintf(&sb, "fleet campaign — %d stations on %d shards (group %d), %v horizon, seed %d\n",
		r.Stations, r.Shards, r.Group, r.Horizon, r.BaseSeed)
	fmt.Fprintf(&sb, "  epochs %d (quantum %v, link latency %v), cross-shard parcels %d\n",
		r.Epochs, r.Epoch, r.LinkLatency, r.Parcels)
	fmt.Fprintf(&sb, "  events %d in %v wall (%.0f events/sec, %d workers)\n",
		r.Events, r.Wall.Round(time.Millisecond), eps, r.Workers)
	fmt.Fprintf(&sb, "  failures %d, recoveries %d, give-ups %d\n", r.Failures, r.Recoveries, r.GiveUps)
	fmt.Fprintf(&sb, "  beacons sent %d / received %d\n", r.BeaconsSent, r.BeaconsRecv)
	fmt.Fprintf(&sb, "  downtime %v, availability %.4f, digest %016x\n",
		r.Downtime.Round(time.Millisecond), r.Availability, r.Digest)
	return sb.String()
}
