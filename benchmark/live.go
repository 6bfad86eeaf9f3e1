package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/rt"
	"github.com/recursive-restart/mercury/internal/trace"
)

// liveSize scales the live workloads. The measured phases take their
// length from --seconds; the rest is fixed so a run means the same thing
// on every commit. Tests shrink it.
type liveSize struct {
	scale    float64 // station-seconds per wall-second
	setups   int     // station boots per run (setup_s is their median)
	warmup   time.Duration
	steadyHz float64       // open-loop rate of live-steady
	faultsHz float64       // open-loop rate of live-faults
	window   int           // closed-loop throughput window of live-steady
	rung     time.Duration // how long one ladder rung measures (traced run)
	minGap   time.Duration
	kinds    []string // fault kinds of one live-faults round
}

func defaultLiveSize() liveSize {
	return liveSize{scale: 10, setups: 3, window: 256, rung: 700 * time.Millisecond, warmup: time.Second, steadyHz: 5000, faultsHz: 2000,
		minGap: 300 * time.Millisecond, kinds: faultKinds}
}

// liveStation is a booted live node with the gate client attached.
type liveStation struct {
	node  *rt.Node
	gate  *gate
	scale float64
	boot  time.Duration // rt.StartNode wall time
	setup time.Duration // boot + gate dial + first acknowledged request

	mu     sync.Mutex
	events []stamped // trace.Log events stamped with the benchmark's clock
}

// startStation boots a live station on the 2-shard TCP bus and attaches
// the gate. Set-up ends when the first request has been acknowledged:
// from then on every operation is measurable.
func startStation(tree string, scale float64, seed int64, sp *spanRec) (*liveStation, error) {
	t0 := time.Now()
	var node *rt.Node
	var err error
	sp.timed("rt", "rt.StartNode", 0, func() {
		node, err = rt.StartNode(rt.NodeConfig{TreeName: tree, Scale: scale, BusShards: 2, Seed: seed})
	})
	if err != nil {
		return nil, fmt.Errorf("start node: %w", err)
	}
	st := &liveStation{node: node, scale: scale, boot: time.Since(t0)}
	node.Log.Subscribe(func(e trace.Event) {
		now := time.Now().UnixNano()
		st.mu.Lock()
		st.events = append(st.events, stamped{at: now, ev: e})
		g := st.gate
		st.mu.Unlock()
		if g != nil && e.Kind == trace.ComponentReady && e.Component == "mbus" {
			g.mark.Store(now) // the broker is back: time the first ack after it
		}
	})
	g, err := dialGate(node.BusAddr(), seed, sp)
	if err != nil {
		node.Stop()
		return nil, err
	}
	st.mu.Lock()
	st.gate = g
	st.mu.Unlock()
	// The broker registers the gate asynchronously; resend until the first
	// ack proves the whole path (gate → broker → component → gate) is up.
	limit := time.Now().Add(5 * time.Second)
	for g.acked.Load() == 0 {
		if time.Now().After(limit) {
			st.stop()
			return nil, fmt.Errorf("gate: no acknowledgement within 5 s of boot")
		}
		t := time.Now().UnixNano()
		g.start(t, t)
		time.Sleep(2 * time.Millisecond)
	}
	g.drain()
	g.resetCounts()
	st.setup = time.Since(t0)
	return st, nil
}

func (s *liveStation) stop() {
	if s.gate != nil {
		s.gate.close()
	}
	s.node.Stop()
}

// settle waits, unmeasured, for a station that is mid-restart (a spurious
// one, or the tail of a reconnect storm) to be whole again before the
// run's final AllServing check.
func (s *liveStation) settle() {
	for limit := time.Now().Add(20 * time.Second); !s.node.AllServing() && time.Now().Before(limit); {
		time.Sleep(10 * time.Millisecond)
	}
}

// stationSeconds converts a wall duration to calibrated station time.
func (s *liveStation) stationSeconds(d time.Duration) float64 { return d.Seconds() * s.scale }

// restarts reads every process's restart count and every subcomponent's
// microreboot count (dispatcher-owned state, so inside Disp.Call).
func (s *liveStation) restarts() (procs, subs map[string]int) {
	procs, subs = map[string]int{}, map[string]int{}
	s.node.Disp.Call(func() {
		for _, c := range s.node.Components() {
			if n, err := s.node.Mgr.Restarts(c); err == nil {
				procs[c] = n
			}
		}
		for _, sub := range s.node.Mgr.SubNames() {
			if n, err := s.node.Mgr.SubMicroreboots(sub); err == nil {
				subs[sub] = n
			}
		}
	})
	return procs, subs
}

// bootStations performs the run's set-ups: size.setups boots, all but the
// last torn down again. setup_s, rt.boot_s and (for a fault-free
// workload) the whole-station restart time are medians over them.
func bootStations(r *result, tree string, size liveSize, seed int64, sp *spanRec) (*liveStation, error) {
	var setups, boots []float64
	var st *liveStation
	for i := 0; i < size.setups; i++ {
		if st != nil {
			st.stop()
		}
		var err error
		if st, err = startStation(tree, size.scale, seed+int64(i), sp); err != nil {
			return nil, err
		}
		setups = append(setups, st.setup.Seconds())
		boots = append(boots, st.boot.Seconds())
	}
	r.set("setup_s", "s", setups)
	r.set("rt.boot_s", "s", boots)
	return st, nil
}

// busCounters snapshots the process-wide TCP counters the ledger reads.
type busCounters struct {
	batches, batchFrames, bpDrops uint64
}

func readBusCounters() busCounters {
	return busCounters{
		batches:     bus.M.TCPBatchFrames.Count(),
		batchFrames: bus.M.TCPBatchFrames.Sum(),
		bpDrops:     bus.M.TCPBackpressureDrops.Value(),
	}
}

func (r *result) busLedger(before, after busCounters) {
	if n := after.batches - before.batches; n > 0 {
		r.setv("bus.batch_frames_per_write", "frames", float64(after.batchFrames-before.batchFrames)/float64(n), int(n))
	}
	r.setv("bus.backpressure_drops", "count", float64(after.bpDrops-before.bpDrops), 1)
}

// gateChecks are the request-accounting checks both live workloads make:
// every ack resolved exactly one pending sequence number.
func (r *result) gateChecks(g *gate) {
	r.check("acks.no-duplicates", g.dup.Load() == 0, "%d duplicate acks", g.dup.Load())
	r.check("acks.none-unknown", g.unknown.Load() == 0, "%d acks for sequence numbers never issued", g.unknown.Load())
	r.check("acks.all-resolved", g.finished() == g.ops.Load(), "%d operations started, %d finished", g.ops.Load(), g.finished())
}

// runLiveSteady is workload live-steady: tree IV at Scale 10 on the
// 2-shard TCP bus, the gate's command mix, no faults.
func runLiveSteady(r *result, size liveSize, sp *spanRec) error {
	st, err := bootStations(r, "IV", size, r.Seed, sp)
	if err != nil {
		return err
	}
	defer st.stop()
	// The one recovery a fault-free station has is the restart of every
	// tree's root cell: a whole-station cold start (Table 4, row I).
	boots := r.Metrics["rt.boot_s"].Samples
	whole := make([]float64, len(boots))
	for i, b := range boots {
		whole[i] = b * size.scale
	}
	r.set("recovery_s", "station-s", whole)

	// Commands are resent every 250 ms until acknowledged, for up to 10 s,
	// as an operator's console does, so a spurious restart (the failure
	// detector's 25 ms wall-clock pong timeout is shorter than this host's
	// worst scheduling stalls) costs time, not operations.
	g := st.gate
	g.deadline, g.resends = 250*time.Millisecond, 40
	S := time.Duration(r.Seconds * float64(time.Second))
	bus0 := readBusCounters()

	// Phase 1: closed loop, window 1 — pure path cost, no queueing.
	g.closedLoop(1, time.Now().Add(size.warmup/2))
	g.resetLatencies()
	t1 := time.Now()
	n1 := g.closedLoop(1, time.Now().Add(S*20/100))
	w1UsPerOp := float64(time.Since(t1).Microseconds()) / float64(max(n1, 1))
	g.quiesce()
	lat := g.latencies()
	r.setv("user.rtt_us", "us", quantileNs(lat, 0.5)/1e3, len(lat))
	r.setv("user.rtt_p99_us", "us", quantileNs(lat, 0.99)/1e3, len(lat))

	// Phase 2: closed loop at the throughput window — operations per second
	// and cost per operation, ten equal back-to-back segments.
	g.closedLoop(size.window, time.Now().Add(size.warmup))
	var segs []segment
	for i := 0; i < 10; i++ {
		m := startMeter()
		n := g.closedLoop(size.window, time.Now().Add(S*5/100))
		segs = append(segs, m.stop(n))
	}
	g.quiesce()
	throughput(r, segs)

	// Phase 3: open loop at a fixed rate far below saturation.
	g.openLoop(size.steadyHz, size.warmup, nil)
	g.drain()
	g.resetLatencies()
	ost := g.openLoop(size.steadyHz, S*30/100, nil)
	g.drain()
	lat = g.latencies()
	r.setv("user.open_p50_ms", "ms", quantileNs(lat, 0.5)/1e6, len(lat))
	r.setv("gen.open_p99_ms", "ms", quantileNs(lat, 0.99)/1e6, len(lat))
	r.setv("gen.max_late_ms", "ms", ost.maxLateMs, int(ost.sent))
	r.setv("gen.late_frac", "ratio", float64(ost.lateSends)/float64(ost.sent), int(ost.sent))
	r.busLedger(bus0, readBusCounters())

	ops := g.ops.Load()
	r.Attempted = int(ops)
	r.Failed = int(g.failed())
	r.setv("user.failed_frac", "ratio", float64(g.failed())/float64(ops), int(ops))
	r.setv("gen.resends", "count", float64(g.resent.Load()), int(ops))
	r.gateChecks(g)
	r.check("steady.no-failed-operations", g.failed() == 0, "%d of %d operations were never acknowledged", g.failed(), ops)
	st.settle()
	r.check("steady.all-serving", st.node.AllServing(), "station not fully serving at the end")
	procs, subs := st.restarts()
	total := 0
	for _, n := range procs {
		total += n
	}
	for _, n := range subs {
		total += n
	}
	// Restarts on a fault-free run are the failure detector's false
	// positives; they are reported, not failed (see above).
	r.setv("core.false_restarts", "count", float64(total), 1)
	r.setv("station.acks_per_cmd", "ratio", float64(g.acked.Load()+g.stale.Load())/float64(g.sent()), int(g.sent()))
	if sp == nil {
		return nil
	}
	// Traced run: the layers under this workload, probed and laddered.
	probeCodec(r, g.mix)
	probeFrames(r, g.mix)
	probeDispatcher(r)
	return liveLadder(r, g, size.window, size.rung, w1UsPerOp, 1e6/r.Metrics["ops_per_s"].Value)
}

// faultKinds is one round of live-faults: six process-level faults and
// six sub-component faults.
var faultKinds = []string{
	"rtu", "ses", "str", "fedr", "pbcom", "mbus",
	"ses.cache", "ses.est", "str.cache", "str.track", "fedr.session", "fedr.session",
}

// faultSchedule orders one round from the seed. The mbus fault goes last:
// after a broker restart the clients come back one by one on jittered
// backoff timers, and a component still unreachable then is a (real)
// false positive that must not land inside another episode's measurement.
func faultSchedule(kinds []string, seed int64) []string {
	var out []string
	mbus := 0
	for _, k := range kinds {
		if k == "mbus" {
			mbus++
		} else {
			out = append(out, k)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for ; mbus > 0; mbus-- {
		out = append(out, "mbus")
	}
	return out
}

// nominalStationSeconds is what one round's recoveries add up to on the
// calibrated station (Table 4 row IV plus six sub-second microreboots);
// it only sizes the gaps between episodes so a round fills --seconds.
const nominalStationSeconds = 57.0

// expectedRestarts is the tree cell an escalating oracle restarts first
// for each fault on tree IVm; with a curable fault that is also the last.
func expectedRestarts(kind string) []string {
	switch kind {
	case "ses", "str":
		return []string{"ses", "str"} // tree IV consolidates the resync pair
	}
	if strings.Contains(kind, ".") {
		return nil // a microreboot restarts no process
	}
	return []string{kind}
}

// episodeResult is one measured live fault episode.
type episodeResult struct {
	kind       string
	start, end int64 // wall ns: injection, station serving again
	recovered  bool
	restarted  []string // processes restarted during the episode
	micro      int      // microreboots during the episode
}

// runLiveFaults is workload live-faults: tree IVm at Scale 10 under an
// open-loop stream with a 100 ms deadline and no retries, through one
// seeded round of twelve fault episodes.
func runLiveFaults(r *result, size liveSize, sp *spanRec) error {
	st, err := bootStations(r, "IVm", size, r.Seed, sp)
	if err != nil {
		return err
	}
	defer st.stop()
	g := st.gate
	g.deadline, g.resends = 100*time.Millisecond, 0

	kinds := faultSchedule(size.kinds, r.Seed)
	S := time.Duration(r.Seconds * float64(time.Second))
	nominal := time.Duration(nominalStationSeconds / size.scale * float64(time.Second))
	gap := (S - nominal) / time.Duration(len(kinds)+1)
	if gap < size.minGap {
		gap = size.minGap
	}

	// The fault driver runs beside the sender: it injects, polls
	// AllServing every 2 ms (20 station-ms), and reads the restart counts
	// around each episode.
	var stop atomic.Bool
	var episodes []episodeResult
	var window segment
	var acked0, failed0, sent0 uint64
	bus0 := readBusCounters()
	driverDone := make(chan struct{})
	go func() {
		defer close(driverDone)
		defer stop.Store(true)
		time.Sleep(size.warmup) // discarded warm-up: pools and TCP buffers fill
		g.resetLatencies()
		m := startMeter()
		acked0, failed0, sent0 = g.acked.Load(), g.failed(), g.ops.Load()
		for i, kind := range kinds {
			time.Sleep(gap)
			ep := episodeResult{kind: kind}
			procs0, subs0 := st.restarts()
			ep.start = time.Now().UnixNano()
			var ierr error
			sp.timed("fault", "Node.Inject", uint64(i+1), func() {
				ierr = st.node.Inject(fault.Fault{Manifest: kind})
			})
			if ierr != nil {
				episodes = append(episodes, ep)
				continue
			}
			limit := time.Now().Add(time.Duration(120 / size.scale * float64(time.Second)))
			for time.Now().Before(limit) {
				if st.node.AllServing() {
					ep.recovered = true
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			ep.end = time.Now().UnixNano()
			procs1, subs1 := st.restarts()
			for c, n := range procs1 {
				if n > procs0[c] {
					ep.restarted = append(ep.restarted, c)
				}
			}
			sort.Strings(ep.restarted)
			for c, n := range subs1 {
				ep.micro += n - subs0[c]
			}
			episodes = append(episodes, ep)
		}
		// The window closes one gap after the broker episode: clients
		// reconnecting, and the first restarts that provokes, are inside it.
		time.Sleep(gap)
		window = m.stop(g.acked.Load() - acked0)
		stop.Store(true)
		// What follows is not measured (the sender has stopped): a reconnect
		// storm can take seconds to die down, and the station must be whole
		// before the final check.
		st.settle()
	}()
	ost := g.openLoop(size.faultsHz, 10*time.Minute, &stop)
	<-driverDone
	sentW := g.ops.Load() - sent0
	g.drain()
	failedW := g.failed() - failed0
	lat := g.latencies()

	// End-to-end: goodput and its cost over the whole faulty window.
	throughput(r, []segment{window})
	r.setv("user.failed_frac", "ratio", float64(failedW)/float64(sentW), int(sentW))
	r.setv("user.open_p50_ms", "ms", quantileNs(lat, 0.5)/1e6, len(lat))
	r.setv("gen.open_p99_ms", "ms", quantileNs(lat, 0.99)/1e6, len(lat))
	r.setv("gen.max_late_ms", "ms", ost.maxLateMs, int(ost.sent))
	r.setv("gen.late_frac", "ratio", float64(ost.lateSends)/float64(ost.sent), int(ost.sent))
	r.busLedger(bus0, readBusCounters())

	st.mu.Lock()
	events := append([]stamped(nil), st.events...)
	st.mu.Unlock()
	var proc, micro, detect, decide, restart []float64
	var requests, cures, restarted, microreboots, giveups, traceEvents int
	okEpisodes, falseRestarts := 0, 0
	for i, ep := range episodes {
		d := st.stationSeconds(time.Duration(ep.end - ep.start))
		chain := rebuildEpisode(events, ep.start, ep.end)
		chain.spans(sp, "episode:"+ep.kind, ep.start, ep.end, uint64(i+1))
		want := expectedRestarts(ep.kind)
		extra, missing := diffSets(ep.restarted, want)
		// A process outside the fault's cell may restart only on a detection
		// of its own (a false positive of the failure detector); restarting
		// a wider cell than the tree asks for is an error.
		good := ep.recovered && len(missing) == 0 && (len(extra) == 0 || detectedOther(events, ep, want))
		falseRestarts += len(extra)
		isSub := strings.Contains(ep.kind, ".")
		if isSub {
			good = good && ep.micro >= 1
			micro = append(micro, d)
		} else {
			proc = append(proc, d)
		}
		if good {
			okEpisodes++
		}
		r.check(fmt.Sprintf("episode.%02d.%s", i+1, ep.kind), good,
			"recovered=%v restarted=%v (want %v) microreboots=%d", ep.recovered, ep.restarted, want, ep.micro)
		detect = append(detect, st.stationSeconds(time.Duration(chain.detect)))
		decide = append(decide, st.stationSeconds(time.Duration(chain.decide)))
		if !isSub {
			restart = append(restart, st.stationSeconds(time.Duration(chain.restart)))
		}
		requests += chain.requests
		restarted += len(ep.restarted)
		giveups += chain.giveups
		traceEvents += chain.events
		microreboots += ep.micro
		if ep.recovered {
			cures++
		}
		if ep.kind == "mbus" {
			// The log subscriber marked the instant the broker came back; the
			// gate timed its next ack from there, which needs every client on
			// the path to have reconnected.
			r.setv("bus.reconnect_ms", "ms", float64(g.markLag.Load())/1e6, 1)
		}
	}
	r.set("recovery_s", "station-s", proc)
	r.set("user.micro_recovery_s", "station-s", micro)
	r.set("core.detect_s", "station-s", detect)
	r.set("core.decide_s", "station-s", decide)
	r.set("proc.restart_s", "station-s", restart)
	if n := len(episodes); n > 0 {
		r.setv("proc.restarts_per_episode", "count", float64(restarted)/float64(n), n)
		r.setv("trace.events_per_episode", "count", float64(traceEvents)/float64(n), n)
	}
	r.setv("proc.microreboots", "count", float64(microreboots), len(micro))
	if requests > 0 {
		r.setv("core.cure_ratio", "ratio", float64(cures)/float64(requests), requests)
	}
	r.setv("core.false_restarts", "count", float64(falseRestarts), requests)
	r.setv("core.giveups", "count", float64(giveups), len(episodes))

	// One operation here is a fault episode: it fails if the station did
	// not come back, or came back by restarting the wrong cell. Requests
	// lost while a component is down are the measurement (user.failed_frac
	// and the goodput in ops_per_s), not a failure of the run.
	r.Attempted = len(episodes)
	r.Failed = len(episodes) - okEpisodes
	r.gateChecks(g)
	r.check("faults.some-requests-failed", failedW > 0, "no request failed across %d fault episodes", len(episodes))
	if len(proc) > 0 && len(micro) > 0 {
		r.check("faults.microreboot-faster", median(micro) < median(proc),
			"micro %.2f station-s is not below process %.2f station-s", median(micro), median(proc))
	}
	r.check("faults.all-serving", st.node.AllServing(), "station not fully serving at the end")
	if sp == nil {
		return nil
	}
	return probeStore(r)
}

// diffSets returns the members of got missing from want, and of want
// missing from got.
func diffSets(got, want []string) (extra, missing []string) {
	in := func(xs []string, x string) bool {
		for _, y := range xs {
			if y == x {
				return true
			}
		}
		return false
	}
	for _, g := range got {
		if !in(want, g) {
			extra = append(extra, g)
		}
	}
	for _, w := range want {
		if !in(got, w) {
			missing = append(missing, w)
		}
	}
	return extra, missing
}

// detectedOther reports whether the failure detector reported, during the
// episode, a component that is neither the injected one nor in its cell.
func detectedOther(events []stamped, ep episodeResult, cell []string) bool {
	for _, s := range events {
		if s.at < ep.start || s.at > ep.end || s.ev.Kind != trace.FailureDetected {
			continue
		}
		c := s.ev.Component
		if c == ep.kind || strings.HasPrefix(ep.kind, c+".") {
			continue
		}
		own := false
		for _, m := range cell {
			if m == c {
				own = true
			}
		}
		if !own {
			return true
		}
	}
	return false
}
