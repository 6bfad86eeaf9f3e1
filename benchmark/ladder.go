package main

import (
	"bufio"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	mercury "github.com/recursive-restart/mercury"
	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/load"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/sim"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// Knock-out ladders: the same traffic pushed through ever more of the
// system, so the difference between two rungs is the self time of the
// layer the upper rung adds. Each rung is the ladder's own short
// measurement with spans off; the residual printed beside the rungs is
// the workload's end-to-end figure minus the top rung — what the ladder
// fails to account for.

// ---- live ladder: microseconds per request at window 1 and at the throughput window ----

// rungCodec is L0: encode and decode each request and its ack once.
func rungCodec(mix []*xmlcmd.Message) float64 {
	acks := make([]*xmlcmd.Message, len(mix))
	for i, m := range mix {
		acks[i] = ackFor(m)
	}
	buf := make([]byte, 0, 512)
	var into xmlcmd.Message
	i := 0
	return probeNs(20000, func() {
		for _, m := range []*xmlcmd.Message{mix[i%len(mix)], acks[i%len(mix)]} {
			buf, _ = xmlcmd.AppendEncode(buf[:0], m)
			_ = xmlcmd.DecodeInto(buf, &into)
		}
		i++
	}) / 1e3
}

// rungFrames is L1: L0 plus bus.FrameWriter/FrameReader over a loopback
// TCP connection to an echo responder — framing and the socket, but no
// broker, no batching and no station.
func rungFrames(mix []*xmlcmd.Message, window int, rungDur time.Duration) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	serverDone := make(chan struct{})
	go func() { // responder: ack every frame until the client hangs up
		defer close(serverDone)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var fr bus.FrameReader
		var fw bus.FrameWriter
		var m xmlcmd.Message
		br := bufio.NewReader(conn)
		ack := xmlcmd.NewAck("echo", gateName, 0, 0, true, "")
		for fr.ReadFrameInto(br, &m) == nil {
			ack.Seq++
			ack.Ack.OfSeq = m.Seq
			if fw.WriteFrame(conn, ack) != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	tokens := make(chan struct{}, window) // one per free window slot
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}
	var acked atomic.Uint64
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var fr bus.FrameReader
		var m xmlcmd.Message
		br := bufio.NewReader(conn)
		for fr.ReadFrameInto(br, &m) == nil {
			acked.Add(1)
			tokens <- struct{}{}
		}
	}()
	var fw bus.FrameWriter
	send := func(until time.Time) {
		for seq := uint64(1); time.Now().Before(until); seq++ {
			<-tokens
			m := mix[seq%uint64(len(mix))]
			m.Seq = seq
			if fw.WriteFrame(conn, m) != nil {
				return
			}
		}
	}
	send(time.Now().Add(rungDur / 4)) // warm-up
	base, t0 := acked.Load(), time.Now()
	send(time.Now().Add(rungDur))
	n, wall := acked.Load()-base, time.Since(t0)
	conn.Close()
	<-readerDone
	<-serverDone
	if n == 0 {
		return 0, fmt.Errorf("frame rung: no acks")
	}
	return float64(wall.Microseconds()) / float64(n), nil
}

// rungBroker is L2: L1 plus the real sharded broker (batching, routing,
// two shards) with echo responder clients in place of the station — the
// gate and its accounting are the workload's own.
func rungBroker(seed int64, window int, rungDur time.Duration) (usPerReq float64, err error) {
	sb, err := bus.ListenSharded("127.0.0.1:0", 2, bus.BrokerConfig{})
	if err != nil {
		return 0, err
	}
	defer sb.Close()
	for _, name := range []string{"rtu", "str", "fedr"} {
		name := name
		var self atomic.Pointer[bus.ShardedClient]
		var seq atomic.Uint64
		c, err := bus.DialSharded(sb.Addrs(), name, bus.ClientConfig{}, func(m *xmlcmd.Message) {
			if c := self.Load(); c != nil && m.Command != nil {
				c.Send(xmlcmd.NewAck(name, m.From, seq.Add(1), m.Seq, true, ""))
			}
		})
		if err != nil {
			return 0, err
		}
		self.Store(c)
		defer c.Close()
	}
	g, err := dialGate(sb.AddrList(), seed, nil)
	if err != nil {
		return 0, err
	}
	defer g.close()
	g.resends = 40
	g.closedLoop(window, time.Now().Add(rungDur/2)) // warm-up; also covers registration
	t0 := time.Now()
	n := g.closedLoop(window, time.Now().Add(rungDur))
	wall := time.Since(t0)
	g.quiesce()
	if n == 0 {
		return 0, fmt.Errorf("broker rung: no acks")
	}
	return float64(wall.Microseconds()) / float64(n), nil
}

// rungStation is L3: the full live station, measured the way the ladder
// measures every rung (a short closed loop, spans off).
func rungStation(g *gate, window int, rungDur time.Duration) float64 {
	sp := g.sp
	g.sp = nil
	defer func() { g.sp = sp }()
	g.closedLoop(window, time.Now().Add(rungDur/4))
	t0 := time.Now()
	n := g.closedLoop(window, time.Now().Add(rungDur))
	wall := time.Since(t0)
	g.quiesce()
	if n == 0 {
		return 0
	}
	return float64(wall.Microseconds()) / float64(n)
}

// liveLadder measures L0–L3 at window 1 and at the throughput window and
// records rungs, layer self times and residuals. e2eW1 and e2eWin are the
// workload's own figures in µs per request; rung is how long each rung
// measures.
func liveLadder(r *result, g *gate, window int, rung time.Duration, e2eW1, e2eWin float64) error {
	l0 := rungCodec(g.mix)
	for _, w := range []struct {
		name   string
		window int
		e2e    float64
	}{{"w1", 1, e2eW1}, {"wN", window, e2eWin}} {
		l1, err := rungFrames(g.mix, w.window, rung)
		if err != nil {
			return err
		}
		l2, err := rungBroker(r.Seed, w.window, rung)
		if err != nil {
			return err
		}
		l3 := rungStation(g, w.window, rung)
		p := "ladder.live." + w.name + "."
		r.setv(p+"L0_codec_us", "us", l0, 1)
		r.setv(p+"L1_frames_us", "us", l1, 1)
		r.setv(p+"L2_broker_us", "us", l2, 1)
		r.setv(p+"L3_station_us", "us", l3, 1)
		r.setv(p+"residual_us", "us", w.e2e-l3, 1)
		fmt.Printf("ladder live %s: codec %.2f + frames %.2f + broker %.2f + station %.2f = %.2f µs/request; end-to-end %.2f, residual %+.2f\n",
			w.name, l0, l1-l0, l2-l1, l3-l2, l3, w.e2e, w.e2e-l3)
		if w.window == 1 {
			r.setv("bus.broker_rtt_us", "us", l2, 1)
			r.setv("rt.station_rtt_us", "us", l3-l2, 1)
		} else {
			r.setv("bus.broker_frames_per_s", "1/s", 2e6/l2, 1) // a request and its ack
			r.setv("gen.trace_overhead_pct", "%", (w.e2e-l3)/l3*100, 1)
		}
	}
	return nil
}

// ---- sim ladder: nanoseconds per executed kernel event ----

// rungKernel is S0: a self-rescheduling chain on a bare sim kernel.
func rungKernel(events int) (float64, error) {
	k := sim.New(1)
	n := 0
	var fn func()
	fn = func() {
		if n++; n < events {
			k.AfterFunc(time.Millisecond, fn)
		}
	}
	k.AfterFunc(0, fn)
	t0 := time.Now()
	if err := k.Run(); err != nil {
		return 0, err
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(k.Executed()), nil
}

// echoHandler answers every message with its own pre-built reply.
type echoHandler struct {
	reply *xmlcmd.Message
	first bool
}

func (h *echoHandler) Start(ctx proc.Context) {
	ctx.After(0, func() {
		ctx.Ready()
		if h.first {
			ctx.After(time.Second, func() { ctx.Send(h.reply) })
		}
	})
}

func (h *echoHandler) Receive(ctx proc.Context, _ *xmlcmd.Message) { ctx.Send(h.reply) }

// rungFabric is S1: S0 plus proc.Manager and bus.Sim — pairs of null
// handlers bouncing one message each through the simulated broker.
func rungFabric(simFor time.Duration) (float64, error) {
	k := sim.New(1)
	clk := clock.Sim{K: k}
	mgr := proc.NewManager(clk, k.Rand(), trace.NewLog())
	b := bus.NewSim(clk, mgr, "mbus")
	mgr.SetTransport(b)
	if err := mgr.Register("mbus", bus.BrokerHandler(0)); err != nil {
		return 0, err
	}
	names := []string{"mbus"}
	for i := 0; i < 8; i++ {
		a, c := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		ha := &echoHandler{reply: xmlcmd.NewCommand(a, c, 1, "noop"), first: true}
		hb := &echoHandler{reply: xmlcmd.NewCommand(c, a, 1, "noop")}
		if err := mgr.Register(a, func() proc.Handler { return ha }); err != nil {
			return 0, err
		}
		if err := mgr.Register(c, func() proc.Handler { return hb }); err != nil {
			return 0, err
		}
		names = append(names, a, c)
	}
	if err := mgr.StartBatch(names); err != nil {
		return 0, err
	}
	if err := k.RunFor(2 * time.Second); err != nil { // boot and first sends
		return 0, err
	}
	base, t0 := k.Executed(), time.Now()
	if err := k.RunFor(simFor); err != nil {
		return 0, err
	}
	n := k.Executed() - base
	if n == 0 {
		return 0, fmt.Errorf("fabric rung: no events")
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
}

// rungStationSim is S2 (recovery disabled) and S3 (FD/REC pinging a
// healthy station): a booted simulated station running idle for simFor.
// It returns the wall time and the events executed.
func rungStationSim(disableRecovery bool, simFor time.Duration) (time.Duration, uint64, error) {
	sys, err := mercury.NewSystem(mercury.Config{Seed: 1, TreeName: "IV", DisableRecovery: disableRecovery})
	if err != nil {
		return 0, 0, err
	}
	if err := sys.Boot(); err != nil {
		return 0, 0, err
	}
	base, t0 := sys.Kernel.Executed(), time.Now()
	if err := sys.RunFor(simFor); err != nil {
		return 0, 0, err
	}
	n := sys.Kernel.Executed() - base
	if n == 0 {
		return 0, 0, fmt.Errorf("station rung: no events")
	}
	return time.Since(t0), n, nil
}

// rungTrials is S4: the Table-4 trial loop itself, spans off.
func rungTrials(seed int64, passes int) (float64, error) {
	cells := table4Cells()
	var events uint64
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		n, err := gridPass(cells, nil, seed+77, p, nil)
		if err != nil {
			return 0, err
		}
		events += n
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(events), nil
}

// simLadder measures S0–S4 and records rungs, self times and the
// residual against the workload's own ns/event. scale shrinks every rung
// (1 = full size).
func simLadder(r *result, scale, e2eNs float64) error {
	s0, err := rungKernel(int(2_000_000 * scale))
	if err != nil {
		return err
	}
	s1, err := rungFabric(time.Duration(float64(20*time.Minute) * scale))
	if err != nil {
		return err
	}
	w2, n2, err := rungStationSim(true, time.Duration(float64(6*time.Hour)*scale))
	if err != nil {
		return err
	}
	w3, n3, err := rungStationSim(false, time.Duration(float64(6*time.Hour)*scale))
	if err != nil {
		return err
	}
	s2 := float64(w2.Nanoseconds()) / float64(n2)
	s3 := float64(w3.Nanoseconds()) / float64(n3)
	s4, err := rungTrials(r.Seed, 1+int(40*scale))
	if err != nil {
		return err
	}
	r.setv("ladder.sim.S0_kernel_ns", "ns", s0, 1)
	r.setv("ladder.sim.S1_fabric_ns", "ns", s1, 1)
	r.setv("ladder.sim.S2_station_ns", "ns", s2, 1)
	r.setv("ladder.sim.S3_fdrec_ns", "ns", s3, 1)
	r.setv("ladder.sim.S4_faults_ns", "ns", s4, 1)
	r.setv("ladder.sim.residual_ns", "ns", e2eNs-s4, 1)
	r.setv("sim.kernel_ns_per_event", "ns", s0, 1)
	r.setv("bus.sim_hop_ns", "ns", s1-s0, 1)
	r.setv("station.handler_ns", "ns", s2-s1, 1)
	// FD/REC add cheap ping events to the same simulated hours, so the S3
	// average can sit below S2; what pinging costs a healthy station is
	// the added wall time over the added events.
	if n3 > n2 {
		r.setv("core.idle_ns_per_event", "ns", float64((w3-w2).Nanoseconds())/float64(n3-n2), int(n3-n2))
	}
	r.setv("gen.trace_overhead_pct", "%", (e2eNs-s4)/s4*100, 1)
	fmt.Printf("ladder sim: kernel %.1f + fabric %.1f + station %.1f + fd/rec %.1f + faults %.1f = %.1f ns/event; end-to-end %.1f, residual %+.1f\n",
		s0, s1-s0, s2-s1, s3-s2, s4-s3, s4, e2eNs, e2eNs-s4)
	return nil
}

// requestRung is S5: the load engine on a healthy tree-IV station — the
// request plane's cost per kernel event and per simulated request, plus
// the engine's own counters.
func requestRung(r *result, seed int64, simSeconds int, e2eNsPerReq float64) error {
	sys, err := mercury.NewSystem(mercury.Config{Seed: seed, TreeName: "IV"})
	if err != nil {
		return err
	}
	if err := sys.Boot(); err != nil {
		return err
	}
	eng, err := load.NewEngine(clock.Sim{K: sys.Kernel}, sys.Bus, sys.Mgr, load.Config{
		Seed:    seed,
		Cohorts: []load.Cohort{{Class: load.ClassPass, Users: 1 << 20, Rate: 5000, Poisson: true}},
	})
	if err != nil {
		return err
	}
	if err := eng.Start(); err != nil {
		return err
	}
	if err := sys.RunFor(3 * time.Second); err != nil {
		return err
	}
	ev0, st0, t0 := sys.Kernel.Executed(), eng.Stats(), time.Now()
	peak := 0
	for i := 0; i < simSeconds; i++ {
		if err := sys.RunFor(time.Second); err != nil {
			return err
		}
		if n := eng.InFlight(); n > peak {
			peak = n
		}
	}
	wall := time.Since(t0)
	st1 := eng.Stats()
	events, reqs := sys.Kernel.Executed()-ev0, st1.Issued-st0.Issued
	if events == 0 || reqs == 0 {
		return fmt.Errorf("request rung: no work")
	}
	perEvent := float64(wall.Nanoseconds()) / float64(events)
	perReq := float64(wall.Nanoseconds()) / float64(reqs)
	r.setv("ladder.sim.S5_load_ns", "ns", perEvent, int(events))
	r.setv("load.ns_per_request", "ns", perReq, int(reqs))
	r.setv("load.events_per_request", "count", float64(events)/float64(reqs), int(reqs))
	r.setv("load.retries", "count", float64(st1.Retries-st0.Retries), int(reqs))
	r.setv("load.shed", "count", float64(st1.Shed-st0.Shed), int(reqs))
	r.setv("load.inflight_peak", "count", float64(peak), simSeconds)
	r.setv("bus.sim_dropped", "count", float64(sys.Bus.Stats().DroppedBroker+sys.Bus.Stats().DroppedDest), int(reqs))
	r.setv("ladder.sim.requests_residual_ns", "ns", e2eNsPerReq-perReq, 1)
	fmt.Printf("ladder sim S5: %.1f ns/event, %.1f ns/request on a healthy station; campaign end-to-end %.1f ns/request, residual %+.1f (faults, construction, drain)\n",
		perEvent, perReq, e2eNsPerReq, e2eNsPerReq-perReq)
	return nil
}
