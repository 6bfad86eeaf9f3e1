package rt

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/assemble"
	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/store"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/trace/tracetest"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// The real-time tests run the whole station at 100× compression: a
// calibrated 5.5 s recovery takes ~55 ms of wall time.
const testScale = 100

func startNode(t *testing.T, tree string) *Node {
	t.Helper()
	node, err := StartNode(NodeConfig{
		ListenAddr: "127.0.0.1:0",
		Scale:      testScale,
		TreeName:   tree,
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("StartNode: %v", err)
	}
	t.Cleanup(node.Stop)
	return node
}

func TestLiveNodeBoots(t *testing.T) { liveNodeBoots(t, false) }

// liveNodeBoots boots a tree-IV node; with traffic it also runs a few
// hundred acknowledged commands through it.
func liveNodeBoots(t *testing.T, traffic bool) {
	node := startNode(t, "IV")
	if !node.AllServing() {
		t.Fatal("node booted but components not serving")
	}
	if node.BusAddr() == "" {
		t.Fatal("no bus address")
	}
	if traffic {
		dialGate(t, node).roundTrips(t, 300, 8)
	}
}

// TestLiveNodeRecycledEnvelopesPoisoned reruns the boot and the sharded-bus
// scenarios with every recycled envelope overwritten the moment it is
// handed back — inbound ones when Deliver returns, pooled mints when Send
// returns — while commands and acks are in flight. A handler (or a
// transport) that kept a live-path envelope past its delivery reads
// sentinels: it acks to nowhere or forwards garbage, and the gate's
// commands stop being acknowledged.
func TestLiveNodeRecycledEnvelopesPoisoned(t *testing.T) {
	defer xmlcmd.PoisonRecycledForTest()()
	t.Run("boots", func(t *testing.T) { liveNodeBoots(t, true) })
	t.Run("sharded", func(t *testing.T) { liveNodeShardedBus(t, true) })
	t.Run("fan-out", liveCommandValuesLand)
}

// liveCommandValuesLand drives a tree-IV node with a few thousand tune and
// point commands, each carrying values of its own: numbers in the
// encoder's form, which decode as numbers, and numbers in other forms,
// which stay text. rtu fans every tune out as a radio-tune to fedr and on
// to pbcom, and ses keeps pointing and tuning on its own all along. Every
// gate command must be acknowledged once, by the component it went to;
// afterwards str must hold the last target it was sent, rtu the last
// frequency, and the radio behind pbcom the frequency rtu holds. Each
// wrapper copies the values out of a command while it is being delivered;
// under the poison switch a number or string that outlived its envelope
// would read as a sentinel or as an older command's value instead.
func liveCommandValuesLand(t *testing.T) {
	watched := map[string]*lastCommand{} // the dispatch goroutine's
	h, err := NewHost(NodeConfig{ListenAddr: "127.0.0.1:0", Scale: testScale, TreeName: "IV", Seed: 1, BusShards: 2}, assemble.Config{
		Handler: func(name string) func() proc.Handler {
			cmd := map[string]string{station.STR: "point", station.RTU: "tune", station.Pbcom: "radio-tune"}[name]
			if cmd == "" {
				return nil
			}
			f, err := station.Factory(name, time.Now(), nil, station.Split)
			if err != nil {
				t.Fatal(err)
			}
			return func() proc.Handler {
				w := &lastCommand{Handler: f(), cmd: cmd}
				watched[name] = w
				return w
			}
		},
	})
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(h.Stop)
	if err := h.Boot(append(h.Components(), xmlcmd.AddrFD), 5*time.Second); err != nil {
		t.Fatalf("Boot: %v", err)
	}
	g := dialGate(t, h)
	g.mix = nil
	for i := 0; i < 1500; i++ {
		f := 437e6 + float64(i)
		freq := strconv.FormatFloat(f, 'g', -1, 64) // "4.37000001e+08"
		if i%2 == 1 {
			freq = strconv.FormatFloat(f, 'f', -1, 64) // "437000001"
		}
		g.mix = append(g.mix,
			xmlcmd.NewCommand("gate", station.RTU, 0, "tune", "freqHz", freq),
			xmlcmd.NewCommand("gate", station.STR, 0, "point",
				"azRad", strconv.FormatFloat(float64(i)/1000, 'g', -1, 64), "elRad", "0."+strconv.Itoa(100+i)))
	}
	g.settles(t, len(g.mix), 64)

	type tracker interface {
		Target() (az, el float64, ok bool)
	}
	type tuned interface{ FrequencyHz() float64 }
	// A radio-tune is two hops behind rtu, and ses may be between the two.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		var landed bool
		var state string
		h.Disp.Call(func() {
			str, rtu, pbcom := watched[station.STR], watched[station.RTU], watched[station.Pbcom]
			az, el, ok := str.Handler.(tracker).Target()
			rtuHz := rtu.Handler.(tuned).FrequencyHz()
			radioHz := pbcom.Handler.(tuned).FrequencyHz()
			landed = ok && len(str.values) == 2 && len(rtu.values) == 1 && len(pbcom.values) == 1 &&
				az == str.values[0] && el == str.values[1] && rtuHz == rtu.values[0] &&
				radioHz == pbcom.values[0] && radioHz == rtuHz
			state = fmt.Sprintf("str points at (%v, %v, %v) after point %v; rtu is at %v Hz after tune %v; the radio is at %v Hz after radio-tune %v",
				az, el, ok, str.values, rtuHz, rtu.values, radioHz, pbcom.values)
		})
		if landed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(state)
		}
	}
}

// lastCommand wraps a station handler and copies the numbers of the last
// cmd delivered to it out of the envelope, before the handler sees it.
type lastCommand struct {
	proc.Handler
	cmd    string
	values []float64
}

func (w *lastCommand) Receive(ctx proc.Context, m *xmlcmd.Message) {
	if m.Kind() == xmlcmd.KindCommand && m.Command.Name == w.cmd {
		w.values = w.values[:0]
		for _, p := range m.Command.Params {
			f, _ := m.Command.FloatParam(p.Key)
			w.values = append(w.values, f)
		}
	}
	w.Handler.Receive(ctx, m)
}

func TestLiveRecoveryFromKill(t *testing.T) {
	node := startNode(t, "IV")
	rec := tracetest.Record(node.Log)
	if err := node.Inject(fault.Fault{Manifest: station.RTU}); err != nil {
		t.Fatal(err)
	}
	if err := node.WaitRecovered(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	var restarts int
	node.Disp.Call(func() { restarts, _ = node.Mgr.Restarts(station.RTU) })
	if restarts != 1 {
		t.Fatalf("rtu restarted %d times", restarts)
	}
	recovered := rec.Filter(func(e trace.Event) bool {
		return e.Kind == trace.ComponentReady && e.Component == station.RTU
	})
	if len(recovered) == 0 || recovered[0].Count != 2 {
		t.Fatalf("rtu ready events after the kill = %v, want incarnation 2 first", recovered)
	}
}

// TestLiveBrokerOutageRecovery: a broker fault costs the mbus cell and
// nothing else. The station reads whole the instant mbus is ready, which is
// before any client that missed the listeners' return would be probed, so
// the test keeps watching the trace for five ping periods after every
// component-ready mbus: no restart may be requested and no process killed
// outside the mbus cell, and 50 ms of wall time after ready every client
// the host dialled is connected again.
func TestLiveBrokerOutageRecovery(t *testing.T) {
	const scale = 10
	node, err := StartNode(NodeConfig{ListenAddr: "127.0.0.1:0", Scale: scale, TreeName: "IVm", Seed: 1, BusShards: 2})
	if err != nil {
		t.Fatalf("StartNode: %v", err)
	}
	t.Cleanup(node.Stop)
	events := make(chan trace.Event, 256) // a round logs a dozen events; the test drains as they come
	node.Log.Subscribe(func(e trace.Event) {
		switch e.Kind {
		case trace.ComponentReady, trace.RestartRequested, trace.ComponentKilled:
			events <- e
		}
	})
	watch := 5 * FDParamsForScale(scale).PingPeriod / scale
	clients := append(node.Components(), xmlcmd.AddrFD)
	for round := 1; round <= 5; round++ {
		if err := node.Inject(fault.Fault{Manifest: station.MBus}); err != nil {
			t.Fatal(err)
		}
		limit := time.After(30 * time.Second)
		var connected, done <-chan time.Time // armed by component-ready mbus
	watching:
		for {
			select {
			case e := <-events:
				switch {
				case e.Component != station.MBus && e.Kind != trace.ComponentReady:
					t.Fatalf("round %d: %v during a broker outage", round, e)
				case e.Component == station.MBus && e.Kind == trace.ComponentReady:
					connected, done = time.After(50*time.Millisecond), time.After(watch)
				}
			case <-connected:
				for _, name := range clients {
					if node.Client(name).(interface{ Disconnected() bool }).Disconnected() {
						t.Errorf("round %d: %s still disconnected 50 ms after mbus was ready", round, name)
					}
				}
			case <-done:
				break watching
			case <-limit:
				t.Fatalf("round %d: mbus not ready again in 30 s", round)
			}
		}
		if err := node.WaitRecovered(time.Second); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestLiveCorrelatedTrackerRecovery(t *testing.T) {
	node := startNode(t, "IV")
	if err := node.Inject(fault.Fault{Manifest: station.SES}); err != nil {
		t.Fatal(err)
	}
	if err := node.WaitRecovered(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Consolidated cell: both trackers restarted together.
	for _, c := range []string{station.SES, station.STR} {
		var n int
		node.Disp.Call(func() { n, _ = node.Mgr.Restarts(c) })
		if n != 1 {
			t.Fatalf("%s restarted %d times", c, n)
		}
	}
}

func TestUnknownTreeRejected(t *testing.T) {
	if _, err := StartNode(NodeConfig{TreeName: "nope", Scale: testScale}); err == nil {
		t.Fatal("unknown tree accepted")
	}
}

// TestFailedStartLeavesNoGoroutines pins the start-up tear-down: whatever
// fails after the dispatcher exists — the assembly (unknown tree, a
// checkpoint interval without micro mode, unknown policy) or opening the
// fabric — the host stops it, and closes what it opened, before returning
// the error.
func TestFailedStartLeavesNoGoroutines(t *testing.T) {
	bad := []NodeConfig{
		{TreeName: "nope"},
		{TreeName: "IV", CkptInterval: time.Second},
		{TreeName: "IV", OracleName: "ghost"},
		{TreeName: "IV", ListenAddr: "127.0.0.1:99999999"},
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		cfg := bad[i%len(bad)]
		cfg.Scale = testScale
		if _, err := StartNode(cfg); err == nil {
			t.Fatalf("%+v accepted", cfg)
		}
	}
	// Stop waits for the dispatcher; only already-exiting goroutines of
	// earlier tests may still be counted, and those only go away.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before 50 failed starts, %d after", before, after)
	}
}

// TestAllServingCoversTheNodesOwnComponents: the health check reads the
// assembled component list, so it follows the layout whatever the tree is
// called, and a dead component of either layout shows.
func TestAllServingCoversTheNodesOwnComponents(t *testing.T) {
	for tree, victim := range map[string]string{"II": station.Fedrcom, "IIp": station.Pbcom} {
		node := startNode(t, tree)
		if !node.AllServing() {
			t.Fatalf("tree %s: not serving after boot", tree)
		}
		node.Disp.Call(func() { _ = node.Mgr.Kill(victim, "test") })
		if node.AllServing() {
			t.Fatalf("tree %s: AllServing with %s dead", tree, victim)
		}
		node.Stop()
	}
}

func TestDispatcherCallAndStop(t *testing.T) {
	d := NewDispatcher()
	n := 0
	d.Call(func() { n = 42 })
	if n != 42 {
		t.Fatal("Call did not run")
	}
	d.Stop()
	d.Stop() // idempotent
	d.Call(func() { n = 7 })
	d.Post(func() { n = 7 })
	d.PostMessage(xmlcmd.NewPing("a", "b", 1, 1))
	if n != 42 {
		t.Fatal("post ran after Stop")
	}
}

// TestDispatcherOrder: functions and messages share one queue and run in
// the order they were posted, across batch boundaries and a full queue.
func TestDispatcherOrder(t *testing.T) {
	d := NewDispatcher()
	defer d.Stop()
	var got []uint64
	d.DeliverTo(func(m *xmlcmd.Message) bool { got = append(got, m.Seq); return true })
	const n = 5 * queueCap
	for i := uint64(0); i < n; i++ {
		if i%2 == 0 {
			i := i
			d.Post(func() { got = append(got, i) })
		} else {
			d.PostMessage(xmlcmd.NewPing("a", "b", i, 0))
		}
	}
	d.Call(func() {})
	if len(got) != n {
		t.Fatalf("ran %d posts, want %d", len(got), n)
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("post %d ran in position %d", seq, i)
		}
	}
}

// TestDispatcherStopReleasesProducers: producers blocked on a full queue
// return when the dispatcher stops, and their posts are dropped.
func TestDispatcherStopReleasesProducers(t *testing.T) {
	d := NewDispatcher()
	d.DeliverTo(func(*xmlcmd.Message) bool { return true })
	entered, release := make(chan struct{}), make(chan struct{})
	d.Post(func() { close(entered); <-release })
	<-entered // the loop is busy: nothing drains from here on
	var ran atomic.Int64
	var producers sync.WaitGroup
	for p := 0; p < 4; p++ {
		producers.Add(1)
		go func() {
			defer producers.Done()
			for i := 0; i < queueCap; i++ {
				d.Post(func() { ran.Add(1) })
				d.PostMessage(xmlcmd.NewPing("a", "b", 1, 1))
			}
		}()
	}
	stopped := make(chan struct{})
	go func() { d.Stop(); close(stopped) }()
	producers.Wait() // 8×queueCap posts cannot fit: only Stop lets them return
	close(release)
	<-stopped
	if ran.Load() != 0 {
		t.Fatalf("%d posts ran after Stop", ran.Load())
	}
}

func TestClockScaling(t *testing.T) {
	d := NewDispatcher()
	defer d.Stop()
	c := Clock{D: d, Scale: 100}
	done := make(chan time.Time, 1)
	start := time.Now()
	c.Schedule(2*time.Second, fnEvent(func() { done <- time.Now() }))
	select {
	case at := <-done:
		if el := at.Sub(start); el > 500*time.Millisecond {
			t.Fatalf("scaled 2s fired after %v of wall time", el)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("scaled timer never fired")
	}
}

// TestLeaseExpiryScaled runs the store's lease contract on the clock a Host
// gives its store: compressed wall time, the sweeper ticking on a live
// dispatcher while the test goroutine reads, under the race detector.
func TestLeaseExpiryScaled(t *testing.T) {
	d := NewDispatcher()
	defer d.Stop()
	s := store.New(Clock{D: d, Scale: 100}, store.Options{SweepPeriod: 500 * time.Millisecond})
	defer s.Close()
	l, err := s.Acquire("session/epoch", "ses", 2*time.Second)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if _, err := l.Put([]byte("epoch")); err != nil {
		t.Fatalf("put: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweeper never reclaimed the expired lease")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, ok := s.Get("session/epoch"); ok {
		t.Fatal("value survived lease expiry")
	}
	if _, err := s.Acquire("session/epoch", "other", time.Second); err != nil {
		t.Fatalf("acquire after scaled expiry: %v", err)
	}
}

// TestDerivedWindows pins FD's re-report throttle and REC's persist
// window and ready grace, which follow the ping timings, at the
// simulator's defaults and at the live runtimes' time-compressed detector
// (DESIGN.md §16).
func TestDerivedWindows(t *testing.T) {
	for _, c := range []struct {
		name                     string
		fd                       core.FDParams
		reReport, persist, grace time.Duration
	}{
		{"simulator", core.DefaultFDParams(), 2 * time.Second, 5 * time.Second, 1500 * time.Millisecond},
		{"scale 1", FDParamsForScale(1), 2 * time.Second, 5 * time.Second, 1500 * time.Millisecond},
		{"scale 10", FDParamsForScale(10), 2 * time.Second, 5 * time.Second, 1500 * time.Millisecond},
		{"scale 50", FDParamsForScale(50), 5 * time.Second, 10 * time.Second, 3750 * time.Millisecond},
		{"scale 100", FDParamsForScale(100), 10 * time.Second, 20 * time.Second, 7500 * time.Millisecond},
	} {
		if r, p, g := c.fd.ReReportInterval(), c.fd.PersistWindow(), c.fd.ReadyGrace(); r != c.reReport || p != c.persist || g != c.grace {
			t.Errorf("%s: re-report/persist/grace %v/%v/%v, want %v/%v/%v", c.name, r, p, g, c.reReport, c.persist, c.grace)
		}
	}
}

// TestLiveNodeShardedBus boots a station over a two-shard mbus fabric,
// kills one broker shard mid-run, and verifies the station rides out the
// partial-bus outage: the dead shard's traffic parks and recovers once
// the shard restarts, and component recovery still works end to end.
func TestLiveNodeShardedBus(t *testing.T) { liveNodeShardedBus(t, false) }

func liveNodeShardedBus(t *testing.T, traffic bool) {
	node, err := StartNode(NodeConfig{
		ListenAddr: "127.0.0.1:0",
		Scale:      testScale,
		TreeName:   "IV",
		Seed:       1,
		BusShards:  2,
	})
	if err != nil {
		t.Fatalf("StartNode: %v", err)
	}
	t.Cleanup(node.Stop)
	if !node.AllServing() {
		t.Fatal("sharded node booted but components not serving")
	}
	if !strings.Contains(node.BusAddr(), ",") {
		t.Fatalf("sharded bus address %q not a shard list", node.BusAddr())
	}

	// Kill one broker shard (a bus-fabric fault, not a component fault):
	// only the addresses hashing to it go dark. The kill and restart act
	// on the fabric directly; nothing serialises them with an mbus-cell
	// restart, which reopens every shard anyway.
	if n := len(node.fabric.Addrs()); n != 2 {
		t.Fatalf("%d-shard fabric, want 2", n)
	}
	var g *testGate
	if traffic {
		g = dialGate(t, node)
		g.roundTrips(t, 300, 8)
	}
	if err := node.fabric.KillShard(0); err != nil {
		t.Fatal(err)
	}
	if traffic {
		_ = g.run(100, 8, 20*time.Millisecond) // commands in flight into the dead shard; most are lost
	}
	time.Sleep(100 * time.Millisecond)
	if err := node.fabric.RestartShard(0); err != nil {
		t.Fatal(err)
	}
	if err := node.WaitRecovered(30 * time.Second); err != nil {
		t.Fatalf("station did not settle after shard kill/restart: %v", err)
	}
	if traffic {
		g.settles(t, 300, 8)
	}

	// End-to-end recovery still works over the healed fabric.
	if err := node.Inject(fault.Fault{Manifest: station.RTU}); err != nil {
		t.Fatal(err)
	}
	if err := node.WaitRecovered(30 * time.Second); err != nil {
		t.Fatal(err)
	}
}
