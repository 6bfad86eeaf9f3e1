package proc

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/sim"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// testComp is a minimal handler: ready after startup*stretch, replies pong
// to pings once ready, records received messages.
type testComp struct {
	startup  time.Duration
	received []*xmlcmd.Message
	ready    bool
	startGen int
}

func (tc *testComp) Start(ctx Context) {
	tc.startGen = ctx.Incarnation()
	d := time.Duration(float64(tc.startup) * ctx.Stretch())
	ctx.After(d, func() {
		tc.ready = true
		ctx.Ready()
	})
}

func (tc *testComp) Receive(ctx Context, m *xmlcmd.Message) {
	tc.received = append(tc.received, m)
	if m.Kind() == xmlcmd.KindPing && tc.ready {
		ctx.Send(ctx.Pool().Pong(ctx.Name(), m, ctx.Incarnation()))
	}
}

// directTransport delivers straight back into the manager.
type directTransport struct{ mgr *Manager }

func (d directTransport) Send(m *xmlcmd.Message) { d.mgr.Deliver(m) }

func newTestManager(t *testing.T) (*Manager, *sim.Kernel) {
	t.Helper()
	k := sim.New(11)
	mgr := NewManager(clock.Sim{K: k}, rand.New(rand.NewSource(1)), trace.NewLog())
	mgr.SetTransport(directTransport{mgr: mgr})
	return mgr, k
}

func TestStartAndReady(t *testing.T) {
	mgr, k := newTestManager(t)
	tc := &testComp{startup: 3 * time.Second}
	if err := mgr.Register("a", func() Handler { return tc }); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := mgr.Start("a"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	st, _ := mgr.State("a")
	if st != Starting {
		t.Fatalf("state = %v, want Starting", st)
	}
	if err := k.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if mgr.Serving("a") {
		t.Fatal("serving before startup complete")
	}
	if err := k.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !mgr.Serving("a") {
		t.Fatal("not serving after startup")
	}
	gen, _ := mgr.Incarnation("a")
	if gen != 1 {
		t.Fatalf("incarnation = %d, want 1", gen)
	}
}

func TestRegisterDuplicate(t *testing.T) {
	mgr, _ := newTestManager(t)
	_ = mgr.Register("a", func() Handler { return &testComp{} })
	if err := mgr.Register("a", func() Handler { return &testComp{} }); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("err = %v, want ErrAlreadyExists", err)
	}
}

func TestUnknownProcessErrors(t *testing.T) {
	mgr, _ := newTestManager(t)
	if err := mgr.Start("ghost"); !errors.Is(err, ErrUnknownProcess) {
		t.Fatalf("Start ghost = %v", err)
	}
	if err := mgr.Kill("ghost", ""); !errors.Is(err, ErrUnknownProcess) {
		t.Fatalf("Kill ghost = %v", err)
	}
	if _, err := mgr.State("ghost"); !errors.Is(err, ErrUnknownProcess) {
		t.Fatalf("State ghost = %v", err)
	}
	if err := mgr.Restart([]string{"ghost"}); !errors.Is(err, ErrUnknownProcess) {
		t.Fatalf("Restart ghost = %v", err)
	}
}

func TestDoubleStartRejected(t *testing.T) {
	mgr, _ := newTestManager(t)
	_ = mgr.Register("a", func() Handler { return &testComp{startup: time.Second} })
	_ = mgr.Start("a")
	if err := mgr.Start("a"); !errors.Is(err, ErrNotRunnable) {
		t.Fatalf("second Start = %v, want ErrNotRunnable", err)
	}
}

func TestKillIsFailSilent(t *testing.T) {
	mgr, k := newTestManager(t)
	tc := &testComp{startup: time.Second}
	_ = mgr.Register("a", func() Handler { return tc })
	_ = mgr.Start("a")
	_ = k.RunFor(2 * time.Second)
	if err := mgr.Kill("a", "SIGKILL"); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	st, _ := mgr.State("a")
	if st != Dead {
		t.Fatalf("state = %v, want Dead", st)
	}
	n := len(tc.received)
	if ok := mgr.Deliver(xmlcmd.NewPing("fd", "a", 1, 1)); ok {
		t.Fatal("Deliver to dead process reported consumed")
	}
	if len(tc.received) != n {
		t.Fatal("dead process received a message")
	}
	// Kill twice is a no-op.
	if err := mgr.Kill("a", "again"); err != nil {
		t.Fatalf("second Kill: %v", err)
	}
}

func TestPendingTimersInvalidatedByKill(t *testing.T) {
	mgr, k := newTestManager(t)
	tc := &testComp{startup: 5 * time.Second}
	_ = mgr.Register("a", func() Handler { return tc })
	_ = mgr.Start("a")
	_ = k.RunFor(time.Second)
	_ = mgr.Kill("a", "mid-startup kill")
	_ = k.RunFor(time.Minute)
	if mgr.Serving("a") {
		t.Fatal("killed process became ready from stale timer")
	}
	if tc.ready {
		t.Fatal("stale startup callback ran after kill")
	}
}

func TestRestartCreatesFreshIncarnation(t *testing.T) {
	mgr, k := newTestManager(t)
	var made int
	_ = mgr.Register("a", func() Handler {
		made++
		return &testComp{startup: time.Second}
	})
	_ = mgr.Start("a")
	_ = k.RunFor(2 * time.Second)
	if err := mgr.Restart([]string{"a"}); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	_ = k.RunFor(2 * time.Second)
	if !mgr.Serving("a") {
		t.Fatal("not serving after restart")
	}
	gen, _ := mgr.Incarnation("a")
	if gen != 2 || made != 2 {
		t.Fatalf("incarnation=%d factories=%d, want 2/2", gen, made)
	}
	r, _ := mgr.Restarts("a")
	if r != 1 {
		t.Fatalf("Restarts = %d, want 1", r)
	}
}

func TestBatchContentionStretch(t *testing.T) {
	mgr, k := newTestManager(t)
	mgr.ContentionPerPeer = 0.1
	comps := make(map[string]*testComp)
	for _, name := range []string{"a", "b", "c"} {
		name := name
		tc := &testComp{startup: 10 * time.Second}
		comps[name] = tc
		_ = mgr.Register(name, func() Handler { return tc })
	}
	if err := mgr.StartBatch([]string{"a", "b", "c"}); err != nil {
		t.Fatalf("StartBatch: %v", err)
	}
	// stretch = 1 + 0.1*2 = 1.2 → ready at 12s, not 10s.
	_ = k.RunFor(11 * time.Second)
	if mgr.Serving("a") {
		t.Fatal("batch member ready before stretched startup elapsed")
	}
	_ = k.RunFor(2 * time.Second)
	if !mgr.AllServing("a", "b", "c") {
		t.Fatal("batch members not all serving after stretched startup")
	}
}

func TestSingleStartNoStretch(t *testing.T) {
	mgr, k := newTestManager(t)
	mgr.ContentionPerPeer = 0.5
	tc := &testComp{startup: 10 * time.Second}
	_ = mgr.Register("a", func() Handler { return tc })
	_ = mgr.Start("a")
	_ = k.RunFor(10*time.Second + 100*time.Millisecond)
	if !mgr.Serving("a") {
		t.Fatal("single start was stretched")
	}
}

func TestSilence(t *testing.T) {
	mgr, k := newTestManager(t)
	tc := &testComp{startup: time.Second}
	_ = mgr.Register("a", func() Handler { return tc })
	_ = mgr.Start("a")
	_ = k.RunFor(2 * time.Second)
	var downName string
	mgr.OnDown(func(name, reason string) { downName = name })
	if err := mgr.Silence("a"); err != nil {
		t.Fatalf("Silence: %v", err)
	}
	if mgr.Serving("a") {
		t.Fatal("silenced process still serving")
	}
	if downName != "a" {
		t.Fatal("OnDown not fired for silence")
	}
	st, _ := mgr.State("a")
	if st != Running {
		t.Fatalf("silenced state = %v, want Running", st)
	}
	if mgr.Deliver(xmlcmd.NewPing("fd", "a", 1, 1)) {
		t.Fatal("silenced process consumed a message")
	}
	// Restart clears silence.
	_ = mgr.Restart([]string{"a"})
	_ = k.RunFor(2 * time.Second)
	if !mgr.Serving("a") {
		t.Fatal("restart did not clear silence")
	}
}

func TestOnReadyAndOnBatchCallbacks(t *testing.T) {
	mgr, k := newTestManager(t)
	_ = mgr.Register("a", func() Handler { return &testComp{startup: time.Second} })
	_ = mgr.Register("b", func() Handler { return &testComp{startup: time.Second} })
	var ready []string
	var batches [][]string
	mgr.OnReady(func(name string) { ready = append(ready, name) })
	mgr.OnBatch(func(names []string) { batches = append(batches, slices.Clone(names)) })
	_ = mgr.StartBatch([]string{"a", "b"})
	_ = k.RunFor(3 * time.Second)
	if len(ready) != 2 {
		t.Fatalf("ready callbacks = %v", ready)
	}
	if len(batches) != 1 || len(batches[0]) != 2 {
		t.Fatalf("batches = %v", batches)
	}
}

// TestOnBatchLeavesCallersNames: the listeners see the batch widened with
// the subcomponents of its processes, and the caller's names — spare
// capacity included, where a careless append would write — stay as they
// were.
func TestOnBatchLeavesCallersNames(t *testing.T) {
	mgr, _ := newTestManager(t)
	_ = mgr.Register("a", func() Handler { return &testComp{startup: time.Second} })
	_ = mgr.Register("b", func() Handler { return &testComp{startup: time.Second} })
	if err := mgr.RegisterSub("a", "x"); err != nil {
		t.Fatal(err)
	}
	var seen [][]string
	for i := 0; i < 2; i++ {
		mgr.OnBatch(func(names []string) { seen = append(seen, slices.Clone(names)) })
	}
	room := []string{"a", "b", "spare", "spare"}
	names := room[:2]
	if err := mgr.StartBatch(names); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "a.x"}
	if len(seen) != 2 || !slices.Equal(seen[0], want) || !slices.Equal(seen[1], want) {
		t.Fatalf("listeners saw %v, want %v twice", seen, want)
	}
	if !slices.Equal(room, []string{"a", "b", "spare", "spare"}) {
		t.Fatalf("the caller's names were modified: %v", room)
	}
}

func TestDeliverRoutesToHandler(t *testing.T) {
	mgr, k := newTestManager(t)
	a := &testComp{startup: time.Second}
	fd := &testComp{startup: time.Second}
	_ = mgr.Register("a", func() Handler { return a })
	_ = mgr.Register("fd", func() Handler { return fd })
	_ = mgr.StartBatch([]string{"a", "fd"})
	_ = k.RunFor(3 * time.Second)
	if !mgr.Deliver(xmlcmd.NewPing("fd", "a", 1, 77)) {
		t.Fatal("Deliver failed")
	}
	// a replies pong to fd via the direct transport.
	if len(fd.received) != 1 || fd.received[0].Kind() != xmlcmd.KindPong {
		t.Fatalf("fd received %v", fd.received)
	}
	if fd.received[0].Pong.Nonce != 77 {
		t.Fatalf("nonce = %d", fd.received[0].Pong.Nonce)
	}
}

func TestReceiveDuringStarting(t *testing.T) {
	mgr, k := newTestManager(t)
	a := &testComp{startup: 10 * time.Second}
	_ = mgr.Register("a", func() Handler { return a })
	_ = mgr.Start("a")
	_ = k.RunFor(time.Second)
	if !mgr.Deliver(xmlcmd.NewPing("fd", "a", 1, 1)) {
		t.Fatal("starting process did not accept message")
	}
	if len(a.received) != 1 {
		t.Fatal("message not delivered to starting handler")
	}
	// But it does not pong before ready.
	if a.ready {
		t.Fatal("ready too early")
	}
}

func TestStaleContextIgnored(t *testing.T) {
	mgr, k := newTestManager(t)
	var firstCtx Context
	_ = mgr.Register("a", func() Handler {
		return handlerFunc{
			start: func(ctx Context) {
				if firstCtx == nil {
					firstCtx = ctx
				}
				ctx.After(time.Second, ctx.Ready)
			},
		}
	})
	_ = mgr.Start("a")
	_ = k.RunFor(2 * time.Second)
	_ = mgr.Restart([]string{"a"})
	_ = k.RunFor(2 * time.Second)
	gen, _ := mgr.Incarnation("a")
	if gen != 2 {
		t.Fatalf("gen = %d", gen)
	}
	// Calls on the incarnation-1 context must be no-ops now.
	firstCtx.Fail("stale fail")
	if st, _ := mgr.State("a"); st != Running {
		t.Fatalf("stale Fail affected new incarnation: %v", st)
	}
	firstCtx.Ready()
	if g, _ := mgr.Incarnation("a"); g != 2 {
		t.Fatalf("incarnation changed: %d", g)
	}
}

func TestFailCrashesProcess(t *testing.T) {
	mgr, k := newTestManager(t)
	_ = mgr.Register("a", func() Handler {
		return handlerFunc{
			start: func(ctx Context) {
				ctx.After(time.Second, func() { ctx.Fail("bug") })
			},
		}
	})
	var down string
	mgr.OnDown(func(name, reason string) { down = name + ":" + reason })
	_ = mgr.Start("a")
	_ = k.RunFor(2 * time.Second)
	if st, _ := mgr.State("a"); st != Dead {
		t.Fatalf("state = %v, want Dead", st)
	}
	if down != "a:bug" {
		t.Fatalf("down = %q", down)
	}
}

func TestNamesOrder(t *testing.T) {
	mgr, _ := newTestManager(t)
	for _, n := range []string{"z", "a", "m"} {
		_ = mgr.Register(n, func() Handler { return &testComp{} })
	}
	names := mgr.Names()
	if names[0] != "z" || names[1] != "a" || names[2] != "m" {
		t.Fatalf("Names = %v, want registration order", names)
	}
}

func TestStateString(t *testing.T) {
	if Running.String() != "running" || Dead.String() != "dead" {
		t.Fatal("state names wrong")
	}
	if State(42).String() == "" {
		t.Fatal("unknown state empty")
	}
}

// handlerFunc adapts closures to Handler.
type handlerFunc struct {
	start   func(Context)
	receive func(Context, *xmlcmd.Message)
}

func (h handlerFunc) Start(ctx Context) { h.start(ctx) }
func (h handlerFunc) Receive(ctx Context, m *xmlcmd.Message) {
	if h.receive != nil {
		h.receive(ctx, m)
	}
}

// TestDeadIncarnationTimerIsANoOpEvent: a timer node armed by an
// incarnation that has since been killed still fires as a kernel event —
// the golden digests hash the executed-event total, so a dead timer must
// count exactly as it always did — but runs nothing, and its node goes back
// on the free list for the next incarnation to reuse.
func TestDeadIncarnationTimerIsANoOpEvent(t *testing.T) {
	mgr, k := newTestManager(t)
	fired := 0
	_ = mgr.Register("a", func() Handler {
		return handlerFunc{
			start: func(ctx Context) {
				ctx.After(0, ctx.Ready)
				ctx.After(5*time.Second, func() { fired++ })
			},
		}
	})
	_ = mgr.Start("a")
	_ = k.RunFor(time.Second)
	if err := mgr.Kill("a", "test"); err != nil {
		t.Fatal(err)
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want the dead incarnation's timer still queued", k.Pending())
	}
	before := k.Executed()
	_ = k.RunFor(10 * time.Second)
	if got := k.Executed() - before; got != 1 {
		t.Fatalf("executed %d events, want 1: the dead timer must still count", got)
	}
	if fired != 0 {
		t.Fatal("callback of a dead incarnation ran")
	}
	if len(mgr.timers) != timerChunk {
		t.Fatalf("free list holds %d nodes, want the whole chunk of %d: both timers back", len(mgr.timers), timerChunk)
	}

	// The restarted process arms its timers from the free list, and a
	// callback armed by incarnation 2 does run.
	_ = mgr.Restart([]string{"a"})
	if len(mgr.timers) != timerChunk-2 {
		t.Fatalf("free list holds %d nodes after restart, want %d (two reused, none minted)", len(mgr.timers), timerChunk-2)
	}
	_ = k.RunFor(10 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 from the live incarnation", fired)
	}
}

// TestAfterPreboundAllocatesNothing: a periodic loop that re-arms one
// prebound func rides recycled timer nodes and the kernel's slot arena.
func TestAfterPreboundAllocatesNothing(t *testing.T) {
	mgr, k := newTestManager(t)
	ticks := 0
	_ = mgr.Register("a", func() Handler {
		return handlerFunc{
			start: func(ctx Context) {
				ctx.After(0, ctx.Ready)
				var tick func()
				tick = func() {
					ticks++
					ctx.After(time.Second, tick)
				}
				ctx.After(time.Second, tick)
			},
		}
	})
	_ = mgr.Start("a")
	_ = k.RunFor(10 * time.Second)
	if allocs := testing.AllocsPerRun(100, func() { k.Step() }); allocs != 0 {
		t.Fatalf("prebound After loop allocates %.1f per tick, want 0", allocs)
	}
	if ticks < 100 {
		t.Fatalf("ticks = %d", ticks)
	}
}

// TestContextPoolIsPerManager: two managers never share envelopes — each
// is one dispatch context, and the runner and the fleet step many in
// parallel.
func TestContextPoolIsPerManager(t *testing.T) {
	m1, _ := newTestManager(t)
	m2, _ := newTestManager(t)
	if m1.Pool() == m2.Pool() {
		t.Fatal("managers share a message pool")
	}
	msg := m1.Pool().Ping("a", "b", 1, 1)
	m2.Pool().RecycleMessage(msg) // not its message: dropped
	if got := m2.Pool().Ping("a", "b", 2, 2); got == msg {
		t.Fatal("pool adopted a message another pool minted")
	}
}

// microComp is a testComp hosting microrebootable subcomponents; it records
// the subs whose logic was crashed.
type microComp struct {
	testComp
	failed []string
}

func (mc *microComp) SubFail(sub string)                      { mc.failed = append(mc.failed, sub) }
func (mc *microComp) SubMicroreboot(sub string) time.Duration { return 2 * time.Second }

// TestSubcomponentLifecycle drives a process "p" hosting subs "p.a" and
// "p.b" through each way a sub goes down or comes back, checking the
// OnDown/OnReady events in order and the sub's record after.
func TestSubcomponentLifecycle(t *testing.T) {
	cases := []struct {
		name  string
		run   func(mgr *Manager) error
		want  []string // "down name reason" / "ready name", in order
		check func(t *testing.T, mgr *Manager, mc *microComp)
	}{{
		name: "sub kill inside a live parent",
		run:  func(mgr *Manager) error { return mgr.Kill("p.a", "logic crash") },
		want: []string{"down p.a logic crash"},
		check: func(t *testing.T, mgr *Manager, mc *microComp) {
			if st, _ := mgr.State("p.a"); st != Dead || mgr.Serving("p.a") {
				t.Errorf("p.a = %v serving=%v, want dead", st, mgr.Serving("p.a"))
			}
			if !mgr.Serving("p") || !mgr.Serving("p.b") {
				t.Error("the container or its other sub stopped serving")
			}
			if len(mc.failed) != 1 || mc.failed[0] != "a" {
				t.Errorf("SubFail calls = %v, want [a]", mc.failed)
			}
		},
	}, {
		name: "parent kill cascades to every sub",
		run:  func(mgr *Manager) error { return mgr.Kill("p", "crash") },
		want: []string{"down p crash", "down p.a crash", "down p.b crash"},
		check: func(t *testing.T, mgr *Manager, _ *microComp) {
			for _, sub := range []string{"p.a", "p.b"} {
				if st, _ := mgr.State(sub); st != Dead {
					t.Errorf("%s = %v, want dead", sub, st)
				}
			}
		},
	}, {
		name: "microreboot reattaches",
		run:  func(mgr *Manager) error { return mgr.Microreboot("p.a") },
		want: []string{"ready p.a"},
		check: func(t *testing.T, mgr *Manager, _ *microComp) {
			inc, _ := mgr.Incarnation("p.a")
			n, _ := mgr.Restarts("p.a")
			started, _ := mgr.StartedAt("p.a")
			ready, _ := mgr.ReadyAt("p.a")
			if !mgr.Serving("p.a") || inc != 2 || n != 1 || ready.Sub(started) != 2*time.Second {
				t.Errorf("p.a serving=%v incarnation=%d restarts=%d startup=%v", mgr.Serving("p.a"), inc, n, ready.Sub(started))
			}
			if n, _ := mgr.Restarts("p"); n != 0 {
				t.Errorf("p restarts = %d, want 0", n)
			}
		},
	}, {
		name: "microreboot superseded by a parent restart",
		run: func(mgr *Manager) error {
			if err := mgr.Microreboot("p.a"); err != nil {
				return err
			}
			return mgr.Restart([]string{"p"})
		},
		// The parent is ready after 1 s; the microreboot's reattach, due
		// at 2 s, must not fire a second ready.
		want: []string{"down p restart action", "down p.a restart action", "down p.b restart action",
			"ready p", "ready p.a", "ready p.b"},
		check: func(t *testing.T, mgr *Manager, _ *microComp) {
			inc, _ := mgr.Incarnation("p.a")
			n, _ := mgr.Restarts("p.a")
			if !mgr.Serving("p.a") || inc != 3 || n != 1 {
				t.Errorf("p.a serving=%v incarnation=%d restarts=%d, want true 3 1", mgr.Serving("p.a"), inc, n)
			}
		},
	}, {
		name: "sub killed while its process starts stays dead",
		run: func(mgr *Manager) error {
			if err := mgr.Restart([]string{"p"}); err != nil {
				return err
			}
			return mgr.Kill("p.a", "logic crash")
		},
		want: []string{"down p restart action", "down p.a restart action", "down p.b restart action",
			"down p.a logic crash", "ready p", "ready p.b"},
		check: func(t *testing.T, mgr *Manager, _ *microComp) {
			if st, _ := mgr.State("p.a"); st != Dead || mgr.Serving("p.a") {
				t.Errorf("p.a = %v serving=%v, want dead until a microreboot", st, mgr.Serving("p.a"))
			}
		},
	}, {
		name: "silenced parent",
		run: func(mgr *Manager) error {
			if err := mgr.Silence("p"); err != nil {
				return err
			}
			return mgr.Kill("p.a", "logic crash")
		},
		want: []string{"down p silenced"},
		check: func(t *testing.T, mgr *Manager, mc *microComp) {
			if mgr.Serving("p.a") {
				t.Error("sub of a silenced parent still serving")
			}
			if st, _ := mgr.State("p.a"); st != Running || len(mc.failed) != 0 {
				t.Errorf("Kill(p.a) under a silenced parent acted: state %v, SubFail %v", st, mc.failed)
			}
		},
	}, {
		name: "a dotted name is no process",
		run: func(mgr *Manager) error {
			if err := mgr.Start("p.a"); !errors.Is(err, ErrUnknownProcess) {
				return fmt.Errorf("Start(p.a) = %v, want ErrUnknownProcess", err)
			}
			if err := mgr.StartBatch([]string{"p.a"}); !errors.Is(err, ErrUnknownProcess) {
				return fmt.Errorf("StartBatch(p.a) = %v, want ErrUnknownProcess", err)
			}
			if mgr.Deliver(xmlcmd.NewPing("fd", "p.a", 1, 1)) || mgr.Accepting("p.a") {
				return errors.New("a message for p.a reached a handler")
			}
			return nil
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mgr, k := newTestManager(t)
			mc := &microComp{testComp: testComp{startup: time.Second}}
			_ = mgr.Register("p", func() Handler { return mc })
			for _, sub := range []string{"a", "b"} {
				if err := mgr.RegisterSub("p", sub); err != nil {
					t.Fatal(err)
				}
			}
			_ = mgr.Start("p")
			_ = k.RunFor(2 * time.Second)
			if inc, _ := mgr.Incarnation("p.a"); !mgr.Serving("p.a") || inc != 1 || mgr.Parent("p.a") != "p" {
				t.Fatalf("after boot p.a serving=%v incarnation=%d parent=%q", mgr.Serving("p.a"), inc, mgr.Parent("p.a"))
			}
			var got []string
			mgr.OnDown(func(name, reason string) { got = append(got, "down "+name+" "+reason) })
			mgr.OnReady(func(name string) { got = append(got, "ready "+name) })
			if err := tc.run(mgr); err != nil {
				t.Fatal(err)
			}
			_ = k.RunFor(5 * time.Second)
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("events = %q, want %q", got, tc.want)
			}
			if tc.check != nil {
				tc.check(t, mgr, mc)
			}
		})
	}
}
