package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/sim"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/trace/tracetest"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// simpleComp is a synthetic station component: ready after a fixed
// startup, answers pings when ready.
type simpleComp struct {
	startup time.Duration
	ready   bool
}

func (c *simpleComp) Start(ctx proc.Context) {
	d := time.Duration(float64(c.startup) * ctx.Stretch())
	ctx.After(d, func() {
		c.ready = true
		ctx.Ready()
	})
}

func (c *simpleComp) Receive(ctx proc.Context, m *xmlcmd.Message) {
	if m.Kind() == xmlcmd.KindPing && c.ready {
		ctx.Send(ctx.Pool().Pong(ctx.Name(), m, ctx.Incarnation()))
	}
}

// harness wires a minimal recursively-restartable system: broker + two
// synthetic components + fault board + FD + REC.
type harness struct {
	k      *sim.Kernel
	mgr    *proc.Manager
	bus    *bus.Sim
	board  *fault.Board
	log    *trace.Log
	rec    *tracetest.Recorder // every event since the harness was built
	handle *RECHandle
	fd     *FDHandle
	comps  []string
}

// fixed builds a policy that needs no part of the harness.
func fixed(p *Policy) func(*fault.Board, *rand.Rand) *Policy {
	return func(*fault.Board, *rand.Rand) *Policy { return p }
}

func newHarness(t *testing.T, seed int64, tree *Tree, policy *Policy) *harness {
	t.Helper()
	return newHarnessParams(t, seed, tree, policy, DefaultFDParams(), DefaultRECParams())
}

// newHarnessParams is newHarness with explicit FD/REC parameters, for the
// hardened-knob tests (SuspectAfter, restart backoff).
func newHarnessParams(t *testing.T, seed int64, tree *Tree, policy *Policy, fdp FDParams, recp RECParams) *harness {
	t.Helper()
	return newHarnessClock(t, seed, tree, fixed(policy), fdp, recp, []string{"mbus", "a", "b"}, nil)
}

// newHarnessClock is newHarnessParams with FD probing its targets in the
// given order, on a clock of the test's making (wrap, if any, gets the
// kernel's; the bus runs on the kernel's own) — for the tests that put a
// probe across a broker outage or make the detector run late — and with a
// policy built from the harness's fault board and kernel RNG, for the
// oracles that consult them.
func newHarnessClock(t *testing.T, seed int64, tree *Tree, policy func(*fault.Board, *rand.Rand) *Policy, fdp FDParams, recp RECParams, targets []string, wrap func(clock.Sim) clock.Clock) *harness {
	t.Helper()
	k := sim.New(seed)
	log := trace.NewLog()
	var clk clock.Clock = clock.Sim{K: k}
	if wrap != nil {
		clk = wrap(clock.Sim{K: k})
	}
	mgr := proc.NewManager(clk, k.Rand(), log)
	b := bus.NewSim(clock.Sim{K: k}, mgr, "mbus")
	mgr.SetTransport(b)
	board := fault.NewBoard(clk, mgr, log)

	comps := []string{"mbus", "a", "b"}
	if err := mgr.Register("mbus", bus.BrokerHandler(time.Second)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		startup := 2 * time.Second
		if name == "b" {
			startup = 4 * time.Second
		}
		dur := startup
		if err := mgr.Register(name, func() proc.Handler { return &simpleComp{startup: dur} }); err != nil {
			t.Fatal(err)
		}
	}

	recFactory, handle := NewREC(recp, fdp, tree, policy(board, k.Rand()), mgr)
	if err := mgr.Register(xmlcmd.AddrREC, recFactory); err != nil {
		t.Fatal(err)
	}
	fdFactory, fd := NewFD(fdp, targets, "mbus", mgr)
	if err := mgr.Register(xmlcmd.AddrFD, fdFactory); err != nil {
		t.Fatal(err)
	}

	h := &harness{k: k, mgr: mgr, bus: b, board: board, log: log, rec: tracetest.Record(log), handle: handle, fd: fd, comps: comps}
	if err := mgr.StartBatch(comps); err != nil {
		t.Fatal(err)
	}
	if err := k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !mgr.AllServing(comps...) {
		t.Fatal("harness components did not boot")
	}
	if err := mgr.StartBatch([]string{xmlcmd.AddrFD, xmlcmd.AddrREC}); err != nil {
		t.Fatal(err)
	}
	if err := k.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	return h
}

// treeII builds a depth-augmented tree over the harness components.
func treeII(t *testing.T) *Tree {
	t.Helper()
	t1, err := TrivialTree("h-I", []string{"mbus", "a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := DepthAugment(t1, "h-II")
	if err != nil {
		t.Fatal(err)
	}
	return t2
}

// runUntilRecovered steps the simulation until all components serve and no
// fault is active, or the deadline passes.
func (h *harness) runUntilRecovered(t *testing.T, limit time.Duration) time.Duration {
	t.Helper()
	start := h.k.Now()
	deadline := start.Add(limit)
	for h.k.Now().Before(deadline) {
		if h.mgr.AllServing(h.comps...) && h.board.ActiveCount() == 0 {
			return h.k.Now().Sub(start)
		}
		if !h.k.Step() {
			t.Fatal("simulation went idle before recovery")
		}
	}
	t.Fatalf("no recovery within %v; states: %s", limit, h.describe())
	return 0
}

func (h *harness) describe() string {
	var sb strings.Builder
	for _, c := range h.comps {
		st, _ := h.mgr.State(c)
		sb.WriteString(c + "=" + st.String() + " ")
	}
	return sb.String()
}

func TestAutomatedRecoveryFromKill(t *testing.T) {
	h := newHarness(t, 1, treeII(t), &Policy{})
	if err := h.board.Inject(fault.Fault{Manifest: "a"}); err != nil {
		t.Fatal(err)
	}
	d := h.runUntilRecovered(t, 30*time.Second)
	// Detection (~0.5-1.2s) + restart of a (2s): well under b's share.
	if d > 5*time.Second {
		t.Fatalf("recovery took %v, want < 5s for component-only restart", d)
	}
	// Only a (and nothing else) should have been restarted.
	if n, _ := h.mgr.Restarts("a"); n != 1 {
		t.Fatalf("a restarted %d times", n)
	}
	if n, _ := h.mgr.Restarts("b"); n != 0 {
		t.Fatalf("b restarted %d times; partial restart leaked", n)
	}
}

func TestEscalationCuresJointFault(t *testing.T) {
	h := newHarness(t, 2, treeII(t), &Policy{})
	// The fault manifests at a but needs {a, b} restarted together.
	if err := h.board.Inject(fault.Fault{Manifest: "a", Cure: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	d := h.runUntilRecovered(t, 60*time.Second)
	// Two rounds: restart a (fails to cure), escalate to root.
	if d < 5*time.Second {
		t.Fatalf("recovery suspiciously fast (%v) for an escalation", d)
	}
	guesses := h.rec.Filter(func(e trace.Event) bool { return e.Kind == trace.OracleGuess })
	if len(guesses) < 2 {
		t.Fatalf("expected at least 2 oracle guesses, got %d", len(guesses))
	}
	if guesses[len(guesses)-1].Count != 2 {
		t.Fatalf("no escalation recorded: %v", guesses)
	}
}

func TestPerfectOracleSkipsEscalation(t *testing.T) {
	perfect := func(b *fault.Board, _ *rand.Rand) *Policy { return mustPolicy(t, "perfect", PolicyDeps{Advisor: b}) }
	h := newHarnessClock(t, 3, treeII(t), perfect, DefaultFDParams(), DefaultRECParams(), []string{"mbus", "a", "b"}, nil)
	if err := h.board.Inject(fault.Fault{Manifest: "a", Cure: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	h.runUntilRecovered(t, 60*time.Second)
	guesses := h.rec.Filter(func(e trace.Event) bool { return e.Kind == trace.OracleGuess })
	if len(guesses) != 1 {
		t.Fatalf("perfect oracle used %d guesses, want 1: %v", len(guesses), guesses)
	}
	// It went straight to the root (the only node covering {a,b}).
	if !strings.Contains(guesses[0].Node, "a") || !strings.Contains(guesses[0].Node, "b") {
		t.Fatalf("perfect oracle chose %q", guesses[0].Node)
	}
}

func TestFaultyOracleAlwaysWrongEscalates(t *testing.T) {
	faulty := func(b *fault.Board, rng *rand.Rand) *Policy {
		return mustPolicy(t, "faulty", PolicyDeps{FaultyP: 1.0, Advisor: b, Rng: rng})
	}
	h := newHarnessClock(t, 4, treeII(t), faulty, DefaultFDParams(), DefaultRECParams(), []string{"mbus", "a", "b"}, nil)
	if err := h.board.Inject(fault.Fault{Manifest: "a", Cure: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	h.runUntilRecovered(t, 60*time.Second)
	guesses := h.rec.Filter(func(e trace.Event) bool { return e.Kind == trace.OracleGuess })
	if len(guesses) < 2 {
		t.Fatalf("always-wrong oracle cured in %d guesses", len(guesses))
	}
}

func TestMbusFailureDiagnosedFirst(t *testing.T) {
	h := newHarness(t, 5, treeII(t), &Policy{})
	if err := h.board.Inject(fault.Fault{Manifest: "mbus"}); err != nil {
		t.Fatal(err)
	}
	h.runUntilRecovered(t, 30*time.Second)
	// While the broker was down every target looked dead; only mbus may
	// have been restarted.
	for _, c := range []string{"a", "b"} {
		if n, _ := h.mgr.Restarts(c); n != 0 {
			t.Fatalf("%s restarted %d times during broker outage", c, n)
		}
	}
	if n, _ := h.mgr.Restarts("mbus"); n != 1 {
		t.Fatalf("mbus restarted %d times", n)
	}
}

func TestGiveUpOnHardFault(t *testing.T) {
	h := newHarness(t, 6, treeII(t), &Policy{})
	if err := h.board.Inject(fault.Fault{Manifest: "a", Hard: true}); err != nil {
		t.Fatal(err)
	}
	_ = h.k.RunFor(3 * time.Minute)
	giveups := h.rec.Filter(func(e trace.Event) bool { return e.Kind == trace.GiveUp })
	if len(giveups) == 0 {
		t.Fatal("policy never gave up on a hard failure")
	}
	if !h.handle.Abandoned("a") {
		t.Fatal("component not marked abandoned")
	}
	// After giving up, restarts must stop.
	before, _ := h.mgr.Restarts("a")
	_ = h.k.RunFor(time.Minute)
	after, _ := h.mgr.Restarts("a")
	if after != before {
		t.Fatalf("restarts continued after give-up: %d -> %d", before, after)
	}
}

// TestWatchersRecoverEachOther: FD and REC each restart the other when it
// dies or hangs, also when it hangs while still starting (the gate must
// not keep it from finishing its start, or it would stay Starting and its
// peer would never restart it). In every row the peer restarts the downed
// watcher once, nobody restarts the healthy one, the downed incarnation
// writes no trace line and restarts nothing, and a component fault
// injected afterwards heals.
func TestWatchersRecoverEachOther(t *testing.T) {
	for i, w := range []struct {
		name, watcher  string
		starting, hang bool
	}{
		{"kill-fd", xmlcmd.AddrFD, false, false},
		{"kill-rec", xmlcmd.AddrREC, false, false},
		{"hang-fd", xmlcmd.AddrFD, false, true},
		{"hang-rec", xmlcmd.AddrREC, false, true},
		{"hang-starting-fd", xmlcmd.AddrFD, true, true},
		{"hang-starting-rec", xmlcmd.AddrREC, true, true},
	} {
		t.Run(w.name, func(t *testing.T) {
			h := newHarness(t, int64(7+i), treeII(t), &Policy{})
			peer := xmlcmd.AddrREC
			if w.watcher == xmlcmd.AddrREC {
				peer = xmlcmd.AddrFD
			}
			if w.starting {
				if err := h.mgr.Restart([]string{w.watcher}); err != nil {
					t.Fatal(err)
				}
				if st, _ := h.mgr.State(w.watcher); st != proc.Starting {
					t.Fatalf("%s is %v right after its restart, want starting", w.watcher, st)
				}
			}
			h.gated(t.Fatalf)
			before, _ := h.mgr.Restarts(w.watcher)
			peerBefore, _ := h.mgr.Restarts(peer)
			var err error
			if w.hang {
				err = h.mgr.Silence(w.watcher)
			} else {
				err = h.mgr.Kill(w.watcher, "test kill of "+w.watcher)
			}
			if err != nil {
				t.Fatal(err)
			}
			_ = h.k.RunFor(15 * time.Second)
			if n, _ := h.mgr.Restarts(w.watcher); n != before+1 || !h.mgr.Serving(w.watcher) {
				t.Fatalf("%s restarted %d times, serving=%v; want its peer to restart it once", w.watcher, n-before, h.mgr.Serving(w.watcher))
			}
			if n, _ := h.mgr.Restarts(peer); n != peerBefore {
				t.Fatalf("the healthy %s was restarted %d times", peer, n-peerBefore)
			}
			if err := h.board.Inject(fault.Fault{Manifest: "b"}); err != nil {
				t.Fatal(err)
			}
			h.runUntilRecovered(t, 30*time.Second)
		})
	}
}

// gated calls fail when FD or REC writes a trace line or restarts
// anything while it is not serving: a dead or hung watcher does nothing.
// A restart of REC alone is FD's; every other is REC's.
func (h *harness) gated(fail func(format string, args ...any)) {
	h.log.Subscribe(func(e trace.Event) {
		if who := writtenBy(e); who != "" && !h.mgr.Serving(who) {
			fail("the dead or hung %s wrote %v", who, e)
		}
	})
	h.mgr.OnBatch(func(names []string) {
		who := xmlcmd.AddrREC
		if slices.Equal(names, []string{xmlcmd.AddrREC}) {
			who = xmlcmd.AddrFD
		}
		if !h.mgr.Serving(who) {
			fail("the dead or hung %s restarted %v", who, names)
		}
	})
}

// writtenBy names the one of FD and REC that writes a trace line of e's
// kind and detail, or "" for a line neither writes.
func writtenBy(e trace.Event) string {
	switch e.Kind {
	case trace.FailureDetected:
		if e.Detail == "rec initiating fd recovery" {
			return xmlcmd.AddrREC
		}
		return xmlcmd.AddrFD
	case trace.OracleGuess, trace.RestartRequested, trace.GiveUp:
		return xmlcmd.AddrREC
	}
	return ""
}

func TestNoSpuriousRestartsWhenHealthy(t *testing.T) {
	h := newHarness(t, 9, treeII(t), &Policy{})
	_ = h.k.RunFor(2 * time.Minute)
	for _, c := range h.comps {
		if n, _ := h.mgr.Restarts(c); n != 0 {
			t.Fatalf("healthy %s restarted %d times", c, n)
		}
	}
}

func TestConcurrentIndependentFailures(t *testing.T) {
	h := newHarness(t, 10, treeII(t), &Policy{})
	if err := h.board.Inject(fault.Fault{Manifest: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := h.board.Inject(fault.Fault{Manifest: "b"}); err != nil {
		t.Fatal(err)
	}
	d := h.runUntilRecovered(t, 30*time.Second)
	// Recoveries overlap: total well under the sum of sequential paths.
	if d > 10*time.Second {
		t.Fatalf("concurrent recovery took %v", d)
	}
	if n, _ := h.mgr.Restarts("a"); n != 1 {
		t.Fatalf("a restarted %d times", n)
	}
	if n, _ := h.mgr.Restarts("b"); n != 1 {
		t.Fatalf("b restarted %d times", n)
	}
}

// TestOracleChooseValidation: every policy in the table refuses a nil tree
// and an unknown component, on fresh and escalated attempts alike, through
// both the action form REC calls and the node-only form.
func TestOracleChooseValidation(t *testing.T) {
	tr := treeII(t)
	root := tr.Root()
	for _, name := range PolicyNames() {
		o := mustPolicy(t, name, PolicyDeps{FaultyP: 0.5, Rng: sim.New(1).Rand()})
		if o.Name() == "" {
			t.Fatalf("%s: empty policy name", name)
		}
		for attempt := 1; attempt <= 2; attempt++ {
			var prev *Action
			var prevNode *Node
			if attempt > 1 {
				prev, prevNode = &Action{Node: root, Kind: ActRestart}, root
			}
			if _, err := o.ChooseAction(nil, "a", prev, attempt); err != ErrNilTree {
				t.Fatalf("%s attempt %d: ChooseAction(nil tree) err = %v", name, attempt, err)
			}
			if _, err := o.Choose(nil, "a", prevNode, attempt); err != ErrNilTree {
				t.Fatalf("%s attempt %d: Choose(nil tree) err = %v", name, attempt, err)
			}
			if _, err := o.ChooseAction(tr, "ghost", prev, attempt); err == nil {
				t.Fatalf("%s attempt %d: accepted unknown component", name, attempt)
			}
		}
		if _, err := o.Choose(tr, "ghost", nil, 1); err == nil {
			t.Fatalf("%s: Choose accepted unknown component", name)
		}
	}
	if _, err := PolicyByName("ghost", PolicyDeps{}); err == nil {
		t.Fatal("PolicyByName accepted an unknown name")
	}
	for alias, want := range map[string]string{"": "escalating", "v2": "costaware"} {
		if got := mustPolicy(t, alias, PolicyDeps{}).Name(); got != want {
			t.Fatalf("alias %q resolves to %s, want %s", alias, got, want)
		}
	}
}

func TestEscalationStopsAtRoot(t *testing.T) {
	tr := treeII(t)
	root := tr.Root()
	var esc Policy // the zero value escalates
	act, err := esc.ChooseAction(tr, "a", &Action{Node: root, Kind: ActRestart}, 3)
	if err != nil || act.Node != root {
		t.Fatalf("escalation from root = %v, %v; want root", act.Node, err)
	}
	if n, err := esc.Choose(tr, "a", root, 3); err != nil || n != root {
		t.Fatalf("node-only escalation from root = %v, %v; want root", n, err)
	}
}

// TestReadyGraceIgnoresStaleReports: a report for a serving component
// within the grace window after its ready is stale and must not trigger a
// restart; the same report outside the window is trusted (the process
// manager's view can lag reality, e.g. a hung child process).
func TestReadyGraceIgnoresStaleReports(t *testing.T) {
	h := newHarness(t, 11, treeII(t), &Policy{})
	// Recover once, so a has just become ready again.
	if err := h.board.Inject(fault.Fault{Manifest: "a"}); err != nil {
		t.Fatal(err)
	}
	h.runUntilRecovered(t, 30*time.Second)
	restartsAfterFirst, _ := h.mgr.Restarts("a")

	// Forge a stale report immediately after recovery: a is serving and
	// just became ready, so REC must ignore it.
	h.bus.Send(new(xmlcmd.Pool).Event(xmlcmd.AddrFD, xmlcmd.AddrREC, 999, "failure", "a"))
	_ = h.k.RunFor(5 * time.Second)
	if n, _ := h.mgr.Restarts("a"); n != restartsAfterFirst {
		t.Fatalf("stale report triggered a restart: %d -> %d", restartsAfterFirst, n)
	}

	// Long after ready, the same report is trusted even though the manager
	// still believes a is serving.
	_ = h.k.RunFor(time.Minute)
	h.bus.Send(new(xmlcmd.Pool).Event(xmlcmd.AddrFD, xmlcmd.AddrREC, 1000, "failure", "a"))
	_ = h.k.RunFor(10 * time.Second)
	if n, _ := h.mgr.Restarts("a"); n != restartsAfterFirst+1 {
		t.Fatalf("trusted report did not restart: %d", n)
	}
}

// TestHangDetectedAndRecovered: a hang (silence) is fail-silent like a
// crash and must be cured by the same restart path.
func TestHangDetectedAndRecovered(t *testing.T) {
	h := newHarness(t, 12, treeII(t), &Policy{})
	if err := h.board.Inject(fault.Fault{Manifest: "b", Hang: true}); err != nil {
		t.Fatal(err)
	}
	d := h.runUntilRecovered(t, 30*time.Second)
	if d > 8*time.Second {
		t.Fatalf("hang recovery took %v", d)
	}
	if n, _ := h.mgr.Restarts("b"); n != 1 {
		t.Fatalf("b restarted %d times", n)
	}
}

// hwComp models a component whose startup needs working hardware: while
// the device is wedged, every plain restart fails at startup.
type hwComp struct {
	wedged *bool
	ready  bool
}

func (c *hwComp) Start(ctx proc.Context) {
	if *c.wedged {
		ctx.After(100*time.Millisecond, func() { ctx.Fail("hardware wedged") })
		return
	}
	ctx.After(2*time.Second, func() {
		c.ready = true
		ctx.Ready()
	})
}

func (c *hwComp) Receive(ctx proc.Context, m *xmlcmd.Message) {
	if m.Kind() == xmlcmd.KindPing && c.ready {
		ctx.Send(ctx.Pool().Pong(ctx.Name(), m, ctx.Incarnation()))
	}
}

// newHWHarness builds a harness whose component "a" depends on wedgeable
// hardware.
func newHWHarness(t *testing.T, seed int64) (*harness, *bool) {
	t.Helper()
	wedged := new(bool)
	k := sim.New(seed)
	log := trace.NewLog()
	clk := clock.Sim{K: k}
	mgr := proc.NewManager(clk, k.Rand(), log)
	b := bus.NewSim(clk, mgr, "mbus")
	mgr.SetTransport(b)
	board := fault.NewBoard(clk, mgr, log)

	comps := []string{"mbus", "a"}
	if err := mgr.Register("mbus", bus.BrokerHandler(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Register("a", func() proc.Handler { return &hwComp{wedged: wedged} }); err != nil {
		t.Fatal(err)
	}

	t1, err := TrivialTree("hw-I", comps)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := DepthAugment(t1, "hw-II")
	if err != nil {
		t.Fatal(err)
	}
	recFactory, handle := NewREC(DefaultRECParams(), DefaultFDParams(), tree, &Policy{}, mgr)
	if err := mgr.Register(xmlcmd.AddrREC, recFactory); err != nil {
		t.Fatal(err)
	}
	fdFactory, _ := NewFD(DefaultFDParams(), comps, "mbus", mgr)
	if err := mgr.Register(xmlcmd.AddrFD, fdFactory); err != nil {
		t.Fatal(err)
	}

	h := &harness{k: k, mgr: mgr, bus: b, board: board, log: log, rec: tracetest.Record(log), handle: handle, comps: comps}
	if err := mgr.StartBatch(comps); err != nil {
		t.Fatal(err)
	}
	_ = k.RunFor(10 * time.Second)
	if !mgr.AllServing(comps...) {
		t.Fatal("hw harness did not boot")
	}
	if err := mgr.StartBatch([]string{xmlcmd.AddrFD, xmlcmd.AddrREC}); err != nil {
		t.Fatal(err)
	}
	_ = k.RunFor(2 * time.Second)
	return h, wedged
}

// TestHardwareWedgeDefeatsPlainRestart: the policy exhausts its budget and
// gives up — §7's point that restart cannot recover from a hard hardware
// failure.
func TestHardwareWedgeDefeatsPlainRestart(t *testing.T) {
	h, wedged := newHWHarness(t, 13)
	*wedged = true
	_ = h.mgr.Kill("a", "hardware wedge crash")
	_ = h.k.RunFor(3 * time.Minute)
	if h.mgr.Serving("a") {
		t.Fatal("wedged hardware recovered by plain restart")
	}
	giveups := h.rec.Filter(func(e trace.Event) bool { return e.Kind == trace.GiveUp })
	if len(giveups) == 0 {
		t.Fatal("policy never gave up on the hard failure")
	}
}
