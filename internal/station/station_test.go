package station

import (
	"strings"

	"testing"
	"time"
	"unsafe"

	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/sim"
	"github.com/recursive-restart/mercury/internal/store"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/trace/tracetest"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

type rig struct {
	k     *sim.Kernel
	mgr   *proc.Manager
	bus   *bus.Sim
	rec   *tracetest.Recorder // every event since the rig was built
	comps []string
	coll  *Collector
}

func newRig(t *testing.T, layout Layout, seed int64) *rig {
	t.Helper()
	k := sim.New(seed)
	log := trace.NewLog()
	rec := tracetest.Record(log)
	mgr := proc.NewManager(clock.Sim{K: k}, k.Rand(), log)
	b := bus.NewSim(clock.Sim{K: k}, mgr, MBus)
	mgr.SetTransport(b)
	comps, err := Register(mgr, k.Now(), nil, layout, nil)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	coll := NewCollector()
	if err := mgr.Register(Ops, coll.Handler()); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(Ops); err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, mgr: mgr, bus: b, rec: rec, comps: comps, coll: coll}
}

func (r *rig) boot(t *testing.T) {
	t.Helper()
	if err := r.mgr.StartBatch(r.comps); err != nil {
		t.Fatalf("StartBatch: %v", err)
	}
	if err := r.k.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !r.mgr.AllServing(r.comps...) {
		for _, c := range r.comps {
			st, _ := r.mgr.State(c)
			t.Logf("%s: %v serving=%v", c, st, r.mgr.Serving(c))
		}
		t.Fatal("station did not fully boot")
	}
}

func TestMonolithicBoot(t *testing.T) {
	r := newRig(t, Monolithic, 1)
	r.boot(t)
}

func TestSplitBoot(t *testing.T) {
	r := newRig(t, Split, 1)
	r.boot(t)
}

func TestLayoutComponents(t *testing.T) {
	mono, err := Monolithic.Components()
	if err != nil || len(mono) != 5 {
		t.Fatalf("monolithic = %v, %v", mono, err)
	}
	split, err := Split.Components()
	if err != nil || len(split) != 6 {
		t.Fatalf("split = %v, %v", split, err)
	}
	if _, err := Layout(99).Components(); err == nil {
		t.Fatal("unknown layout accepted")
	}
	if Monolithic.String() != "monolithic" || Split.String() != "split" {
		t.Fatal("layout names wrong")
	}
}

func TestRegisterValidation(t *testing.T) {
	r := newRig(t, Split, 1) // occupies names
	if _, err := Register(r.mgr, r.k.Now(), nil, Split, nil); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	k := sim.New(1)
	clk := clock.Sim{K: k}
	mgr := proc.NewManager(clk, k.Rand(), trace.NewLog())
	if _, err := Register(mgr, k.Now(), nil, Layout(42), nil); err == nil {
		t.Fatal("bad layout accepted")
	}
	if _, err := Register(mgr, k.Now(), store.New(clk, store.Options{}), Monolithic, nil); err == nil {
		t.Fatal("micro mode accepted on the monolithic layout")
	}
	if len(mgr.Names()) != 0 {
		t.Fatalf("a refused registration left %v registered", mgr.Names())
	}
}

// TestFactory pins the one name → handler table: every component of both
// layouts resolves, and an unknown name does not.
func TestFactory(t *testing.T) {
	for _, layout := range []Layout{Monolithic, Split} {
		comps, _ := layout.Components()
		for _, comp := range comps {
			if f, err := Factory(comp, time.Now(), nil, layout); err != nil || f == nil {
				t.Fatalf("Factory(%s, %s): %v", comp, layout, err)
			}
		}
	}
	if _, err := Factory("nope", time.Now(), nil, Split); err == nil {
		t.Fatal("unknown component accepted")
	}
}

func TestReadyComponentAnswersPing(t *testing.T) {
	r := newRig(t, Split, 2)
	r.boot(t)
	fd := &pingSink{}
	if err := r.mgr.Register("fd", func() proc.Handler { return fd }); err != nil {
		t.Fatal(err)
	}
	_ = r.mgr.Start("fd")
	_ = r.k.RunFor(time.Second)
	r.bus.Send(xmlcmd.NewPing("fd", RTU, 1, 55))
	_ = r.k.RunFor(time.Second)
	if fd.pongs != 1 {
		t.Fatalf("pongs = %d, want 1", fd.pongs)
	}
}

func TestStartingComponentIgnoresPing(t *testing.T) {
	r := newRig(t, Split, 3)
	r.boot(t)
	fd := &pingSink{}
	_ = r.mgr.Register("fd", func() proc.Handler { return fd })
	_ = r.mgr.Start("fd")
	_ = r.k.RunFor(time.Second)
	_ = r.mgr.Restart([]string{RTU})
	r.bus.Send(xmlcmd.NewPing("fd", RTU, 1, 1))
	_ = r.k.RunFor(2 * time.Second) // rtu startup is ~4.9s; still starting
	if fd.pongs != 0 {
		t.Fatal("starting rtu answered ping")
	}
}

// TestLoneSesRestartInducesStrFailure reproduces the §4.3 artifact: a ses
// restart inevitably crashes str (f_ses ≈ 0, f_{ses,str} ≈ 1).
func TestLoneSesRestartInducesStrFailure(t *testing.T) {
	r := newRig(t, Split, 4)
	r.boot(t)
	if err := r.mgr.Restart([]string{SES}); err != nil {
		t.Fatal(err)
	}
	// Run until ses proposes its new epoch; str must crash.
	_ = r.k.RunFor(10 * time.Second)
	st, _ := r.mgr.State(STR)
	if st != proc.Dead {
		t.Fatalf("str state = %v, want Dead (induced failure)", st)
	}
	downs := r.rec.Filter(func(e trace.Event) bool {
		return e.Kind == trace.ComponentDown && e.Component == STR
	})
	if len(downs) == 0 || !strings.Contains(downs[len(downs)-1].Detail, "resynchronization") {
		t.Fatalf("str down events = %v", downs)
	}
	// ses is stuck in WAIT_SYNC, not ready.
	if r.mgr.Serving(SES) {
		t.Fatal("ses became ready without peer resync")
	}
	// Restarting str completes the handshake and both become ready.
	if err := r.mgr.Restart([]string{STR}); err != nil {
		t.Fatal(err)
	}
	_ = r.k.RunFor(15 * time.Second)
	if !r.mgr.Serving(SES) || !r.mgr.Serving(STR) {
		t.Fatal("pair did not recover after str restart")
	}
}

// TestJointSesStrRestartAvoidsInducedFailure is the consolidation payoff:
// restarting the pair together costs ~max of the two startups and induces
// nothing.
func TestJointSesStrRestartAvoidsInducedFailure(t *testing.T) {
	r := newRig(t, Split, 5)
	r.boot(t)
	start := r.k.Now()
	if err := r.mgr.Restart([]string{SES, STR}); err != nil {
		t.Fatal(err)
	}
	_ = r.k.RunWhile(func() bool {
		return !r.mgr.Serving(SES) || !r.mgr.Serving(STR)
	})
	elapsed := r.k.Now().Sub(start)
	if elapsed > 8*time.Second {
		t.Fatalf("joint restart took %v, want ~max startup + settle", elapsed)
	}
	// No component crashed during the joint restart.
	downs := r.rec.Filter(func(e trace.Event) bool {
		return e.Kind == trace.ComponentDown && e.At.After(start) &&
			strings.Contains(e.Detail, "resynchronization")
	})
	if len(downs) != 0 {
		t.Fatalf("induced failures during joint restart: %v", downs)
	}
}

// TestPbcomAging reproduces §4.2: repeated fedr failures eventually lead
// to a pbcom failure.
func TestPbcomAging(t *testing.T) {
	r := newRig(t, Split, 6)
	r.boot(t)
	limit := pbcomAgeLimit
	for i := 0; i < limit; i++ {
		if st, _ := r.mgr.State(Pbcom); st == proc.Dead {
			break
		}
		_ = r.mgr.Restart([]string{Fedr})
		_ = r.k.RunFor(10 * time.Second)
	}
	st, _ := r.mgr.State(Pbcom)
	if st != proc.Dead {
		t.Fatalf("pbcom state = %v after %d fedr restarts, want Dead (aging)", st, limit)
	}
	downs := r.rec.Filter(func(e trace.Event) bool {
		return e.Kind == trace.ComponentDown && e.Component == Pbcom
	})
	if len(downs) == 0 || !strings.Contains(downs[len(downs)-1].Detail, "aged out") {
		t.Fatalf("pbcom down events = %v", downs)
	}
}

// TestFedrReadyRequiresPbcom: fedr only becomes ready once pbcom
// acknowledges the connection, so a joint restart costs ~pbcom's startup.
func TestFedrReadyRequiresPbcom(t *testing.T) {
	r := newRig(t, Split, 7)
	r.boot(t)
	_ = r.mgr.Kill(Pbcom, "test")
	_ = r.mgr.Restart([]string{Fedr})
	_ = r.k.RunFor(15 * time.Second) // fedr startup ~5s, but no pbcom
	if r.mgr.Serving(Fedr) {
		t.Fatal("fedr ready without pbcom connection")
	}
	_ = r.mgr.Restart([]string{Pbcom})
	_ = r.k.RunFor(30 * time.Second)
	if !r.mgr.Serving(Fedr) || !r.mgr.Serving(Pbcom) {
		t.Fatal("front end did not recover")
	}
}

// TestFedrFastRestartWhenPbcomUp: with pbcom up, a fedr restart completes
// in roughly its own startup time (the split's payoff).
func TestFedrFastRestartWhenPbcomUp(t *testing.T) {
	r := newRig(t, Split, 8)
	r.boot(t)
	start := r.k.Now()
	_ = r.mgr.Restart([]string{Fedr})
	_ = r.k.RunWhile(func() bool { return !r.mgr.Serving(Fedr) })
	elapsed := r.k.Now().Sub(start)
	if elapsed > 7*time.Second {
		t.Fatalf("fedr restart took %v, want ~5s", elapsed)
	}
}

// TestTelemetryFlows is the domain integration check: ses estimates drive
// str pointing and rtu tuning all the way to radio-locked telemetry.
func TestTelemetryFlows(t *testing.T) {
	r := newRig(t, Split, 9)
	r.boot(t)
	_ = r.k.RunFor(2 * time.Minute)
	if r.coll.Count("elevation_rad") == 0 {
		t.Fatal("no ses telemetry")
	}
	if r.coll.Count("on_target") == 0 {
		t.Fatal("no str tracking telemetry")
	}
	if r.coll.Count("radio_locked") == 0 {
		t.Fatal("no radio telemetry")
	}
	if v, ok := r.coll.Latest("radio_locked"); !ok || v != 1 {
		t.Fatalf("radio not locked: %v %v", v, ok)
	}
}

// TestMonolithicTelemetryFlows checks the tree-I/II data path through
// fedrcom.
func TestMonolithicTelemetryFlows(t *testing.T) {
	r := newRig(t, Monolithic, 10)
	r.boot(t)
	_ = r.k.RunFor(2 * time.Minute)
	if v, ok := r.coll.Latest("radio_locked"); !ok || v != 1 {
		t.Fatalf("radio not locked via fedrcom: %v %v", v, ok)
	}
}

// TestSyncSurvivesMbusRestart: the resync retransmission rides out a bus
// outage during a whole-system boot.
func TestSyncSurvivesMbusRestart(t *testing.T) {
	r := newRig(t, Split, 11)
	r.boot(t)
	// Restart ses, str and mbus together: sync proposals sent while mbus
	// is still starting get lost and must be retransmitted.
	if err := r.mgr.Restart([]string{SES, STR, MBus}); err != nil {
		t.Fatal(err)
	}
	_ = r.k.RunFor(30 * time.Second)
	if !r.mgr.Serving(SES) || !r.mgr.Serving(STR) || !r.mgr.Serving(MBus) {
		t.Fatal("pair did not resync after mbus restart")
	}
}

// TestDeterministicBoot: the same seed yields an identical event trace.
func TestDeterministicBoot(t *testing.T) {
	run := func() []string {
		r := newRig(t, Split, 42)
		r.boot(t)
		evs := r.rec.Events()
		out := make([]string, len(evs))
		for i, e := range evs {
			out[i] = e.String()
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// pingSink counts pongs (a minimal FD stand-in).
type pingSink struct {
	pongs int
}

func (p *pingSink) Start(ctx proc.Context) { ctx.After(0, ctx.Ready) }
func (p *pingSink) Receive(ctx proc.Context, m *xmlcmd.Message) {
	if m.Kind() == xmlcmd.KindPong {
		p.pongs++
	}
}

// TestMicroStateSize: a micro-mode container's bookkeeping stays in the
// 64-byte size class; its subs' records live beside it.
func TestMicroStateSize(t *testing.T) {
	if n := unsafe.Sizeof(microState{}); n > 64 {
		t.Fatalf("microState is %d bytes, want at most 64", n)
	}
}
