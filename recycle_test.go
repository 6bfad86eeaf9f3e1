package mercury

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/trace/tracetest"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// Recycle safety of the one message pool, at station level. All of these
// run with the poison mode on: every envelope the fabric hands back is
// overwritten with sentinels on the spot, so anything that kept a message
// past its delivery — or any envelope recycled while a copy is still in
// flight — shows up as a frame addressed to "\x00recycled" (a destination
// drop), a poisoned telemetry key at the collector, or a NaN. A message
// recycled twice panics in the pool itself.

// assertNoPoisonSeen checks the places stale reads would surface.
func assertNoPoisonSeen(t *testing.T, sys *System, rec *tracetest.Recorder) {
	t.Helper()
	if n := sys.Collector.Count(xmlcmd.PoisonString); n != 0 {
		t.Errorf("collector saw %d poisoned telemetry samples", n)
	}
	for _, key := range []string{"elevation_rad", "on_target", "radio_locked"} {
		if v, ok := sys.Collector.Latest(key); !ok || math.IsNaN(v) {
			t.Errorf("telemetry %q = %v, %v", key, v, ok)
		}
	}
	for _, e := range rec.Events() {
		if strings.Contains(e.Component, xmlcmd.PoisonString) || strings.Contains(e.Detail, xmlcmd.PoisonString) {
			t.Errorf("poison leaked into the trace: %+v", e)
		}
	}
}

// TestRecycleUnderDuplication: with half of all hops duplicated (and
// jittered, so copies overtake each other), each envelope must come back
// exactly once, after its last copy landed. Nothing is lost, so nobody may
// be suspected and no frame may miss its destination.
func TestRecycleUnderDuplication(t *testing.T) {
	defer xmlcmd.PoisonRecycledForTest()()
	sys, rec := bootRecorded(t, Config{Seed: 11, TreeName: "IV"})
	if err := sys.SetChaos(&bus.ChaosProfile{Dup: 0.5, Jitter: fault.Uniform{Lo: 0, Hi: 3 * time.Millisecond}}); err != nil {
		t.Fatal(err)
	}
	base := sys.Bus.Stats()
	if err := sys.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	st := sys.Bus.Stats()
	if st.Duplicated-base.Duplicated < 1000 {
		t.Fatalf("chaos did not engage: %+v", st)
	}
	if d := st.DroppedDest - base.DroppedDest; d != 0 {
		t.Errorf("%d frames missed their destination: an envelope was recycled with a copy in flight", d)
	}
	for _, c := range sys.Components() {
		if n, _ := sys.Mgr.Restarts(c); n != 0 {
			t.Errorf("%s restarted %d times on a lossless fabric", c, n)
		}
	}
	assertNoPoisonSeen(t, sys, rec)
}

// TestKillWithFramesInFlight: components die at arbitrary phases of the
// ping, estimate and tune traffic, so frames addressed to them — and their
// own replies — are in the hop queue when the process goes. Those frames
// are dropped and recycled, the restarted incarnation draws from the same
// pool, and the station must come back whole every time.
func TestKillWithFramesInFlight(t *testing.T) {
	defer xmlcmd.PoisonRecycledForTest()()
	sys, rec := bootRecorded(t, Config{Seed: 12, TreeName: "IV"})
	dropped := sys.Bus.Stats().DroppedDest
	for i, c := range []string{"rtu", "str", "fedr", "ses", "pbcom", "rtu", "mbus", "str"} {
		// An odd offset walks the kill instant across the 1 s ping and
		// estimate cycles.
		if err := sys.RunFor(time.Duration(1000+137*i) * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.MeasureRecovery(Fault{Component: c}, 5*time.Minute); err != nil {
			t.Fatalf("kill %d (%s): %v", i, c, err)
		}
	}
	if sys.Bus.Stats().DroppedDest == dropped {
		t.Fatal("no frame was in flight to a dead process: the test did not exercise the drop path")
	}
	if err := sys.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !sys.Whole() || !sys.Mgr.AllServing(sys.Components()...) {
		t.Fatal("station not whole after the kill sequence")
	}
	assertNoPoisonSeen(t, sys, rec)
}

// TestCustomTreeStaysPrivate: the paper's trees are shared between
// systems, the map holding them is not.
func TestCustomTreeStaysPrivate(t *testing.T) {
	custom, err := core.TrivialTree("custom", station.SplitComponents())
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewSystem(Config{Seed: 1, CustomTree: custom})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSystem(Config{Seed: 2, TreeName: "IVm"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewSystem(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Trees["custom"] != custom || a.Tree != custom {
		t.Fatal("custom tree not installed in its own system")
	}
	for name, sys := range map[string]*System{"b": b, "c": c} {
		if _, ok := sys.Trees["custom"]; ok {
			t.Errorf("system %s sees another system's custom tree", name)
		}
	}
	if _, ok := c.Trees["IVm"]; ok {
		t.Error("a classic system sees the micro-mode tree of another")
	}
	for _, name := range []string{"I", "II", "IIp", "III", "IV", "V"} {
		if a.Trees[name] == nil || a.Trees[name] != c.Trees[name] || b.Trees[name] != c.Trees[name] {
			t.Errorf("tree %s is not the one shared instance", name)
		}
	}
}
