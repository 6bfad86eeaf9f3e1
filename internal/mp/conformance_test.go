package mp

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	mercury "github.com/recursive-restart/mercury"
	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/rt"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/trace/tracetest"
)

// outcome is what one runtime did about one scripted fault: the restart
// tree nodes REC pushed for the injected component, in order, and how often
// each component the script names was restarted. A recovery of FD or REC
// by its peer pushes no node; its FailureDetected line stands in for one.
type outcome struct {
	nodes    []string
	restarts map[string]int
	// crossed lists the restarts pushed for some other component at a node
	// covering the injected one. A wall-clock host that misses the FD's
	// 25 ms pong floor suspects and restarts spuriously; elsewhere in the
	// tree that is simply not part of the script, but a push that lands on
	// the scripted cell or above it rewrites the episode under test.
	crossed []string
	// recovered counts the SystemRecovered events after the injection, and
	// lateReady lists the script's components that logged a ComponentReady
	// after the last of them: the outage must end once, when the whole cell
	// is back. strays counts every unscripted push after the injection — a
	// spurious restart anywhere in the tree opens or stretches an outage.
	recovered int
	lateReady []string
	strays    int
}

// observe reads an outcome off a station's recorded trace and its manager.
// before holds the restart counts of the script's components taken ahead
// of the injection.
func observe(rec *tracetest.Recorder, mgr *proc.Manager, tree *core.Tree, manifest string, before map[string]int) outcome {
	out := outcome{restarts: make(map[string]int, len(before))}
	covering := map[string]bool{}
	for n, _ := tree.CellOf(manifest); n != nil; n = n.Parent() {
		covering[n.Label()] = true
	}
	injected := false
	for _, e := range rec.Events() {
		switch {
		case e.Kind == trace.FaultInjected && e.Component == manifest:
			injected = true
		case e.Kind == trace.RestartRequested && e.Component == manifest:
			out.nodes = append(out.nodes, e.Node)
		case e.Kind == trace.FailureDetected && e.Component == manifest &&
			(manifest == mercury.FDName || manifest == mercury.RECName):
			out.nodes = append(out.nodes, e.Detail)
		case e.Kind == trace.RestartRequested:
			if covering[e.Node] {
				out.crossed = append(out.crossed, e.Component+"@"+e.Node)
			}
			if injected {
				out.strays++
			}
		case e.Kind == trace.SystemRecovered && injected:
			out.recovered++
			out.lateReady = nil
		case e.Kind == trace.ComponentReady && injected && out.recovered > 0:
			if _, cured := before[e.Component]; cured {
				out.lateReady = append(out.lateReady, e.Component)
			}
		}
	}
	for c, n := range before {
		now, _ := mgr.Restarts(c)
		out.restarts[c] = now - n
	}
	return out
}

func restartCounts(mgr *proc.Manager, comps map[string]int) map[string]int {
	counts := make(map[string]int, len(comps))
	for c := range comps {
		counts[c], _ = mgr.Restarts(c)
	}
	return counts
}

// onSim runs the script on the simulator — the reference the live runtimes
// are held to.
func onSim(t *testing.T, tree, manifest string, hang bool, comps map[string]int) outcome {
	t.Helper()
	sys, err := mercury.NewSystem(mercury.Config{Seed: 1, TreeName: tree})
	if err != nil {
		t.Fatal(err)
	}
	rec := tracetest.Record(sys.Log)
	if err := sys.Boot(); err != nil {
		t.Fatal(err)
	}
	before := restartCounts(sys.Mgr, comps)
	if _, err := sys.MeasureRecovery(mercury.Fault{Component: manifest, Hang: hang}, 5*time.Minute); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !sys.Whole() {
		t.Fatal("sim: not recovered")
	}
	return observe(rec, sys.Mgr, sys.Tree, manifest, before)
}

// onHost runs the script on a booted wall-clock host, whose trace rec has
// recorded since the host started; the in-process node and the supervisor
// are both one.
func onHost(t *testing.T, name string, h *rt.Host, rec *tracetest.Recorder, manifest string, hang bool, comps map[string]int) outcome {
	t.Helper()
	var before map[string]int
	h.Disp.Call(func() { before = restartCounts(h.Mgr, comps) })
	if err := h.Inject(fault.Fault{Manifest: manifest, Hang: hang}); err != nil {
		t.Fatalf("%s: inject: %v", name, err)
	}
	if err := h.WaitRecovered(60 * time.Second); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var out outcome
	h.Disp.Call(func() { out = observe(rec, h.Mgr, h.Tree, manifest, before) })
	return out
}

// TestConformance is the first cross-runtime conformance check: one
// scripted fault on tree IV must produce the same recovery — the same tree
// nodes pushed for the injected component, in the same order, the same
// restarts across the cure set, and exactly one SystemRecovered once the
// cure set is back — on the simulator, on the in-process node and across
// real child processes. All three are wired by one
// assemble.Assemble, so what this pins is that the runtimes differ in
// clock and transport only; the hang script pins that a hang is a
// silencing under each, and the fd-hang script that a hung FD is restarted
// by REC, once, while nobody restarts REC (under mp both run in the
// supervisor).
func TestConformance(t *testing.T) {
	const tree, scale = "IV", 50
	for _, sc := range []struct {
		name     string
		manifest string
		hang     bool
		restarts map[string]int // how often each component is restarted
	}{
		{station.RTU, station.RTU, false, map[string]int{station.RTU: 1}},
		{station.SES, station.SES, false, map[string]int{station.SES: 1, station.STR: 1}}, // consolidated cell
		{"rtu-hang", station.RTU, true, map[string]int{station.RTU: 1}},
		{"fd-hang", mercury.FDName, true, map[string]int{mercury.FDName: 1, mercury.RECName: 0}},
	} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			want := onSim(t, tree, sc.manifest, sc.hang, sc.restarts)
			if len(want.nodes) == 0 {
				t.Fatal("sim pushed no restart for the injected component")
			}
			if !reflect.DeepEqual(want.restarts, sc.restarts) {
				t.Errorf("sim restarted %v, want %v", want.restarts, sc.restarts)
			}
			// One definition of "recovered" under every runtime: the
			// assembled station's monitor logs the end of the outage.
			oneRecovery := func(name string, o outcome) {
				if o.recovered != 1 || len(o.lateReady) > 0 {
					t.Errorf("%s logged %d SystemRecovered for one scripted fault (cure-set readies after it: %v), want exactly 1 after the last",
						name, o.recovered, o.lateReady)
				}
			}
			oneRecovery("sim", want)

			node, err := rt.StartNode(rt.NodeConfig{ListenAddr: "127.0.0.1:0", Scale: scale, TreeName: tree, Seed: 1})
			if err != nil {
				t.Fatalf("StartNode: %v", err)
			}
			defer node.Stop()
			nodeRec := tracetest.Record(node.Log)
			sup, err := StartSupervisor(rt.NodeConfig{ListenAddr: "127.0.0.1:0", Scale: scale, TreeName: tree, Seed: 1})
			if err != nil {
				t.Fatalf("StartSupervisor: %v", err)
			}
			defer sup.Stop()
			supRec := tracetest.Record(sup.Log)

			for _, r := range []struct {
				name string
				h    *rt.Host
				rec  *tracetest.Recorder
			}{{"rt", node, nodeRec}, {"mp", sup.Host, supRec}} {
				name, rec := r.name, r.rec
				got := onHost(t, name, r.h, rec, sc.manifest, sc.hang, sc.restarts)
				if len(got.crossed) > 0 {
					t.Logf("%s: unscripted %v crossed the episode (pushed %v, restarted %v); not compared",
						name, got.crossed, got.nodes, got.restarts)
					continue
				}
				if !reflect.DeepEqual(got.nodes, want.nodes) {
					t.Errorf("%s pushed %v for %s, sim pushed %v", name, got.nodes, sc.manifest, want.nodes)
				}
				if !reflect.DeepEqual(got.restarts, want.restarts) {
					t.Errorf("%s restarted %v, sim restarted %v", name, got.restarts, want.restarts)
				}
				if got.strays > 0 {
					t.Logf("%s: %d unscripted restarts after the injection; outage count not compared", name, got.strays)
				} else {
					oneRecovery(name, got)
				}
				if t.Failed() {
					for _, e := range rec.Filter(func(e trace.Event) bool {
						return e.Kind == trace.FailureDetected || e.Kind == trace.RestartRequested
					}) {
						t.Log(name, e)
					}
				}
			}
		})
	}
}

// TestFailedStartLeavesNoGoroutines pins the start-up tear-down: a
// supervisor that fails after its dispatcher exists stops it (and closes
// what it opened) before returning the error; an m-variant tree is
// refused with an error that says why.
func TestFailedStartLeavesNoGoroutines(t *testing.T) {
	bad := []struct {
		cfg  rt.NodeConfig
		want string // in the error
	}{
		{rt.NodeConfig{TreeName: "bogus"}, "unknown tree"},                                      // fails in the assembly
		{rt.NodeConfig{TreeName: "IV", CkptInterval: time.Second}, "micro mode"},                // fails in the assembly
		{rt.NodeConfig{TreeName: "IV", ListenAddr: "127.0.0.1:99999999"}, "99999999"},           // fails opening the fabric
		{rt.NodeConfig{TreeName: "IVm"}, `tree "IVm": micro mode needs the in-process runtime`}, // assembled, then refused
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		b := bad[i%len(bad)]
		b.cfg.Scale = mpScale
		_, err := StartSupervisor(b.cfg)
		if err == nil {
			t.Fatalf("%+v accepted", b.cfg)
		}
		if !strings.Contains(err.Error(), b.want) {
			t.Fatalf("%+v: error %q does not say %q", b.cfg, err, b.want)
		}
	}
	// Stop waits for the dispatcher; only already-exiting goroutines of
	// earlier tests may still be counted, and those only go away.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before 20 failed starts, %d after", before, after)
	}
}
