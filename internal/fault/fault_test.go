package fault

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/sim"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/trace/tracetest"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// instantComp becomes ready immediately.
type instantComp struct{}

func (instantComp) Start(ctx proc.Context)                { ctx.After(0, ctx.Ready) }
func (instantComp) Receive(proc.Context, *xmlcmd.Message) {}

type rig struct {
	k     *sim.Kernel
	mgr   *proc.Manager
	board *Board
	rec   *tracetest.Recorder // every event since the rig was built
}

func newRig(t *testing.T, comps ...string) *rig {
	t.Helper()
	k := sim.New(21)
	log := trace.NewLog()
	rec := tracetest.Record(log)
	mgr := proc.NewManager(clock.Sim{K: k}, rand.New(rand.NewSource(3)), log)
	board := NewBoard(clock.Sim{K: k}, mgr, log)
	for _, c := range comps {
		if err := mgr.Register(c, func() proc.Handler { return instantComp{} }); err != nil {
			t.Fatal(err)
		}
	}
	if err := mgr.StartBatch(comps); err != nil {
		t.Fatal(err)
	}
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, mgr: mgr, board: board, rec: rec}
}

func TestInjectKillsManifest(t *testing.T) {
	r := newRig(t, "a", "b")
	if err := r.board.Inject(Fault{Manifest: "a"}); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	st, _ := r.mgr.State("a")
	if st != proc.Dead {
		t.Fatalf("state = %v, want Dead", st)
	}
	if r.board.ActiveCount() != 1 || r.board.Injected() != 1 {
		t.Fatalf("active=%d injected=%d", r.board.ActiveCount(), r.board.Injected())
	}
}

func TestRestartOfManifestCuresDefaultFault(t *testing.T) {
	r := newRig(t, "a")
	_ = r.board.Inject(Fault{Manifest: "a"})
	if err := r.mgr.Restart([]string{"a"}); err != nil {
		t.Fatal(err)
	}
	_ = r.k.RunFor(time.Second)
	if r.board.ActiveCount() != 0 {
		t.Fatal("default fault not cured by restarting manifest")
	}
	if !r.mgr.Serving("a") {
		t.Fatal("component not serving after cure")
	}
	if r.board.Cured() != 1 {
		t.Fatalf("cured = %d", r.board.Cured())
	}
}

func TestPartialRestartDoesNotCureJointFault(t *testing.T) {
	r := newRig(t, "fedr", "pbcom")
	_ = r.board.Inject(Fault{Manifest: "pbcom", Cure: []string{"fedr", "pbcom"}})
	// Restarting pbcom alone must not cure; it comes up silenced.
	_ = r.mgr.Restart([]string{"pbcom"})
	_ = r.k.RunFor(time.Second)
	if r.board.ActiveCount() != 1 {
		t.Fatal("joint fault cured by partial restart")
	}
	if r.mgr.Serving("pbcom") {
		t.Fatal("uncured manifest is serving")
	}
	st, _ := r.mgr.State("pbcom")
	if st != proc.Running {
		t.Fatalf("uncured manifest state = %v, want Running (silenced)", st)
	}
	// Joint restart cures.
	_ = r.mgr.Restart([]string{"fedr", "pbcom"})
	_ = r.k.RunFor(time.Second)
	if r.board.ActiveCount() != 0 {
		t.Fatal("joint restart did not cure")
	}
	if !r.mgr.Serving("pbcom") || !r.mgr.Serving("fedr") {
		t.Fatal("components not serving after joint cure")
	}
}

func TestSupersetRestartCures(t *testing.T) {
	r := newRig(t, "a", "b", "c")
	_ = r.board.Inject(Fault{Manifest: "a", Cure: []string{"a", "b"}})
	_ = r.mgr.Restart([]string{"a", "b", "c"}) // superset of cure
	_ = r.k.RunFor(time.Second)
	if r.board.ActiveCount() != 0 {
		t.Fatal("superset restart did not cure")
	}
}

func TestHardFaultNeverCured(t *testing.T) {
	r := newRig(t, "a")
	_ = r.board.Inject(Fault{Manifest: "a", Hard: true})
	for i := 0; i < 3; i++ {
		_ = r.mgr.Restart([]string{"a"})
		_ = r.k.RunFor(time.Second)
	}
	if r.board.ActiveCount() != 1 {
		t.Fatal("hard fault was cured")
	}
	if r.mgr.Serving("a") {
		t.Fatal("hard-faulted component serving")
	}
}

func TestMinimalCure(t *testing.T) {
	r := newRig(t, "a", "b")
	_ = r.board.Inject(Fault{Manifest: "a", Cure: []string{"b", "a"}})
	cure, ok := r.board.MinimalCure("a")
	if !ok || len(cure) != 2 || cure[0] != "a" || cure[1] != "b" {
		t.Fatalf("MinimalCure = %v, %v", cure, ok)
	}
	if _, ok := r.board.MinimalCure("b"); ok {
		t.Fatal("MinimalCure matched non-manifest component")
	}
}

// TestMinimalCureEarliest: with two faults on one component, the oracle is
// given the cure set of the one injected first.
func TestMinimalCureEarliest(t *testing.T) {
	for run := 0; run < 50; run++ {
		r := newRig(t, "a", "b")
		_ = r.board.Inject(Fault{Manifest: "a", Cure: []string{"a", "b"}})
		_ = r.board.Inject(Fault{Manifest: "a"})
		if cure, ok := r.board.MinimalCure("a"); !ok || !reflect.DeepEqual(cure, []string{"a", "b"}) {
			t.Fatalf("run %d: MinimalCure = %v, %v, want the first fault's [a b]", run, cure, ok)
		}
	}
}

// TestBoardCuresInInjectionOrder: faults one restart batch cures are cured,
// logged and announced in the order they were injected, run after run.
func TestBoardCuresInInjectionOrder(t *testing.T) {
	for run := 0; run < 50; run++ {
		r := newRig(t, "a", "b", "c")
		var announced []string
		r.board.OnCure(func(ev CureEvent) { announced = append(announced, ev.Fault.ID) })
		for _, c := range []string{"c", "a", "b"} {
			if err := r.board.Inject(Fault{Manifest: c}); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.mgr.Restart([]string{"a", "b", "c"}); err != nil {
			t.Fatal(err)
		}
		var logged []string
		for _, e := range r.rec.Filter(func(e trace.Event) bool { return e.Kind == trace.FaultCured }) {
			logged = append(logged, e.Fault)
		}
		want := []string{"f1", "f2", "f3"}
		if !reflect.DeepEqual(announced, want) {
			t.Fatalf("run %d: OnCure order %v, want %v", run, announced, want)
		}
		if !reflect.DeepEqual(logged, want) {
			t.Fatalf("run %d: FaultCured order %v, want %v", run, logged, want)
		}
	}
}

func TestInjectValidation(t *testing.T) {
	r := newRig(t, "a")
	if err := r.board.Inject(Fault{}); err == nil {
		t.Fatal("empty manifest accepted")
	}
	if err := r.board.Inject(Fault{ID: "x", Manifest: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := r.board.Inject(Fault{ID: "x", Manifest: "a"}); err == nil {
		t.Fatal("duplicate id accepted")
	}
}

func TestBoardClear(t *testing.T) {
	r := newRig(t, "a")
	_ = r.board.Inject(Fault{Manifest: "a"})
	r.board.Clear()
	if r.board.ActiveCount() != 0 {
		t.Fatal("Clear left active faults")
	}
}

func TestInjectorSchedulesOrganicFailures(t *testing.T) {
	r := newRig(t, "a")
	inj := NewInjector(clock.Sim{K: r.k}, r.mgr, r.board)
	inj.SetLaw("a", Deterministic{D: 10 * time.Second})
	inj.Enable()
	// Restart so the ready hook fires with the injector armed.
	_ = r.mgr.Restart([]string{"a"})
	_ = r.k.RunFor(5 * time.Second)
	if r.board.Injected() != 0 {
		t.Fatal("fault injected too early")
	}
	_ = r.k.RunFor(6 * time.Second)
	if r.board.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", r.board.Injected())
	}
	got := inj.TTFSamples("a")
	if len(got) != 1 || got[0] != 10*time.Second {
		t.Fatalf("TTF samples = %v", got)
	}
}

func TestInjectorSuppressedAfterRestart(t *testing.T) {
	r := newRig(t, "a")
	inj := NewInjector(clock.Sim{K: r.k}, r.mgr, r.board)
	inj.SetLaw("a", Deterministic{D: 10 * time.Second})
	inj.Enable()
	_ = r.mgr.Restart([]string{"a"}) // arm at ready
	_ = r.k.RunFor(5 * time.Second)
	_ = r.mgr.Restart([]string{"a"}) // new incarnation; first schedule stale
	inj.Disable()                    // prevent re-arming on the new ready
	_ = r.k.RunFor(20 * time.Second)
	if r.board.Injected() != 0 {
		t.Fatal("stale injection fired for old incarnation")
	}
}

func TestInjectorDisable(t *testing.T) {
	r := newRig(t, "a")
	inj := NewInjector(clock.Sim{K: r.k}, r.mgr, r.board)
	inj.SetLaw("a", Deterministic{D: time.Second})
	inj.Enable()
	_ = r.mgr.Restart([]string{"a"})
	inj.Disable()
	_ = r.k.RunFor(5 * time.Second)
	if r.board.Injected() != 0 {
		t.Fatal("disabled injector fired")
	}
}

func TestInjectorCureFor(t *testing.T) {
	r := newRig(t, "a", "b")
	inj := NewInjector(clock.Sim{K: r.k}, r.mgr, r.board)
	inj.SetLaw("a", Deterministic{D: time.Second})
	inj.CureFor = func(string) []string { return []string{"a", "b"} }
	inj.Enable()
	_ = r.mgr.Restart([]string{"a"})
	_ = r.k.RunFor(3 * time.Second)
	cure, ok := r.board.MinimalCure("a")
	if !ok || len(cure) != 2 {
		t.Fatalf("cure = %v, %v", cure, ok)
	}
}

// TestInjectorArmOrderFree: Arm primes in sorted component order, so two
// law maps with the same entries, built in different insertion orders,
// draw the same failure schedule from the shared RNG.
func TestInjectorArmOrderFree(t *testing.T) {
	comps := []string{"a", "b", "c"}
	schedule := func(order []string) [][]time.Duration {
		r := newRig(t, comps...)
		inj := NewInjector(clock.Sim{K: r.k}, r.mgr, r.board)
		laws := map[string]Law{}
		for _, c := range order {
			laws[c] = Exponential{M: 10 * time.Second}
		}
		inj.Arm(laws)
		_ = r.k.RunFor(10 * time.Minute)
		var out [][]time.Duration
		for _, c := range comps {
			out = append(out, inj.TTFSamples(c))
		}
		return out
	}
	want := schedule(comps)
	for _, got := range want {
		if len(got) != 1 {
			t.Fatalf("TTF samples %v: want one failure per component", want)
		}
	}
	for i := 0; i < 10; i++ {
		if got := schedule([]string{"c", "b", "a"}); !reflect.DeepEqual(got, want) {
			t.Fatalf("schedule depends on law-map order: %v vs %v", got, want)
		}
	}
}

func TestExponentialLawMean(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	law := Exponential{M: time.Hour}
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += law.Sample(rng).Hours()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.05 {
		t.Fatalf("exponential mean = %v hours, want ~1", mean)
	}
}

func TestLogNormalLawMeanAndCV(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	law := LogNormal{M: 10 * time.Second, CV: 0.1}
	var s, s2 float64
	const n = 20000
	for i := 0; i < n; i++ {
		x := law.Sample(rng).Seconds()
		s += x
		s2 += x * x
	}
	mean := s / n
	std := math.Sqrt(s2/n - mean*mean)
	if math.Abs(mean-10) > 0.2 {
		t.Fatalf("lognormal mean = %v, want ~10", mean)
	}
	if cv := std / mean; math.Abs(cv-0.1) > 0.02 {
		t.Fatalf("lognormal cv = %v, want ~0.1", cv)
	}
}

func TestLogNormalZeroCV(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	law := LogNormal{M: 5 * time.Second, CV: 0}
	if law.Sample(rng) != 5*time.Second {
		t.Fatal("zero-CV lognormal should be deterministic")
	}
}

func TestUniformLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	law := Uniform{Lo: time.Second, Hi: 3 * time.Second}
	var sum time.Duration
	const n = 1000
	for i := 0; i < n; i++ {
		d := law.Sample(rng)
		if d < time.Second || d > 3*time.Second {
			t.Fatalf("uniform sample out of range: %v", d)
		}
		sum += d
	}
	if mean := sum / n; (mean - (law.Lo+law.Hi)/2).Abs() > 100*time.Millisecond {
		t.Fatalf("mean = %v, want ~%v", mean, (law.Lo+law.Hi)/2)
	}
	deg := Uniform{Lo: time.Second, Hi: time.Second}
	if deg.Sample(rng) != time.Second {
		t.Fatal("degenerate uniform wrong")
	}
}

func TestNeverLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if (Never{}).Sample(rng) < 100*365*24*time.Hour {
		t.Fatal("Never law fired too soon")
	}
}

func TestCureList(t *testing.T) {
	f := Fault{Manifest: "m"}
	if got := f.CureList(); len(got) != 1 || got[0] != "m" {
		t.Fatalf("default CureList = %v", got)
	}
	f = Fault{Manifest: "m", Cure: []string{"b", "a", "b"}}
	got := f.CureList()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("CureList = %v", got)
	}
}

func TestHangFaultIsFailSilentButAlive(t *testing.T) {
	r := newRig(t, "a")
	if err := r.board.Inject(Fault{Manifest: "a", Hang: true}); err != nil {
		t.Fatal(err)
	}
	st, _ := r.mgr.State("a")
	if st != proc.Running {
		t.Fatalf("hung state = %v, want Running (silenced)", st)
	}
	if r.mgr.Serving("a") {
		t.Fatal("hung component still serving")
	}
	// A restart cures it like a crash.
	_ = r.mgr.Restart([]string{"a"})
	_ = r.k.RunFor(time.Second)
	if r.board.ActiveCount() != 0 || !r.mgr.Serving("a") {
		t.Fatal("restart did not cure the hang")
	}
}

func TestWeibullLawMeanAndAging(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	law := Weibull{Shape: 3, M: 10 * time.Minute}
	var sum float64
	var under5 int
	const n = 20000
	for i := 0; i < n; i++ {
		d := law.Sample(rng)
		sum += d.Minutes()
		if d < 5*time.Minute {
			under5++
		}
	}
	if mean := sum / n; math.Abs(mean-law.M.Minutes()) > 0.3 {
		t.Fatalf("weibull mean = %v min, want ~%v", mean, law.M.Minutes())
	}
	// Shape 3 concentrates mass near the mean: far fewer early failures
	// than the exponential with the same mean (which has ~39% below 5 min).
	frac := float64(under5) / n
	if frac > 0.2 {
		t.Fatalf("weibull(3) early-failure fraction = %.2f; aging shape lost", frac)
	}
	// Shape <= 0 degrades to exponential-like, not a crash.
	deg := Weibull{Shape: 0, M: time.Minute}
	if deg.Sample(rng) < 0 {
		t.Fatal("degenerate weibull negative")
	}
}

// TestInjectedLineKeepsItsCure: a cured fault's entry goes to the next
// injection, cure list and all, and the first fault's FaultInjected line
// still reads its own cure set afterwards.
func TestInjectedLineKeepsItsCure(t *testing.T) {
	r := newRig(t, "a", "b", "c")
	if err := r.board.Inject(Fault{ID: "f1", Manifest: "a", Cure: []string{"b", "a"}}); err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Restart([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if err := r.board.Inject(Fault{ID: "f2", Manifest: "c", Cure: []string{"c"}}); err != nil {
		t.Fatal(err)
	}
	if len(r.board.spare) != 0 {
		t.Fatal("f2 did not reuse f1's entry")
	}
	var lines []string
	for _, e := range r.rec.Filter(func(e trace.Event) bool { return e.Kind == trace.FaultInjected }) {
		lines = append(lines, string(e.AppendDetail(nil)))
	}
	want := []string{"id=f1 mode=crash cure=[a b] hard=false", "id=f2 mode=crash cure=[c] hard=false"}
	if !reflect.DeepEqual(lines, want) {
		t.Fatalf("FaultInjected details %q, want %q", lines, want)
	}
}

func TestKillReasonMatchesFmt(t *testing.T) {
	for _, seq := range []int{1, 9, 10, 12345, 1 << 40} {
		if got, want := killReason("", seq), "fault "+fmt.Sprintf("f%d", seq); got != want {
			t.Errorf("kill reason %q, fmt wrote %q", got, want)
		}
	}
	if got, want := killReason("burst-3", 0), "fault burst-3"; got != want {
		t.Errorf("kill reason %q, want %q", got, want)
	}
	if n := testing.AllocsPerRun(20, func() { reasonSink = killReason("", 42) }); n != 1 {
		t.Errorf("a kill reason costs %.0f allocations, want 1 (the string)", n)
	}
}

// reasonSink keeps a measured reason alive, as a listener might.
var reasonSink string
