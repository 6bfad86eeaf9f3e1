package mercury

import (
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/trace"
)

// A subcomponent killed while its process restarts stays dead when the
// process comes up: only a microreboot brings its logic back, and the
// container's handler, which saw the kill, agrees.
func TestSubKilledDuringParentStartStaysDead(t *testing.T) {
	sys := bootSystem(t, Config{Seed: 3, TreeName: "IVm", DisableRecovery: true})
	cache := proc.SubName(station.SES, station.SubCache)
	if err := sys.Mgr.Restart([]string{station.SES}); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := sys.Mgr.Kill(cache, "logic crash"); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !sys.Mgr.Serving(station.SES) {
		t.Fatal("ses did not come back")
	}
	st, _ := sys.Mgr.State(cache)
	inc, _ := sys.Mgr.Incarnation(cache)
	n, _ := sys.Mgr.Restarts(cache)
	if st != proc.Dead || sys.Mgr.Serving(cache) || inc != 2 || n != 0 {
		t.Fatalf("%s after its parent's ready: %v serving=%v incarnation=%d microreboots=%d, want dead at incarnation 2 with none",
			cache, st, sys.Mgr.Serving(cache), inc, n)
	}
}

// A killed recoverer records nothing: the verdict its incarnation had
// scheduled for a recovery it completed dies with it, so the policy never
// hears an outcome the live recoverer does not know about.
func TestKilledRECRecordsNoVerdict(t *testing.T) {
	sys := bootSystem(t, Config{Seed: 7, TreeName: "IV", Policy: PolicyLearning})
	if _, err := sys.MeasureRecovery(Fault{Component: station.RTU}, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := sys.Mgr.Kill(RECName, "test kill"); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if inc, _ := sys.Mgr.Incarnation(RECName); inc != 2 || !sys.Mgr.Serving(RECName) {
		t.Fatalf("rec incarnation %d serving=%v, want FD to have restarted it", inc, sys.Mgr.Serving(RECName))
	}
	if est := sys.Oracle.Estimator().Render(); strings.Contains(est, "[rtu]") {
		t.Fatalf("a dead recoverer recorded a verdict:\n%s", est)
	}
}

// A restart that a second fault cuts short did not cure anything. Here rtu
// fails, and while its restart is still starting both rtu and the broker
// are killed. The attempt is persisted at that death, with no duration
// sample. FD blames only the broker until mbus is back, so it reports rtu
// again well after the persistence window; that report opens a new
// episode and must not score the interrupted attempt cured. (It used to,
// with the 0.05 s from report to death as its duration.)
func TestInterruptedRestartIsNotCured(t *testing.T) {
	sys := bootSystem(t, Config{Seed: 7, TreeName: "IV", Policy: PolicyLearning})
	if err := sys.Inject(Fault{Component: station.RTU}); err != nil {
		t.Fatal(err)
	}
	for deadline := sys.Now().Add(time.Minute); ; {
		if st, _ := sys.Mgr.State(station.RTU); st == proc.Starting {
			break
		}
		if sys.Now().After(deadline) || !sys.Kernel.Step() {
			t.Fatal("rtu's restart never began")
		}
	}
	for _, name := range []string{station.RTU, station.MBus} {
		if err := sys.Mgr.Kill(name, "second fault"); err != nil {
			t.Fatal(err)
		}
	}
	est := sys.Oracle.Estimator()
	const key = "restart|[rtu]"
	if d, _ := est.Duration(station.RTU, key); est.PSuccess(station.RTU, key) != 1.0/3 || d != 0 {
		t.Fatalf("after the second fault %s should read one persisted try with no duration:\n%s", key, est.Render())
	}
	if err := sys.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !sys.Whole() {
		t.Fatalf("the station did not recover: %s", sys.describe())
	}
	// At most one later try on rtu alone can have cured it, and rtu is
	// never ready sooner than its startup after a report.
	if p := est.PSuccess(station.RTU, key); p > 0.5 {
		t.Errorf("%s p=%.2f: the interrupted attempt was scored cured:\n%s", key, p, est.Render())
	}
	if d, ok := est.Duration(station.RTU, key); ok && d < station.RtuStartup {
		t.Errorf("%s duration %v: a restart that never came up gave a sample:\n%s", key, d, est.Render())
	}
}

// A restart that came up but did not cure is persisted with its duration.
// The fault board silences pbcom in the same ready fan-out that tells REC
// it is up, and the board hears the ready first; the attempt still counts
// as one whose set was ready, so the estimator learns how long the failing
// rung took instead of falling back to its prior.
func TestUncuredRestartKeepsItsDuration(t *testing.T) {
	sys := bootSystem(t, Config{Seed: 7, TreeName: "IV", Policy: PolicyLearning})
	f := Fault{Component: station.Pbcom, Cure: []string{station.Fedr, station.Pbcom}}
	if _, err := sys.MeasureRecovery(f, 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	est := sys.Oracle.Estimator()
	const key = "restart|[pbcom]"
	least := time.Duration(float64(station.PbcomStartup) * (1 - station.StartupJitterFrac))
	if d, ok := est.Duration(station.Pbcom, key); est.PSuccess(station.Pbcom, key) != 1.0/3 || !ok || d < least {
		t.Fatalf("%s should read one uncured try timed at least pbcom's shortest startup (%v):\n%s", key, least, est.Render())
	}
}

// A component that hangs while it is still starting finishes starting: a
// silenced process's timers still fire, so it reaches Running, FD's
// reports on it are no longer stale, and REC restarts it. Were its
// timers dropped, it would stay Starting for good and never recover.
// This is why REC gates its own timers (REC.after) instead of proc
// skipping every silenced incarnation's.
func TestHungWhileStartingStillRecovers(t *testing.T) {
	sys := bootSystem(t, Config{Seed: 7, TreeName: "IV"})
	if err := sys.Mgr.Restart([]string{station.RTU}); err != nil {
		t.Fatal(err)
	}
	if st, _ := sys.Mgr.State(station.RTU); st != proc.Starting {
		t.Fatalf("rtu is %v right after its restart, want starting", st)
	}
	if err := sys.Inject(Fault{Component: station.RTU, Hang: true}); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !sys.Whole() {
		st, _ := sys.Mgr.State(station.RTU)
		t.Fatalf("the station did not recover: rtu is %v, serving=%v", st, sys.Mgr.Serving(station.RTU))
	}
}

// A hung failure detector is restarted by REC, once, and nobody restarts
// the healthy REC. The hung FD's timers still fire. Were its loops not
// gated, its dropped pings would have it blame the broker for pongs it
// never got and restart REC every few seconds, each time before REC could
// count its third missed pong of FD, so the hang would never be cured.
func TestHungFDIsRecovered(t *testing.T) {
	period := core.DefaultFDParams().PingPeriod
	for _, tree := range []string{"IV", "V", "IVm"} {
		t.Run(tree, func(t *testing.T) {
			sys := bootSystem(t, Config{Seed: 2002, TreeName: tree})
			injectedAt := sys.Now()
			var fdRestarts []time.Time
			sys.Mgr.OnBatch(func(names []string) {
				if slices.Contains(names, FDName) {
					fdRestarts = append(fdRestarts, sys.Now())
				}
			})
			var recovered int
			var hungWrote []trace.Event
			sys.Log.Subscribe(func(e trace.Event) {
				switch {
				case e.Kind == trace.SystemRecovered:
					recovered++
				case e.Kind == trace.FailureDetected && len(fdRestarts) == 0 && e.Detail != "rec initiating fd recovery":
					hungWrote = append(hungWrote, e)
				}
			})
			recBefore, _ := sys.Mgr.Restarts(RECName)
			if err := sys.Inject(Fault{Component: FDName, Hang: true}); err != nil {
				t.Fatal(err)
			}
			if err := sys.RunFor(2 * time.Minute); err != nil {
				t.Fatal(err)
			}
			recRestarts, _ := sys.Mgr.Restarts(RECName)
			if len(fdRestarts) != 1 || recRestarts != recBefore {
				t.Fatalf("fd restarted %d times, rec %d times; want REC to restart FD once and nobody REC",
					len(fdRestarts), recRestarts-recBefore)
			}
			if d := fdRestarts[0].Sub(injectedAt); d > 5*period {
				t.Errorf("fd restarted %v after its hang, want within %v", d, 5*period)
			}
			if sys.Board.ActiveCount() != 0 || !sys.Whole() {
				t.Errorf("the hang was not cured: %d faults active, %s", sys.Board.ActiveCount(), sys.describe())
			}
			if recovered != 1 {
				t.Errorf("%d SystemRecovered lines, want 1", recovered)
			}
			if len(hungWrote) > 0 {
				t.Errorf("the hung fd wrote %v", hungWrote)
			}
		})
	}
}
