package mercury

import (
	"strings"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/station"
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
