package mercury

import (
	"strings"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/trace"
)

// ageOutPbcom drives repeated fedr failures so pbcom accumulates aging
// (each severed fedr connection ages it; the default limit is 6).
func ageOutPbcom(t *testing.T, sys *System, rounds int) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		if _, err := sys.MeasureRecovery(Fault{Component: "fedr"}, 2*time.Minute); err != nil {
			t.Fatalf("fedr round %d: %v", i, err)
		}
		if err := sys.RunFor(20 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWithoutRejuvenationPbcomAgesOut(t *testing.T) {
	sys := bootSystem(t, Config{Seed: 21, TreeName: "IV", Policy: PolicyEscalating})
	ageOutPbcom(t, sys, 6)
	_ = sys.RunFor(2 * time.Minute)
	aged := sys.Log.Filter(func(e trace.Event) bool {
		return e.Kind == trace.ComponentDown && e.Component == "pbcom" &&
			strings.Contains(e.Detail, "aged out")
	})
	if len(aged) == 0 {
		t.Fatal("pbcom never aged out without rejuvenation")
	}
	// FD/REC still recover the aged-out pbcom (it is an organic failure).
	if !sys.Mgr.AllServing(sys.Components()...) {
		_ = sys.RunFor(time.Minute)
		if !sys.Mgr.AllServing(sys.Components()...) {
			t.Fatal("station did not recover from the aging failure")
		}
	}
}

func TestRejuvenationPreventsAgingFailure(t *testing.T) {
	rec := core.DefaultRECParams()
	rec.Rejuvenate = true
	sys := bootSystem(t, Config{
		Seed: 22, TreeName: "IV", Policy: PolicyEscalating, RECParams: &rec,
	})
	ageOutPbcom(t, sys, 6)
	_ = sys.RunFor(2 * time.Minute)

	rejuv := sys.Log.Filter(func(e trace.Event) bool {
		return e.Kind == trace.Note && strings.Contains(e.Detail, "rejuvenation")
	})
	if len(rejuv) == 0 {
		t.Fatal("no proactive rejuvenation occurred")
	}
	aged := sys.Log.Filter(func(e trace.Event) bool {
		return e.Kind == trace.ComponentDown && e.Component == "pbcom" &&
			strings.Contains(e.Detail, "aged out")
	})
	if len(aged) != 0 {
		t.Fatalf("pbcom aged out despite rejuvenation: %v", aged)
	}
}

func TestRejuvenationRespectsIdleCheck(t *testing.T) {
	rec := core.DefaultRECParams()
	rec.Rejuvenate = true
	rec.IdleCheck = func() bool { return false } // a pass is always active
	sys := bootSystem(t, Config{
		Seed: 23, TreeName: "IV", Policy: PolicyEscalating, RECParams: &rec,
	})
	ageOutPbcom(t, sys, 5)
	_ = sys.RunFor(time.Minute)
	rejuv := sys.Log.Filter(func(e trace.Event) bool {
		return e.Kind == trace.Note && strings.Contains(e.Detail, "rejuvenation")
	})
	if len(rejuv) != 0 {
		t.Fatal("rejuvenation restarted during a critical window")
	}
}

func TestSuspectBeaconReachesREC(t *testing.T) {
	rec := core.DefaultRECParams()
	rec.Rejuvenate = true
	sys := bootSystem(t, Config{
		Seed: 24, TreeName: "IV", Policy: PolicyEscalating, RECParams: &rec,
	})
	// Age pbcom to exactly the suspect threshold (ageScore ≥ 0.8 at 5/6).
	ageOutPbcom(t, sys, 5)
	_ = sys.RunFor(time.Minute)
	st, err := sys.Mgr.State("pbcom")
	if err != nil || st != proc.Running {
		t.Fatalf("pbcom state = %v, %v", st, err)
	}
	// The proactive restart must have reset the incarnation.
	if n, _ := sys.Mgr.Restarts("pbcom"); n == 0 {
		t.Fatal("pbcom never proactively restarted")
	}
}

// TestRejuvenationFeedsNoOutcome: a proactive restart was not a cure
// attempt, so no policy may score it as a cured failure. (Before the
// policies shared one observer path the learning oracle did: pbcom, which
// never failed here, read "[pbcom]: 0.67 (1 tries)".)
func TestRejuvenationFeedsNoOutcome(t *testing.T) {
	for _, pol := range []Policy{PolicyLearning, PolicyCostAware} {
		rec := core.DefaultRECParams()
		rec.Rejuvenate = true
		sys := bootSystem(t, Config{Seed: 25, TreeName: "IV", Policy: pol, RECParams: &rec})
		ageOutPbcom(t, sys, 6)
		_ = sys.RunFor(2 * time.Minute)
		if n, _ := sys.Mgr.Restarts("pbcom"); n == 0 {
			t.Fatalf("%v: pbcom never proactively restarted", pol)
		}
		est := sys.Oracle.Estimator()
		if est.Failures("fedr") == 0 {
			t.Fatalf("%v: the injected fedr failures were not observed", pol)
		}
		if strings.Contains("\n"+est.Render(), "\npbcom:") {
			t.Fatalf("%v: rejuvenating pbcom fed the estimator:\n%s", pol, est.Render())
		}
	}
}
