package mercury

import (
	"strings"
	"testing"
	"time"

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

// Repeated fedr failures age pbcom until it fails on its own, and FD/REC
// recover that organic failure like any other.
func TestWithoutRejuvenationPbcomAgesOut(t *testing.T) {
	sys, rec := bootRecorded(t, Config{Seed: 21, TreeName: "IV", Policy: PolicyEscalating})
	ageOutPbcom(t, sys, 6)
	_ = sys.RunFor(2 * time.Minute)
	aged := rec.Filter(func(e trace.Event) bool {
		return e.Kind == trace.ComponentDown && e.Component == "pbcom" &&
			strings.Contains(e.Detail, "aged out")
	})
	if len(aged) == 0 {
		t.Fatal("pbcom never aged out")
	}
	// FD/REC still recover the aged-out pbcom (it is an organic failure).
	if !sys.Mgr.AllServing(sys.Components()...) {
		_ = sys.RunFor(time.Minute)
		if !sys.Mgr.AllServing(sys.Components()...) {
			t.Fatal("station did not recover from the aging failure")
		}
	}
}
