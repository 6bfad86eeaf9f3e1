package mercury

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/trace/tracetest"
)

func bootSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if err := sys.Boot(); err != nil {
		t.Fatalf("Boot: %v", err)
	}
	return sys
}

// bootRecorded is bootSystem with a recorder on the trace from before boot.
func bootRecorded(t *testing.T, cfg Config) (*System, *tracetest.Recorder) {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	rec := tracetest.Record(sys.Log)
	if err := sys.Boot(); err != nil {
		t.Fatalf("Boot: %v", err)
	}
	return sys, rec
}

func TestBootAllTrees(t *testing.T) {
	for _, name := range []string{"I", "II", "IIp", "III", "IV", "V"} {
		name := name
		t.Run("tree"+name, func(t *testing.T) {
			sys := bootSystem(t, Config{Seed: 1, TreeName: name, Policy: PolicyPerfect})
			if !sys.Mgr.AllServing(sys.Components()...) {
				t.Fatal("not all components serving after boot")
			}
		})
	}
}

func TestUnknownTreeRejected(t *testing.T) {
	if _, err := NewSystem(Config{TreeName: "VII"}); !errors.Is(err, ErrUnknownTree) {
		t.Fatalf("err = %v", err)
	}
}

func TestMeasureRecoveryRequiresBoot(t *testing.T) {
	sys, err := NewSystem(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.MeasureRecovery(Fault{Component: "rtu"}, time.Minute); !errors.Is(err, ErrNotBooted) {
		t.Fatalf("err = %v", err)
	}
	if err := sys.Inject(Fault{Component: "rtu"}); !errors.Is(err, ErrNotBooted) {
		t.Fatalf("Inject err = %v", err)
	}
}

func TestDoubleBootRejected(t *testing.T) {
	sys := bootSystem(t, Config{Seed: 1})
	if err := sys.Boot(); err == nil {
		t.Fatal("second Boot accepted")
	}
}

func TestTreeIIRecoveryIsPartial(t *testing.T) {
	sys := bootSystem(t, Config{Seed: 2, TreeName: "II", Policy: PolicyPerfect})
	d, err := sys.MeasureRecovery(Fault{Component: "rtu"}, time.Minute)
	if err != nil {
		t.Fatalf("MeasureRecovery: %v", err)
	}
	// Paper: 5.59 s. Accept the right neighbourhood.
	if d < 4*time.Second || d > 8*time.Second {
		t.Fatalf("tree II rtu recovery = %v, want ~5.6s", d)
	}
	// Only rtu restarted.
	for _, c := range sys.Components() {
		n, _ := sys.Mgr.Restarts(c)
		if c == "rtu" && n != 1 {
			t.Fatalf("rtu restarts = %d", n)
		}
		if c != "rtu" && n != 0 {
			t.Fatalf("%s restarted %d times under partial restart", c, n)
		}
	}
}

func TestTreeIRecoveryIsTotal(t *testing.T) {
	sys := bootSystem(t, Config{Seed: 3, TreeName: "I", Policy: PolicyPerfect})
	d, err := sys.MeasureRecovery(Fault{Component: "rtu"}, 2*time.Minute)
	if err != nil {
		t.Fatalf("MeasureRecovery: %v", err)
	}
	// Paper: 24.75 s for any component under tree I.
	if d < 20*time.Second || d > 30*time.Second {
		t.Fatalf("tree I recovery = %v, want ~24.75s", d)
	}
	// Everything was restarted together.
	for _, c := range sys.Components() {
		if n, _ := sys.Mgr.Restarts(c); n != 1 {
			t.Fatalf("%s restarts = %d under whole-system restart", c, n)
		}
	}
}

func TestTreeIVConsolidatedRecovery(t *testing.T) {
	sys := bootSystem(t, Config{Seed: 4, TreeName: "IV", Policy: PolicyPerfect})
	d, err := sys.MeasureRecovery(Fault{Component: "ses"}, time.Minute)
	if err != nil {
		t.Fatalf("MeasureRecovery: %v", err)
	}
	// Paper: 6.25 s (max-based), versus ~9.5 s sequential under tree III.
	if d > 8*time.Second {
		t.Fatalf("tree IV ses recovery = %v, want ~6s", d)
	}
	// Both trackers restarted exactly once, together.
	for _, c := range []string{"ses", "str"} {
		if n, _ := sys.Mgr.Restarts(c); n != 1 {
			t.Fatalf("%s restarts = %d", c, n)
		}
	}
}

func TestTreeIIISequentialTrackerRecovery(t *testing.T) {
	sys := bootSystem(t, Config{Seed: 5, TreeName: "III", Policy: PolicyPerfect})
	d, err := sys.MeasureRecovery(Fault{Component: "ses"}, time.Minute)
	if err != nil {
		t.Fatalf("MeasureRecovery: %v", err)
	}
	// Paper: 9.50 s — ses restart induces a str failure, handled serially.
	if d < 7*time.Second || d > 13*time.Second {
		t.Fatalf("tree III ses recovery = %v, want ~9.5s", d)
	}
	if n, _ := sys.Mgr.Restarts("str"); n != 1 {
		t.Fatalf("str restarts = %d (induced failure not recovered)", n)
	}
}

func TestFaultyOracleEscalatesOnJointFault(t *testing.T) {
	sys := bootSystem(t, Config{Seed: 6, TreeName: "IV", Policy: PolicyFaulty, FaultyP: 1.0})
	d, err := sys.MeasureRecovery(Fault{Component: "pbcom", Cure: []string{"fedr", "pbcom"}}, 3*time.Minute)
	if err != nil {
		t.Fatalf("MeasureRecovery: %v", err)
	}
	// Always-wrong: pbcom alone (~21s), persist, then joint (~21s): ~42s+.
	if d < 35*time.Second {
		t.Fatalf("always-wrong faulty oracle recovered in %v; too fast", d)
	}
}

func TestTreeVImmuneToFaultyOracle(t *testing.T) {
	sys := bootSystem(t, Config{Seed: 7, TreeName: "V", Policy: PolicyFaulty, FaultyP: 1.0})
	d, err := sys.MeasureRecovery(Fault{Component: "pbcom", Cure: []string{"fedr", "pbcom"}}, 2*time.Minute)
	if err != nil {
		t.Fatalf("MeasureRecovery: %v", err)
	}
	// In tree V pbcom's cell already includes fedr: a guess-too-low
	// mistake is structurally impossible, so one joint restart suffices.
	if d > 26*time.Second {
		t.Fatalf("tree V pbcom recovery with faulty oracle = %v, want ~22s", d)
	}
}

func TestDisableRecovery(t *testing.T) {
	sys := bootSystem(t, Config{Seed: 8, TreeName: "IV", DisableRecovery: true})
	if err := sys.Inject(Fault{Component: "rtu"}); err != nil {
		t.Fatal(err)
	}
	_ = sys.RunFor(time.Minute)
	if sys.Mgr.Serving("rtu") {
		t.Fatal("rtu recovered without FD/REC")
	}
}

func TestSystemRecoveredLoggedOnce(t *testing.T) {
	sys, rec := bootRecorded(t, Config{Seed: 9, TreeName: "II", Policy: PolicyPerfect})
	if _, err := sys.MeasureRecovery(Fault{Component: "rtu"}, time.Minute); err != nil {
		t.Fatal(err)
	}
	_ = sys.RunFor(30 * time.Second)
	recs := rec.Filter(func(e trace.Event) bool { return e.Kind == trace.SystemRecovered })
	if len(recs) != 1 {
		t.Fatalf("SystemRecovered logged %d times, want 1", len(recs))
	}
}

func TestBackToBackRecoveries(t *testing.T) {
	sys := bootSystem(t, Config{Seed: 10, TreeName: "IV", Policy: PolicyPerfect})
	var prev time.Duration
	for i := 0; i < 3; i++ {
		d, err := sys.MeasureRecovery(Fault{Component: "rtu"}, time.Minute)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if d <= 0 {
			t.Fatalf("trial %d: non-positive recovery %v", i, d)
		}
		prev = d
		_ = sys.RunFor(10 * time.Second) // settle between trials
	}
	_ = prev
}

func TestLearningOracleConverges(t *testing.T) {
	sys := bootSystem(t, Config{Seed: 11, TreeName: "IV", Policy: PolicyLearning})
	joint := Fault{Component: "pbcom", Cure: []string{"fedr", "pbcom"}}
	var first, last time.Duration
	const rounds = 5
	for i := 0; i < rounds; i++ {
		d, err := sys.MeasureRecovery(joint, 4*time.Minute)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if i == 0 {
			first = d
		}
		last = d
		_ = sys.RunFor(30 * time.Second) // let the verdict window close
	}
	// Round 1 escalates (~43s); once learned, one joint restart (~22s).
	if last >= first {
		t.Fatalf("learning oracle did not improve: first=%v last=%v", first, last)
	}
	if last > 26*time.Second {
		t.Fatalf("converged recovery still slow: %v", last)
	}
}

// AllPolicies lists every Policy constant, for the table checks here and in
// docs_test.go.
var AllPolicies = []Policy{PolicyEscalating, PolicyPerfect, PolicyFaulty, PolicyLearning,
	PolicyCostAware, PolicyFixedMicro, PolicyFixedProcess, PolicyFixedCkpt}

// TestPolicyString checks that each Policy string is a key of core's one
// policy table: every constant builds through core.PolicyByName under its
// own name, and the zero Config runs the escalating policy.
func TestPolicyString(t *testing.T) {
	for _, p := range AllPolicies {
		o, err := core.PolicyByName(string(p), core.PolicyDeps{})
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		// The faulty policy's name carries its rate: "faulty(0%)".
		if !strings.HasPrefix(o.Name(), string(p)) {
			t.Errorf("Policy %q builds %q", p, o.Name())
		}
	}
	sys, err := NewSystem(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Oracle.Name(); got != "escalating" {
		t.Fatalf("zero Config runs %q, want escalating", got)
	}
}

func TestDeterministicMeasurements(t *testing.T) {
	measure := func() time.Duration {
		sys := bootSystem(t, Config{Seed: 77, TreeName: "IV", Policy: PolicyPerfect})
		d, err := sys.MeasureRecovery(Fault{Component: "str"}, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if a, b := measure(), measure(); a != b {
		t.Fatalf("same seed, different measurements: %v vs %v", a, b)
	}
}

func TestHangRecovery(t *testing.T) {
	sys := bootSystem(t, Config{Seed: 30, TreeName: "IV", Policy: PolicyPerfect})
	d, err := sys.MeasureRecovery(Fault{Component: "rtu", Hang: true}, time.Minute)
	if err != nil {
		t.Fatalf("MeasureRecovery: %v", err)
	}
	// A hang is detected and cured exactly like a crash.
	if d < 4*time.Second || d > 8*time.Second {
		t.Fatalf("hang recovery = %v, want ~5.6s", d)
	}
}
