package mercury

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/trace/tracetest"
)

// replay runs one station from seed under everything that overlaps faults:
// organic failures drawn the fleet's way (lognormal, CV 0.25, on every
// component; a 2-minute mean so they recur within the run), the chaos
// campaign's degraded fabric at 2 % loss with its hardened detector
// (SuspectAfter 3), and three faults injected 100 ms apart whose cure set
// is the whole station, so the one batch that restarts the root cell cures
// all three. It returns the trace's digest, every cure the board logged,
// and the instants the three injected faults were cured.
func replay(t *testing.T, tree string, seed int64) (digest uint64, cures []trace.Event, triple []time.Time) {
	t.Helper()
	fdp := core.DefaultFDParams()
	fdp.SuspectAfter = 3
	sys, err := NewSystem(Config{Seed: seed, TreeName: tree, FDParams: &fdp})
	if err != nil {
		t.Fatal(err)
	}
	rec := tracetest.Record(sys.Log)
	if err := sys.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetChaos(&bus.ChaosProfile{Loss: 0.02, Dup: 0.01, Jitter: fault.Uniform{Lo: 0, Hi: 2 * time.Millisecond}}); err != nil {
		t.Fatal(err)
	}
	comps := sys.Components()
	laws := make(map[string]fault.Law, len(comps))
	for _, c := range comps {
		laws[c] = fault.LogNormal{M: 2 * time.Minute, CV: 0.25}
	}
	sys.Injector.Arm(laws)
	sys.Board.OnCure(func(ev fault.CureEvent) {
		if len(ev.Fault.Cure) == len(comps) {
			triple = append(triple, ev.CuredAt)
		}
	})
	if err := sys.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"rtu", "str", "ses"} {
		if err := sys.Inject(Fault{Component: c, Cure: comps}); err != nil {
			t.Fatal(err)
		}
		if err := sys.RunFor(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.RunFor(20 * time.Minute); err != nil {
		t.Fatal(err)
	}
	return rec.Digest(), rec.Filter(func(e trace.Event) bool { return e.Kind == trace.FaultCured }), triple
}

// TestOneSeedOneTrace: a station's trace is a function of its seed. Trees
// II, IV, V and IVm at three seeds each run twice and must write the same
// events, in the same order, at the same instants — including the cures of
// the three overlapping faults, which one batch sets off together.
func TestOneSeedOneTrace(t *testing.T) {
	for _, tree := range []string{"II", "IV", "V", "IVm"} {
		for _, seed := range []int64{1, 2, 2002} {
			d1, cures, triple := replay(t, tree, seed)
			d2, again, _ := replay(t, tree, seed)
			if d1 != d2 {
				t.Errorf("tree %s seed %d: trace digests %016x and %016x; first differing cure: %v", tree, seed, d1, d2, firstDiff(cures, again))
			}
			if len(triple) != 3 || !triple[0].Equal(triple[2]) {
				t.Errorf("tree %s seed %d: the three injected faults were cured at %v, want one instant", tree, seed, triple)
			}
			if len(cures) <= len(triple) {
				t.Errorf("tree %s seed %d: no organic fault was cured", tree, seed)
			}
		}
	}
}

// firstDiff names the first position where two cure sequences differ.
func firstDiff(a, b []trace.Event) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Sprintf("#%d %v, then %v", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("none of the first %d; %d, then %d cures", min(len(a), len(b)), len(a), len(b))
}

// everyForm runs tree IVm under policy with REC's restart backoff on and
// injects, three minutes apart, one fault of each shape a trace line
// renders: a sub crash, a hang, a state fault with a two-member cure, a
// hard fault the budget gives up on and a plain two-member cure. Under
// fixed-ckpt and fixed-micro its trace holds every detail form: both
// lifecycles, every injection mode, attempts past the first, backoff
// notes and all three restart verbs. It returns the trace's digest.
func everyForm(t *testing.T, policy Policy) uint64 {
	t.Helper()
	recp := core.DefaultRECParams()
	recp.RestartBackoff, recp.RestartBackoffMax = 300*time.Millisecond, 2*time.Second
	sys, err := NewSystem(Config{Seed: 7, TreeName: "IVm", Policy: policy, RECParams: &recp})
	if err != nil {
		t.Fatal(err)
	}
	rec := tracetest.Record(sys.Log)
	if err := sys.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, f := range []Fault{
		{Component: "ses.cache"},
		{Component: "rtu", Hang: true},
		{Component: "str.track", StateKey: station.KeyTrackTarget, Cure: []string{"str", "str.track"}},
		{Component: "fedr", Hard: true},
		{Component: "ses", Cure: []string{"ses", "str"}},
	} {
		if err := sys.Inject(f); err != nil {
			t.Fatal(err)
		}
		if err := sys.RunFor(3 * time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Digest()
}

// TestTraceDigestGolden pins whole traces against testdata: replay's
// digest for every tree and seed TestOneSeedOneTrace runs, and
// everyForm's under the two policies that between them reach every
// detail form. The golden was written before trace events carried typed
// fields and is never regenerated: a change to how any line reads, or to
// when any event happens, shows here.
func TestTraceDigestGolden(t *testing.T) {
	var sb strings.Builder
	for _, tree := range []string{"II", "IV", "V", "IVm"} {
		for _, seed := range []int64{1, 2, 2002} {
			d, _, _ := replay(t, tree, seed)
			fmt.Fprintf(&sb, "replay    tree=%-3s seed=%-4d digest=%016x\n", tree, seed, d)
		}
	}
	for _, p := range []Policy{PolicyFixedCkpt, PolicyFixedMicro} {
		fmt.Fprintf(&sb, "everyForm policy=%-11s digest=%016x\n", p, everyForm(t, p))
	}
	want, err := os.ReadFile("testdata/trace_digests.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("trace digests diverged from testdata/trace_digests.golden:\n--- golden\n%s--- got\n%s", want, got)
	}
}
