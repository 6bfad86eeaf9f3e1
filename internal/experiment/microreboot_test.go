package experiment

import (
	"context"
	"testing"
	"time"

	mercury "github.com/recursive-restart/mercury"
	"github.com/recursive-restart/mercury/internal/core"
)

// microTestConfig is a reduced sweep that keeps the test fast while
// preserving the paired-seed comparison.
func microTestConfig() MicroConfig {
	cfg := DefaultMicroConfig()
	cfg.Trials = 6
	cfg.Faults = 2
	cfg.Gap = 5 * time.Second
	return cfg
}

// TestMicrorebootCriterion pins the PR's acceptance criterion: for a
// ses/str-class fault under chaos, microreboot MTTR is at least 3× lower
// than process-restart MTTR, and ses-class faults recover without
// co-restarting str once the session state is externalized.
func TestMicrorebootCriterion(t *testing.T) {
	cfg := microTestConfig()
	cells, err := MicroSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", RenderMicro(cfg, cells))

	byKey := make(map[string]*MicroCellResult)
	for _, c := range cells {
		byKey[c.Class+"/"+c.Mode] = c
	}
	for _, class := range MicroClasses() {
		micro := byKey[class.Name+"/microreboot"]
		process := byKey[class.Name+"/process"]
		if micro == nil || process == nil {
			t.Fatalf("missing cells for class %s", class.Name)
		}
		if micro.Recovered != micro.Trials {
			t.Errorf("%s: only %d/%d microreboot trials recovered", class.Name, micro.Recovered, micro.Trials)
		}
		if micro.MTTR.N() == 0 || process.MTTR.N() == 0 {
			t.Fatalf("%s: no MTTR samples (micro %d, process %d)", class.Name, micro.MTTR.N(), process.MTTR.N())
		}
		if m, p := micro.MTTR.MeanSeconds(), process.MTTR.MeanSeconds(); m*3 > p {
			t.Errorf("%s: microreboot MTTR %.2fs not ≥3× below process MTTR %.2fs", class.Name, m, p)
		}
		// The crash-only store removes the co-restart: the peer keeps its
		// incarnation through every microreboot recovery.
		if micro.PeerRestarts != 0 {
			t.Errorf("%s: microreboot co-restarted the peer %d times; externalized state should leave it untouched",
				class.Name, micro.PeerRestarts)
		}
		// The classic resync artifact must still be present in process
		// mode, or the comparison is vacuous.
		if process.PeerRestarts == 0 {
			t.Errorf("%s: process mode shows no peer co-restarts; resync artifact lost", class.Name)
		}
	}
}

// TestMicroSweepDeterministic pins the parallel == sequential guarantee
// for the new campaign.
func TestMicroSweepDeterministic(t *testing.T) {
	cfg := microTestConfig()
	cfg.Trials = 3
	cfg.Faults = 1

	seq := cfg
	seq.Workers = 1
	par := cfg
	par.Workers = 4

	a, err := RunMicroCell(context.Background(), seq, MicroModes()[0], MicroClasses()[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMicroCell(context.Background(), par, MicroModes()[0], MicroClasses()[0])
	if err != nil {
		t.Fatal(err)
	}
	if ra, rb := RenderMicro(seq, []*MicroCellResult{a}), RenderMicro(par, []*MicroCellResult{b}); ra != rb {
		t.Fatalf("parallel sweep diverged from sequential:\n--- workers=1\n%s\n--- workers=4\n%s", ra, rb)
	}
}

// TestMicrorebootBudgetRefund is the give-up-misfire regression: cured
// microreboots refund their budget charges, so a component that
// microreboots successfully more times than MaxRestarts must never be
// abandoned, and a later process-level fault in the same subsystem must
// still recover.
func TestMicrorebootBudgetRefund(t *testing.T) {
	recp := core.DefaultRECParams()
	recp.MaxRestarts = 3
	recp.BudgetWindow = time.Hour // nothing ages out: only the refund can save us

	sys, err := mercury.NewSystem(mercury.Config{
		Seed:      11,
		TreeName:  "IIIm",
		RECParams: &recp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Boot(); err != nil {
		t.Fatal(err)
	}

	// 2×MaxRestarts successful microreboots of the same subcomponent.
	for i := 0; i < 2*recp.MaxRestarts; i++ {
		if _, err := sys.MeasureRecovery(mercury.Fault{Component: "ses.cache"}, time.Minute); err != nil {
			t.Fatalf("microreboot %d: %v", i, err)
		}
		// Let the cure verdict settle so the episode resolves and refunds.
		if err := sys.RunFor(core.DefaultFDParams().PersistWindow() + time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// The process-level budget must be untouched: a real ses process fault
	// still recovers without give-up.
	if _, err := sys.MeasureRecovery(mercury.Fault{Component: "ses"}, 2*time.Minute); err != nil {
		t.Fatalf("process-level fault after microreboots: %v", err)
	}
	if n := sys.Outages.GiveUps; n > 0 {
		t.Fatalf("%d give-ups; cured microreboots must refund their budget charges", n)
	}
}
