package experiment

import (
	"context"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// TestPoisonedRecyclingKeepsGoldens: with every recycled envelope
// overwritten by sentinels the moment the fabric hands it back, Table 2
// and Table 4 still reproduce the goldens byte for byte — so no handler,
// detector, recoverer or fabric path reads a message after its delivery.
// Two workers step two kernels at once: under -race this is also the proof
// that the pool and the timer free list are per dispatch context.
func TestPoisonedRecyclingKeepsGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	defer xmlcmd.PoisonRecycledForTest()()
	cfg := RunConfig{Trials: 3, BaseSeed: 2002, Workers: 2}
	rows, err := Table2Cfg(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	goldenEqual(t, "table2.golden",
		RenderRows(rows, "Table 2 — tree II recovery: detection + recovery time (s)"))
	rows, err = Table4Cfg(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	goldenEqual(t, "table4.golden",
		RenderRows(rows, "Table 4 — overall MTTRs (s); rows are tree/oracle, columns failed components"))
}

// sharedTrees returns the process-wide tree set, m-variants included, and
// how each tree renders now.
func sharedTrees(t *testing.T) (map[string]*core.Tree, map[string]string) {
	t.Helper()
	trees, err := core.MercuryTrees(station.MonolithicComponents(), station.SplitComponents())
	if err != nil {
		t.Fatal(err)
	}
	if err := core.AddMicroTrees(trees, station.MicroSubs()); err != nil {
		t.Fatal(err)
	}
	rendered := make(map[string]string, len(trees))
	for name, tree := range trees {
		rendered[name] = tree.Render()
	}
	return trees, rendered
}

// checkSharedTrees fails if a campaign rebuilt or edited a shared tree.
func checkSharedTrees(t *testing.T, campaign string, before map[string]*core.Tree, rendered map[string]string) map[string]*core.Tree {
	t.Helper()
	after, now := sharedTrees(t)
	if len(after) != len(before) {
		t.Errorf("tree set went from %d to %d trees under the %s campaign", len(before), len(after), campaign)
	}
	for name, tree := range after {
		if tree != before[name] {
			t.Errorf("tree %s was rebuilt", name)
		}
		if now[name] != rendered[name] {
			t.Errorf("shared tree %s changed under the %s campaign:\n--- before\n%s--- after\n%s", name, campaign, rendered[name], now[name])
		}
	}
	return after
}

// TestSharedTreesSurviveOnlineCampaign: the paper's trees are one shared
// immutable instance per process. The online optimizer campaign deploys
// II′, mines its episodes and hill-climbs transformations from it; all of
// that must clone, never edit — afterwards every shared tree renders as
// before and is still the same instance.
func TestSharedTreesSurviveOnlineCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	before, rendered := sharedTrees(t)

	cfg := DefaultOnlineConfig()
	cfg.Horizon = 2 * time.Hour
	p, err := RunOnlineProposal(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Result.Steps) == 0 {
		t.Fatal("optimizer proposed nothing: the campaign did not exercise the transformations")
	}

	for _, tree := range checkSharedTrees(t, "online", before, rendered) {
		if tree == p.Result.Tree {
			t.Error("the proposal is one of the shared trees, not a clone")
		}
	}
}

// TestSharedMicroTreesSurviveMicroCampaign: IIIm and IVm are shared like
// the trees they grow from. Stations recovering by microreboot on IIIm —
// two kernels at once — only read it, and a caller's own additions to its
// tree map stay its own.
func TestSharedMicroTreesSurviveMicroCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	before, rendered := sharedTrees(t)
	before["mine"] = before["IVm"]

	cfg := DefaultMicroConfig()
	cfg.Trials, cfg.Workers = 4, 2
	cell, err := RunMicroCell(context.Background(), cfg, MicroModes()[0], MicroClasses()[0])
	if err != nil {
		t.Fatal(err)
	}
	if cell.Tree != "IIIm" || cell.Recovered == 0 {
		t.Fatalf("campaign did not recover on IIIm: %+v", cell)
	}

	delete(before, "mine")
	checkSharedTrees(t, "microreboot", before, rendered)
}
