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

// TestSharedTreesSurviveOnlineCampaign: the paper's trees are one shared
// immutable instance per process. The online optimizer campaign deploys
// II′, mines its episodes and hill-climbs transformations from it; all of
// that must clone, never edit — afterwards every shared tree renders as
// before and is still the same instance.
func TestSharedTreesSurviveOnlineCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	shared := func() map[string]*core.Tree {
		trees, err := core.MercuryTrees(station.MonolithicComponents(), station.SplitComponents())
		if err != nil {
			t.Fatal(err)
		}
		return trees
	}
	before := shared()
	rendered := make(map[string]string, len(before))
	for name, tree := range before {
		rendered[name] = tree.Render()
	}

	cfg := DefaultOnlineConfig()
	cfg.Horizon = 2 * time.Hour
	p, err := RunOnlineProposal(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Result.Steps) == 0 {
		t.Fatal("optimizer proposed nothing: the campaign did not exercise the transformations")
	}

	after := shared()
	for name, tree := range after {
		if tree != before[name] {
			t.Errorf("tree %s was rebuilt", name)
		}
		if got := tree.Render(); got != rendered[name] {
			t.Errorf("shared tree %s changed under the online campaign:\n--- before\n%s--- after\n%s", name, rendered[name], got)
		}
	}
	for _, tree := range after {
		if tree == p.Result.Tree {
			t.Error("the proposal is one of the shared trees, not a clone")
		}
	}
}
