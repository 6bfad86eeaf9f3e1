// Command treeopt runs the automatic restart-tree optimizer (paper §7:
// "identify specific algorithms for transforming restart trees"). Given a
// failure mix and an oracle model it hill-climbs over the paper's
// transformations and prints the optimized tree next to the analytic
// expected MTTR of the paper's hand-derived trees.
//
// With -online it becomes the *online* optimizer: instead of the static
// paper mix, it soaks a live simulated station under organic failures,
// mines the measured recovery episodes into an empirical fault mix, and
// proposes transformations of the tree actually deployed.
//
//	treeopt -model escalating
//	treeopt -model faulty -p 0.3
//	treeopt -online                       # soak tree II', propose from episodes
//	treeopt -online -tree III -horizon 8h
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/experiment"
	"github.com/recursive-restart/mercury/internal/station"
)

func main() {
	var (
		modelName = flag.String("model", "escalating", "oracle model: perfect, escalating, faulty")
		faultyP   = flag.Float64("p", 0.30, "guess-too-low probability for -model faulty")
		online    = flag.Bool("online", false, "mine an organic-failure soak instead of the static paper mix")
		treeName  = flag.String("tree", "IIp", "-online: deployed tree to soak and transform")
		horizon   = flag.Duration("horizon", 4*time.Hour, "-online: simulated soak duration")
		seed      = flag.Int64("seed", 2002, "-online: simulation seed")
	)
	flag.Parse()
	var err error
	if *online {
		err = runOnline(*treeName, *horizon, *seed)
	} else {
		err = run(*modelName, *faultyP)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "treeopt:", err)
		os.Exit(1)
	}
}

// runOnline is the online mode: soak, mine, propose.
func runOnline(treeName string, horizon time.Duration, seed int64) error {
	cfg := experiment.DefaultOnlineConfig()
	cfg.Tree = treeName
	cfg.Horizon = horizon
	cfg.Seed = seed
	p, err := experiment.RunOnlineProposal(context.Background(), cfg)
	if err != nil {
		return err
	}
	fmt.Print(experiment.RenderOnlineProposal(cfg, p))
	fmt.Printf("\nproposed tree:\n%s", p.Result.Tree.Render())
	return nil
}

func run(modelName string, faultyP float64) error {
	var model core.OracleModel
	switch modelName {
	case "perfect":
		model = core.ModelPerfect
	case "escalating":
		model = core.ModelEscalating
	case "faulty":
		model = core.ModelFaulty
	default:
		return fmt.Errorf("unknown model %q", modelName)
	}

	mix := core.MercuryFaultMix()
	ap := station.AnalyticParams()
	fmt.Printf("failure mix (the paper's f formalism):\n%s\n", core.RenderMix(mix))

	trees, err := core.MercuryTrees(station.MonolithicComponents(), station.SplitComponents())
	if err != nil {
		return err
	}
	fmt.Printf("analytic expected MTTR under the %s oracle model:\n", model)
	for _, name := range []string{"IIp", "III", "IV", "V"} {
		e, err := core.ExpectedMTTR(trees[name], mix, ap, model, faultyP)
		if err != nil {
			return err
		}
		fmt.Printf("  tree %-4s %6.2f s\n", name, e)
	}

	res, err := core.Optimize(station.SplitComponents(), mix, ap, model, faultyP)
	if err != nil {
		return err
	}
	fmt.Printf("\noptimizer (hill-climb from the depth-augmented tree, %.2f s):\n", res.Start)
	for _, s := range res.Steps {
		fmt.Println("  ", s)
	}
	fmt.Printf("\noptimized tree, expected MTTR %.2f s:\n%s", res.Expected, res.Tree.Render())
	return nil
}
