package main

import (
	"context"
	"flag"

	"github.com/recursive-restart/mercury/internal/experiment"
)

// The oracle subcommand runs the cost-aware recovery-policy campaigns:
//
//	rrbench oracle                       # policy choice: v2 vs fixed baselines
//	rrbench oracle -trials 8 -json       # machine-readable policy table
//	rrbench oracle -validate             # analytic-vs-simulated ranking over
//	                                     # 1000 random restart trees
//	rrbench oracle -validate -trees 200  # smaller population, faster
//	rrbench oracle -online               # soak tree II', mine episodes,
//	                                     # propose transformations (text only)
//
// All three modes are deterministic for a given seed; -parallel changes
// only wall time.

func bindOracle(fs *flag.FlagSet, sh *shared) runFunc {
	cfg := experiment.DefaultOracleConfig()
	sh.trialFlags(fs, cfg.Trials)
	validate := fs.Bool("validate", false, "run the random-tree analytic-vs-simulated ranking instead")
	trees := fs.Int("trees", 1000, "-validate: random restart trees to score")
	online := fs.Bool("online", false, "run the online tree-optimization soak instead")
	return func(ctx context.Context) (any, string, error) {
		rc := sh.runConfig()
		switch {
		case *validate:
			rc.Trials = *trees
			res, err := experiment.RunTreeValidation(ctx, rc)
			if err != nil {
				return nil, "", err
			}
			return map[string]any{"trees": len(res.Scores), "seed": rc.BaseSeed, "spearman": res.Spearman},
				experiment.RenderTreeValidation(res), nil

		case *online:
			ocfg := experiment.DefaultOnlineConfig()
			ocfg.Seed = sh.seed
			p, err := experiment.RunOnlineProposal(ctx, ocfg)
			if err != nil {
				return nil, "", err
			}
			return nil, experiment.RenderOnlineProposal(ocfg, p), nil

		default:
			cfg.RunConfig = rc
			cells, err := experiment.OracleSweep(ctx, cfg)
			if err != nil {
				return nil, "", err
			}
			return cells, experiment.RenderOracle(cfg, cells), nil
		}
	}
}
