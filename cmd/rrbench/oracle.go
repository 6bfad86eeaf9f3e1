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
	vcfg := experiment.DefaultTreeValidationConfig()
	sh.trialFlags(fs, cfg.Trials)
	fs.IntVar(&cfg.Episodes, "episodes", cfg.Episodes, "measured fault episodes per trial")
	fs.IntVar(&cfg.TrainEpisodes, "train", cfg.TrainEpisodes, "training episodes before the measured window")
	fs.DurationVar(&cfg.Gap, "gap", cfg.Gap, "operation window after each fault injection")
	fs.DurationVar(&cfg.CkptInterval, "ckpt-interval", cfg.CkptInterval, "checkpoint snapshot period")
	validate := fs.Bool("validate", false, "run the random-tree analytic-vs-simulated ranking instead")
	fs.IntVar(&vcfg.Trees, "trees", vcfg.Trees, "-validate: random restart trees to score")
	online := fs.Bool("online", false, "run the online tree-optimization soak instead")
	return func(ctx context.Context) (any, string, error) {
		switch {
		case *validate:
			vcfg.BaseSeed, vcfg.Workers = sh.seed, sh.parallel
			res, err := experiment.RunTreeValidation(ctx, vcfg)
			if err != nil {
				return nil, "", err
			}
			return map[string]any{"trees": len(res.Scores), "seed": vcfg.BaseSeed, "spearman": res.Spearman},
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
			cfg.Trials, cfg.BaseSeed, cfg.Workers = sh.trials, sh.seed, sh.parallel
			cells, err := experiment.OracleSweep(ctx, cfg)
			if err != nil {
				return nil, "", err
			}
			return cells, experiment.RenderOracle(cfg, cells), nil
		}
	}
}
