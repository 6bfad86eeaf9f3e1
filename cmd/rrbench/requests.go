package main

import (
	"context"
	"flag"

	"github.com/recursive-restart/mercury/internal/experiment"
)

// The requests subcommand runs the user-harm campaign: an open-loop
// million-user request plane on the simulated station, re-scoring
// microreboot vs process vs group restart in failed requests, slow
// requests and broken-session user-seconds instead of raw MTTR.
//
//	rrbench requests                     # default campaign, text table
//	rrbench requests -trials 3 -json     # faster, machine-readable
//	rrbench requests -verify             # parallel-vs-sequential byte identity
//
// Output is deterministic for a given seed; -parallel changes only wall
// time, never a byte of output.

func bindRequests(fs *flag.FlagSet, sh *shared) runFunc {
	cfg := experiment.DefaultRequestConfig()
	sh.trialFlags(fs, cfg.Trials)
	fs.IntVar(&cfg.Users, "users", cfg.Users, "cohort population (distinct users)")
	fs.Float64Var(&cfg.Rate, "rate", cfg.Rate, "aggregate arrival rate, requests/s")
	fs.IntVar(&cfg.Episodes, "episodes", cfg.Episodes, "fault injections per trial")
	fs.DurationVar(&cfg.Gap, "gap", cfg.Gap, "operation window after each fault injection")
	fs.DurationVar(&cfg.Warmup, "warmup", cfg.Warmup, "healthy warm-up before measurement")
	verify := fs.Bool("verify", false, "check parallel-vs-sequential byte identity and exit")
	return func(ctx context.Context) (any, string, error) {
		cfg.RunConfig = sh.runConfig()
		if *verify {
			if err := experiment.VerifyRequests(ctx, cfg, sh.parallel); err != nil {
				return nil, "", err
			}
			return nil, "requests: parallel and sequential campaigns are byte-identical\n", nil
		}
		cells, err := experiment.RequestSweep(ctx, cfg)
		if err != nil {
			return nil, "", err
		}
		return map[string]any{
			"trials": cfg.Trials, "seed": cfg.BaseSeed, "class": experiment.RequestClass.String(), "users": cfg.Users,
			"rate": cfg.Rate, "episodes": cfg.Episodes, "gap_s": cfg.Gap, "warmup_s": cfg.Warmup,
			"cells": cells,
		}, experiment.RenderRequests(cfg, cells), nil
	}
}
