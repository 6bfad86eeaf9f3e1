package main

import (
	"context"
	"flag"

	"github.com/recursive-restart/mercury/internal/experiment"
)

// The microreboot subcommand runs the microreboot-vs-restart comparison:
//
//	rrbench microreboot                      # default campaign, text table
//	rrbench microreboot -trials 5 -json      # faster, machine-readable
//
// Output is deterministic for a given seed; -parallel changes only wall
// time, never a byte of output.

func bindMicroreboot(fs *flag.FlagSet, sh *shared) runFunc {
	cfg := experiment.DefaultMicroConfig()
	sh.trialFlags(fs, cfg.Trials)
	fs.Float64Var(&cfg.Loss, "loss", cfg.Loss, "per-hop frame-loss probability")
	fs.IntVar(&cfg.SuspectAfter, "suspect", cfg.SuspectAfter, "FD SuspectAfter threshold")
	fs.IntVar(&cfg.Faults, "faults", cfg.Faults, "repeated faults in the availability phase")
	fs.DurationVar(&cfg.Gap, "gap", cfg.Gap, "healthy gap between repeated faults")
	return func(ctx context.Context) (any, string, error) {
		cfg.Trials, cfg.BaseSeed, cfg.Workers = sh.trials, sh.seed, sh.parallel
		cells, err := experiment.MicroSweep(ctx, cfg)
		if err != nil {
			return nil, "", err
		}
		return map[string]any{
			"trials": cfg.Trials, "seed": cfg.BaseSeed, "loss": cfg.Loss, "faults": cfg.Faults,
			"gap_s": cfg.Gap, "suspect_after": cfg.SuspectAfter, "cells": cells,
		}, experiment.RenderMicro(cfg, cells), nil
	}
}
