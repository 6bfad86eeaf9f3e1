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
	fs.IntVar(&cfg.Faults, "faults", cfg.Faults, "repeated faults in the availability phase")
	return func(ctx context.Context) (any, string, error) {
		cfg.RunConfig = sh.runConfig()
		cells, err := experiment.MicroSweep(ctx, cfg)
		if err != nil {
			return nil, "", err
		}
		return map[string]any{
			"trials": cfg.Trials, "seed": cfg.BaseSeed, "loss": experiment.MicroLoss, "faults": cfg.Faults,
			"gap_s": cfg.Gap, "suspect_after": experiment.MicroSuspectAfter, "cells": cells,
		}, experiment.RenderMicro(cfg, cells), nil
	}
}
