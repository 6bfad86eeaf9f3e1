package main

import (
	"context"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"github.com/recursive-restart/mercury/internal/experiment"
)

// The chaos subcommand runs the degraded-network sweep:
//
//	rrbench chaos                            # default grid, text table
//	rrbench chaos -loss 0,0.1,0.2 -trees IV  # narrower grid
//	rrbench chaos -json -parallel 8          # machine-readable, parallel
//
// Output is deterministic for a given seed; -parallel changes only wall
// time, never a byte of output.

// csvStrings parses "I,IV".
func csvStrings(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// csvOf parses "0,0.05,0.1" with the given element parser.
func csvOf[T any](s, what string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range csvStrings(s) {
		v, err := parse(f)
		if err != nil {
			return nil, fmt.Errorf("bad %s %q: %w", what, f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func bindChaos(fs *flag.FlagSet, sh *shared) runFunc {
	def := experiment.DefaultChaosConfig()
	sh.trialFlags(fs, def.Trials)
	var (
		trees   = fs.String("trees", strings.Join(def.Trees, ","), "restart trees to sweep (csv)")
		loss    = fs.String("loss", "0,0.02,0.05,0.10,0.20", "per-hop loss rates to sweep (csv)")
		suspect = fs.String("suspect", "1,3", "FD SuspectAfter thresholds to sweep (csv)")
		horizon = fs.Duration("horizon", def.Horizon, "fault-free observation window per trial")
	)
	return func(ctx context.Context) (any, string, error) {
		lossRates, err := csvOf(*loss, "loss rate", func(f string) (float64, error) { return strconv.ParseFloat(f, 64) })
		if err != nil {
			return nil, "", err
		}
		thresholds, err := csvOf(*suspect, "threshold", strconv.Atoi)
		if err != nil {
			return nil, "", err
		}
		cfg := experiment.ChaosConfig{
			RunConfig:    sh.runConfig(),
			Trees:        csvStrings(*trees),
			LossRates:    lossRates,
			SuspectAfter: thresholds,
			Horizon:      *horizon,
		}
		cells, err := experiment.ChaosSweep(ctx, cfg)
		if err != nil {
			return nil, "", err
		}
		return map[string]any{
			"trials": cfg.Trials, "seed": cfg.BaseSeed, "horizon_s": cfg.Horizon, "dup": experiment.ChaosDup,
			"jitter_s": experiment.ChaosJitter, "backoff_s": experiment.ChaosBackoff, "suspect_after": cfg.SuspectAfter,
			"cells": cells,
		}, experiment.RenderChaos(cfg, cells), nil
	}
}
