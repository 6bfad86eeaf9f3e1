package main

import (
	"context"
	"errors"
	"flag"

	"github.com/recursive-restart/mercury/internal/experiment"
)

// rrbench shardchaos — kill and recover broker shards of a live sharded
// TCP fabric, verifying blast-radius isolation and comparing per-shard
// recovery with a whole-bus restart. The one campaign on wall-clock time:
// it takes no seed and its durations are measurements, not goldens.

func bindShardChaos(fs *flag.FlagSet, _ *shared) runFunc {
	var (
		shards = fs.Int("shards", 2, "broker shards in the fabric")
		dests  = fs.Int("dests", 2, "receiver addresses pinned per shard")
		frames = fs.Int("frames", 5, "frames per destination per outage phase")
	)
	return func(context.Context) (any, string, error) {
		res, err := experiment.RunShardChaos(experiment.ShardChaosConfig{
			Shards:         *shards,
			DestsPerShard:  *dests,
			FramesPerPhase: *frames,
		})
		if err != nil {
			return nil, "", err
		}
		var verdict error
		if !res.Isolated() {
			verdict = errors.New("shard isolation violated")
		}
		return map[string]any{
			"shards": res.Config.Shards, "dests_per_shard": res.Config.DestsPerShard,
			"frames_per_phase": res.Config.FramesPerPhase, "rounds": res.Rounds, "isolated": res.Isolated(),
			"shard_recovery_mean_s": res.ShardRecoveryMean, "whole_bus_recovery_s": res.WholeBusRecovery,
		}, experiment.RenderShardChaos(res), verdict
	}
}
