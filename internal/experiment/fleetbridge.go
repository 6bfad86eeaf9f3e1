package experiment

import (
	"context"
	"errors"
	"time"

	mercury "github.com/recursive-restart/mercury"
	"github.com/recursive-restart/mercury/internal/sim"
)

// This file is the golden byte-identity bridge between the historical
// single-kernel trial path and the sharded fleet engine: one station
// wrapped as a 1-shard fleet, driven by epoch-sliced RunUntil instead of a
// Step loop, must reproduce the Table 2/4 golden traces byte-for-byte.
// That holds because the epoch scheduler executes the exact same local
// event sequence (it only quantizes *when the driver checks* for
// recovery, and recovery durations are read from trace timestamps, not
// from the driver's stopping instant), and it is pinned by
// TestFleetBridgeTable2Golden / TestFleetBridgeTable4Golden.

// bridgeEpoch is the bridge's synchronization quantum. Any positive value
// yields identical traces (the station's events are all local); 50 ms
// keeps the recovery poll fine-grained without burning epochs.
const bridgeEpoch = 50 * time.Millisecond

// measureViaFleet runs one Cell trial through a 1-shard fleet: same
// system, same seed, same fault — only the driving loop differs.
func measureViaFleet(c Cell, seed int64) (time.Duration, error) {
	sys, err := boot(mercury.Config{Seed: seed, TreeName: c.Tree, Policy: c.Policy, FaultyP: c.FaultyP})
	if err != nil {
		return 0, err
	}
	fl := sim.NewFleet(sim.FleetConfig{Epoch: bridgeEpoch, Workers: 1}, []*sim.Kernel{sys.Kernel}, nil)
	if err := sys.Inject(c.fault()); err != nil {
		return 0, err
	}
	deadline := sys.Now().Add(5 * time.Minute)
	for !sys.Whole() {
		if sys.Now().After(deadline) {
			return 0, mercury.ErrNoRecovery
		}
		if err := fl.RunUntil(sys.Now().Add(bridgeEpoch)); err != nil {
			return 0, err
		}
	}
	d, ok := sys.Outages.Recovery()
	if !ok {
		return 0, errors.New("experiment: recovery not recorded in trace")
	}
	return d, nil
}

// Table2ViaFleet measures the Table 2 grid with every trial driven through
// the 1-shard fleet bridge.
func Table2ViaFleet(ctx context.Context, rc RunConfig) ([]Row, error) {
	return measureRows(ctx, Table4Rows()[:2], rc, measureViaFleet)
}

// Table4ViaFleet measures the full Table 4 grid through the fleet bridge.
func Table4ViaFleet(ctx context.Context, rc RunConfig) ([]Row, error) {
	return measureRows(ctx, Table4Rows(), rc, measureViaFleet)
}
