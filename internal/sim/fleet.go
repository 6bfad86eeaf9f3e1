package sim

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/recursive-restart/mercury/internal/obs"
)

// ErrLookahead reports a parcel due before the epoch edge it was collected
// at. That means some link's latency is shorter than the epoch length, so
// the conservative-lookahead contract is broken and parallel execution
// would no longer be deterministic; the fleet refuses to continue.
var ErrLookahead = errors.New("sim: parcel due before epoch edge (link latency < epoch)")

// Parcel is one cross-shard hand-off: work produced on one shard during an
// epoch and due on another shard at a later virtual instant. Parcels are
// the only way state crosses shard boundaries, and they cross only at
// epoch barriers, in (source shard, collection) order — which is what
// makes a multi-core fleet run byte-identical to a single-core one.
type Parcel struct {
	// To is the destination shard index in the fleet.
	To int
	// At is the delivery instant. The conservative-lookahead protocol
	// requires At to be at or after the end of the epoch in which the
	// parcel was produced (link latency >= epoch length); the fleet rejects
	// violations with ErrLookahead rather than silently losing determinism.
	At time.Time
	// Deliver runs on kernel To's event loop at At. It is the only code
	// of the parcel that touches the destination's state.
	Deliver func()
}

// FleetConfig configures a Fleet.
type FleetConfig struct {
	// Epoch is the synchronization quantum. Every shard runs Epoch of
	// virtual time, then all shards exchange cross-shard parcels at a
	// barrier. Epoch must not exceed the minimum cross-shard link latency
	// (the lookahead bound): a parcel sent during an epoch must never be
	// due before that epoch's edge. Required, > 0.
	Epoch time.Duration
	// Workers is the number of goroutines executing shards between
	// barriers. 0 or 1 runs every shard inline on the caller's goroutine —
	// the reference sequential schedule. Worker count affects wall-clock
	// time only, never simulation output.
	Workers int
}

// Fleet drives many shard kernels in lock-step epochs with conservative
// lookahead: within an epoch every shard executes independently (in
// parallel when Workers > 1); at the epoch edge all shards reach a barrier
// and the coordinator exchanges cross-shard parcels serially in (source
// shard, collection) order before the next epoch begins.
//
// Determinism: each shard's kernel is single-threaded and seeded; within an
// epoch a shard can only see parcels scheduled at an earlier barrier, and
// the lookahead bound guarantees nothing sent in the current epoch lands in
// it; the exchange order is fixed by source shard index and the order
// collect returns each shard's parcels in.
// So the event sequence each kernel executes is independent of worker
// count and of wall-clock interleaving, and per-seed output folds
// byte-identically on 1 core and on 16.
//
// Memory model: shard kernels are confined to exactly one goroutine per
// epoch; the WaitGroup barrier provides a happens-before edge between a
// shard's epoch run and the coordinator's collect calls and scheduling of
// parcels, and between those and the shard's next epoch run.
type Fleet struct {
	cfg     FleetConfig
	shards  []*Kernel
	collect func(shard int, dst []Parcel) []Parcel

	// epochs and parcels are fleet-local deterministic totals (distinct
	// from the process-global wall-clock-flavored metrics in M), safe to
	// include in folded output.
	epochs  uint64
	parcels uint64

	scratch  []Parcel       // exchange buffer, reused across epochs
	stalls   []int64        // per-shard wall ns spent running the last epoch
	shardCtr []*obs.Counter // cached M.ShardEvents counters by index
	prevExec []uint64       // per-shard Executed at the previous barrier
}

// NewFleet builds a fleet over shard kernels. At every barrier collect is
// called once per shard, in shard order, on the coordinator goroutine: it
// appends the parcels that shard produced since the previous barrier to
// dst and returns it. A nil collect means the shards never exchange
// anything. NewFleet panics on an invalid configuration (no shards,
// non-positive epoch): fleet construction is programmer-controlled setup,
// not runtime input.
func NewFleet(cfg FleetConfig, shards []*Kernel, collect func(shard int, dst []Parcel) []Parcel) *Fleet {
	if len(shards) == 0 {
		panic("sim: fleet needs at least one shard")
	}
	if cfg.Epoch <= 0 {
		panic("sim: fleet epoch must be positive")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	f := &Fleet{
		cfg:      cfg,
		shards:   shards,
		collect:  collect,
		stalls:   make([]int64, len(shards)),
		shardCtr: make([]*obs.Counter, len(shards)),
		prevExec: make([]uint64, len(shards)),
	}
	for i := range shards {
		f.shardCtr[i] = M.ShardEvents.With(strconv.Itoa(i))
		f.prevExec[i] = shards[i].Executed()
	}
	M.Shards.Set(int64(len(shards)))
	return f
}

// Epochs reports the number of completed epoch barriers (deterministic).
func (f *Fleet) Epochs() uint64 { return f.epochs }

// Parcels reports the number of cross-shard parcels exchanged
// (deterministic).
func (f *Fleet) Parcels() uint64 { return f.parcels }

// Executed reports total events executed across all shards.
func (f *Fleet) Executed() uint64 {
	var total uint64
	for _, s := range f.shards {
		total += s.Executed()
	}
	return total
}

// Now returns the fleet's synchronized virtual time: the maximum shard
// clock (shards may briefly disagree before the first barrier aligns them).
func (f *Fleet) Now() time.Time {
	now := f.shards[0].Now()
	for _, s := range f.shards[1:] {
		if t := s.Now(); t.After(now) {
			now = t
		}
	}
	return now
}

// RunUntil advances every shard to target in epoch-length steps, exchanging
// cross-shard parcels at each barrier. The first edge is aligned to the
// most advanced shard clock, so a shard that booted slightly behind catches
// up inside the first epoch. Returns the first shard error (lowest shard
// index wins, deterministically) or ErrLookahead on a latency/epoch
// misconfiguration.
func (f *Fleet) RunUntil(target time.Time) error {
	edge := f.Now()
	for edge.Before(target) {
		edge = edge.Add(f.cfg.Epoch)
		if edge.After(target) {
			edge = target
		}
		if err := f.runEpoch(edge); err != nil {
			return err
		}
	}
	return nil
}

// runEpoch runs every shard to edge, waits at the barrier, then exchanges
// outbound parcels in deterministic order.
func (f *Fleet) runEpoch(edge time.Time) error {
	epochStart := time.Now()
	errs := make([]error, len(f.shards))

	if f.cfg.Workers <= 1 || len(f.shards) == 1 {
		for i, s := range f.shards {
			t0 := time.Now()
			errs[i] = s.RunUntil(edge)
			f.stalls[i] = time.Since(t0).Nanoseconds()
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		workers := f.cfg.Workers
		if workers > len(f.shards) {
			workers = len(f.shards)
		}
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(f.shards) {
						return
					}
					t0 := time.Now()
					errs[i] = f.shards[i].RunUntil(edge)
					f.stalls[i] = time.Since(t0).Nanoseconds()
				}
			}()
		}
		wg.Wait()
	}
	epochWall := time.Since(epochStart)

	// Wall-clock observability (never folded into deterministic output):
	// each shard's stall is the gap between its own run time and the
	// slowest shard's — the time it sat waiting at the barrier.
	var slowest int64
	for _, ns := range f.stalls {
		if ns > slowest {
			slowest = ns
		}
	}
	for i, ns := range f.stalls {
		M.BarrierStall.Observe(time.Duration(slowest - ns))
		exec := f.shards[i].Executed()
		f.shardCtr[i].Add(exec - f.prevExec[i])
		f.prevExec[i] = exec
	}
	M.EpochWall.Observe(epochWall)
	M.Epochs.Inc()
	f.epochs++

	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("sim: shard %d: %w", i, err)
		}
	}

	// Exchange: serial, on the coordinator goroutine, in (source shard,
	// collection) order — the deterministic heart of the protocol. A
	// parcel is scheduled on its destination kernel like any local event,
	// so parcels due at one instant run in the order they were scheduled.
	if f.collect == nil {
		return nil
	}
	for i := range f.shards {
		f.scratch = f.collect(i, f.scratch[:0])
		for _, p := range f.scratch {
			if p.To < 0 || p.To >= len(f.shards) {
				return fmt.Errorf("sim: shard %d emitted parcel for unknown shard %d", i, p.To)
			}
			if p.At.Before(edge) {
				M.LookaheadViolations.Inc()
				return fmt.Errorf("sim: shard %d parcel due %s before edge %s: %w",
					i, p.At.Format(time.RFC3339Nano), edge.Format(time.RFC3339Nano), ErrLookahead)
			}
			dst := f.shards[p.To]
			dst.AfterFunc(p.At.Sub(dst.Now()), p.Deliver)
			f.parcels++
			M.Parcels.Inc()
		}
	}
	return nil
}
