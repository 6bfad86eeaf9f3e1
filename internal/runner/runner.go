// Package runner is the deterministic parallel trial-execution engine
// behind every experiment harness. The paper's evaluation is
// embarrassingly parallel — each cell is N independent trials, each a
// fresh seeded simulation — so the engine fans trials out across a
// bounded worker pool while keeping three guarantees the harnesses rely
// on:
//
//  1. Deterministic seeding: trial i always runs with seed
//     BaseSeed + i*Stride, no matter which worker picks it up or in what
//     order trials finish. The stride (default 7919) is the seed-spacing
//     idiom previously duplicated across the harnesses.
//  2. Seed-ordered results: Run returns results indexed by trial, so a
//     caller folding them in that order makes a parallel run
//     bit-identical to a sequential one.
//  3. Fail-fast: the first trial error cancels the shared context; of
//     the errors observed before the pool drains, the one with the
//     lowest trial index is returned.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultStride spaces consecutive trial seeds far enough apart that the
// per-trial simulations do not share RNG streams (a prime, so strides
// never resonate with seed arithmetic inside the simulation).
const DefaultStride = 7919

// Config parameterises a trial campaign.
type Config struct {
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0). The
	// result is independent of Workers — only wall-clock time changes.
	Workers int
	// BaseSeed is trial 0's seed.
	BaseSeed int64
	// Stride is the per-trial seed spacing; 0 means DefaultStride.
	Stride int64
}

// SeedFor derives trial i's seed: BaseSeed + i*Stride.
//
// Overflow behavior, relied on at fleet scale (10k+ trials or shards):
// Go's int64 arithmetic wraps two's-complement, so SeedFor is defined for
// every (BaseSeed, i) — a campaign whose BaseSeed sits near MaxInt64
// silently wraps into negative seeds rather than faulting, and every seed
// consumer (sim.New, rand.NewSource) accepts the full int64 range. What
// matters is distinctness, not sign: seeds are spaced by an odd stride
// (DefaultStride 7919), and adding a fixed odd step modulo 2^64 is a
// bijection, so trials 0..n-1 collide only if n*Stride wraps all the way
// around — n > 2^64/7919 ≈ 2.3e15 trials for the default, far beyond any
// campaign. seed_test.go pins both properties.
func (c Config) SeedFor(i int) int64 {
	stride := c.Stride
	if stride == 0 {
		stride = DefaultStride
	}
	return c.BaseSeed + int64(i)*stride
}

// SubSeed deterministically derives the j-th child seed from a trial seed,
// for experiments that need many independent seeded objects inside one
// trial — a fleet trial seeds one kernel per station from the trial seed.
// Linear striding is the wrong tool there: per-station streams sit inside
// *one* simulation, so they must look independent, and seed+j*stride feeds
// correlated states into the simulation's own seed arithmetic. SubSeed
// instead mixes (seed, j) through the SplitMix64 finalizer, whose output
// is a bijection of the mixed input — distinct j always gives distinct
// sub-seeds, and one-bit input changes avalanche across the word.
func SubSeed(seed int64, j uint64) int64 {
	z := uint64(seed) + (j+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

func (c Config) workers(trials int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > trials {
		w = trials
	}
	return w
}

// TrialFunc runs one independent trial. It must be a pure function of
// (trial, seed) — no shared mutable state — so trials can run on any
// worker in any order. The context is cancelled when another trial fails
// or the caller aborts; long trials may honour it early.
type TrialFunc[T any] func(ctx context.Context, trial int, seed int64) (T, error)

// Run executes trials 0..n-1 across the worker pool and returns their
// results in trial order. On error it cancels outstanding work and
// returns the failing trial's error (lowest trial index wins when
// several fail before the pool drains).
func Run[T any](ctx context.Context, cfg Config, n int, fn TrialFunc[T]) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: negative trial count %d", n)
	}
	if n == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, n)
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		errTrial int
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < errTrial {
			firstErr, errTrial = err, i
		}
		mu.Unlock()
		cancel()
	}
	for w := 0; w < cfg.workers(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				r, err := fn(ctx, i, cfg.SeedFor(i))
				if err != nil {
					fail(i, err)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
