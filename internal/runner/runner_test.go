package runner

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// trialValue is a deterministic pure function of (trial, seed) so result
// slices can be compared across worker counts.
func trialValue(_ context.Context, trial int, seed int64) (int64, error) {
	return seed*1_000 + int64(trial), nil
}

func TestSeedDerivation(t *testing.T) {
	cfg := Config{BaseSeed: 2002}
	if got := cfg.SeedFor(0); got != 2002 {
		t.Fatalf("SeedFor(0) = %d", got)
	}
	if got := cfg.SeedFor(3); got != 2002+3*DefaultStride {
		t.Fatalf("SeedFor(3) = %d", got)
	}
	custom := Config{BaseSeed: 10, Stride: 6151}
	if got := custom.SeedFor(2); got != 10+2*6151 {
		t.Fatalf("custom SeedFor(2) = %d", got)
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	want, err := Run(context.Background(), Config{Workers: 1, BaseSeed: 42}, 37, trialValue)
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		got, err := Run(context.Background(), Config{Workers: workers, BaseSeed: 42}, 37, trialValue)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d trial %d: got %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestRunFailFastCancelsOutstandingTrials(t *testing.T) {
	errBoom := errors.New("boom")
	fn := func(ctx context.Context, trial int, _ int64) (int, error) {
		if trial == 1 {
			return 0, fmt.Errorf("trial 1: %w", errBoom)
		}
		// Every other trial blocks until fail-fast cancellation releases it.
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(30 * time.Second):
			return 0, errors.New("cancellation never arrived")
		}
	}
	start := time.Now()
	_, err := Run(context.Background(), Config{Workers: 4}, 8, fn)
	if err == nil {
		t.Fatal("expected an error")
	}
	if !errors.Is(err, errBoom) && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("fail-fast took %v; cancellation did not propagate", elapsed)
	}
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	fn := func(_ context.Context, trial int, _ int64) (int, error) {
		return 0, fmt.Errorf("trial %d failed", trial)
	}
	_, err := Run(context.Background(), Config{Workers: 1}, 5, fn)
	if err == nil || err.Error() != "trial 0 failed" {
		t.Fatalf("err = %v", err)
	}
}

func TestRunExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Config{Workers: 2}, 4, func(ctx context.Context, _ int, _ int64) (int, error) {
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunEdgeCases(t *testing.T) {
	out, err := Run[int](context.Background(), Config{}, 0, nil)
	if err != nil || out != nil {
		t.Fatalf("zero trials: %v, %v", out, err)
	}
	if _, err := Run[int](context.Background(), Config{}, -1, nil); err == nil {
		t.Fatal("negative trial count accepted")
	}
	// nil context and more workers than trials are both fine.
	got, err := Run(nil, Config{Workers: 16, BaseSeed: 5}, 2, trialValue)
	if err != nil || len(got) != 2 {
		t.Fatalf("nil ctx run: %v, %v", got, err)
	}
}
