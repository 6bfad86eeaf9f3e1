package mercury_test

import (
	"context"
	"testing"

	"github.com/recursive-restart/mercury/internal/experiment"
)

// TestParallelTable4MatchesSequential is the determinism gate for the
// trial runner: the fully rendered Table 4 must be byte-identical between
// a sequential run and a wide parallel run of the same seed.
func TestParallelTable4MatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	render := func(workers int) string {
		rows, err := experiment.Table4Cfg(context.Background(), experiment.RunConfig{
			Trials: 2, BaseSeed: 45_000, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return experiment.RenderRows(rows, "Table 4")
	}
	seq := render(1)
	for _, workers := range []int{2, 8} {
		if par := render(workers); par != seq {
			t.Fatalf("workers=%d output diverged from sequential:\n--- sequential\n%s\n--- parallel\n%s",
				workers, seq, par)
		}
	}
}
