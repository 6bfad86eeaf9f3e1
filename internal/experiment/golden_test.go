package experiment

// Golden-value determinism gate for the kernel optimization work: the fully
// rendered Table 2 and Table 4 must stay byte-identical across kernel and
// bus internals changes for a fixed seed. The golden files were generated
// from the pre-optimization (container/heap, time.Time, closure-routing)
// kernel; run with -update only when an intentional behaviour change is
// being made, and say so in the commit.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	mercury "github.com/recursive-restart/mercury"
	"github.com/recursive-restart/mercury/internal/trace/tracetest"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s output diverged from golden:\n--- golden\n%s\n--- got\n%s", name, want, got)
	}
}

func TestTable2Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Table2Cfg(context.Background(), RunConfig{Trials: 3, BaseSeed: 2002})
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "table2.golden",
		RenderRows(rows, "Table 2 — tree II recovery: detection + recovery time (s)"))
}

func TestTable4Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := Table4Cfg(context.Background(), RunConfig{Trials: 3, BaseSeed: 2002})
	if err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "table4.golden",
		RenderRows(rows, "Table 4 — overall MTTRs (s); rows are tree/oracle, columns failed components"))
}

// TestTable4TraceGolden pins every Table-4 cell's whole trace, not just its
// mean rounded to two decimals: for seeds 1 and 2 it records the trace from
// before Boot and writes one line per trial with the recorder's digest, the
// kernel's executed-event count and the MTTR to nanoseconds. A refactor of
// the restart path that moves one event, or changes one byte of a detail,
// shows here.
func TestTable4TraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var sb strings.Builder
	for _, spec := range Table4Rows() {
		for _, comp := range componentsForTree(spec.Tree) {
			c := Cell{Tree: spec.Tree, Policy: spec.Policy, FaultyP: spec.FaultyP,
				Component: comp, Cure: cureForCell(spec.Label, comp)}
			for _, seed := range []int64{1, 2} {
				sys, err := mercury.NewSystem(mercury.Config{Seed: seed, TreeName: c.Tree, Policy: c.Policy, FaultyP: c.FaultyP})
				if err != nil {
					t.Fatal(err)
				}
				rec := tracetest.Record(sys.Log)
				if err := sys.Boot(); err != nil {
					t.Fatal(err)
				}
				d, err := sys.MeasureRecovery(c.fault(), 5*time.Minute)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&sb, "%-12s %-8s seed=%d digest=%016x events=%d mttr=%.9f\n",
					spec.Label, comp, seed, rec.Digest(), sys.Kernel.Executed(), d.Seconds())
			}
		}
	}
	goldenCompare(t, "table4_trace.golden", sb.String())
}
