package experiment

import (
	"context"
	"strings"
	"testing"
)

func TestOracleQualitySweepShape(t *testing.T) {
	points, err := OracleQualitySweep(context.Background(), RunConfig{Trials: 8, BaseSeed: 5000}, 0, 0.5, 1.0)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	// Tree IV degrades monotonically (allowing sampling noise).
	if points[2].TreeIV <= points[0].TreeIV+5 {
		t.Fatalf("tree IV not degrading with error rate: %+v", points)
	}
	// Tree V stays flat across the whole range.
	for _, pt := range points {
		if pt.TreeV > points[0].TreeV+3 || pt.TreeV < points[0].TreeV-3 {
			t.Fatalf("tree V not flat: %+v", points)
		}
	}
	// At p=0 the trees are equivalent.
	if d := points[0].TreeIV - points[0].TreeV; d > 3 || d < -3 {
		t.Fatalf("p=0 trees differ by %.2fs", d)
	}
	out := RenderSweep(points)
	if !strings.Contains(out, "tree IV") || !strings.Contains(out, "100%") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestOracleQualitySweepValidation(t *testing.T) {
	if _, err := OracleQualitySweep(context.Background(), RunConfig{Trials: 1, BaseSeed: 1}, 1.5); err == nil {
		t.Fatal("rate > 1 accepted")
	}
}
