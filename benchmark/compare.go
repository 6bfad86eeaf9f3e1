package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// runCompare is the regression gate: it reads two result files (as
// written by a run of all workloads, or a single workload's file) and
// prints one row per (workload, end-to-end metric) with both medians,
// the quartiles over each side's samples, and the bound. A row is
// "worse" when b's median is worse than a's by more than the bound,
// "unresolved" when either side's spread is wider than the bound, and
// "ok" otherwise. Any "worse" row makes the exit status non-zero.
func runCompare(pathA, pathB string) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	rows := compareResults(spec, a, b)
	printRows(rows)
	for _, row := range rows {
		if row.Status == "worse" {
			return 1
		}
	}
	return 0
}

// readResults loads untraced results by workload from either file shape.
func readResults(path string) (map[string]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var many []*result
	if err := json.Unmarshal(data, &many); err != nil {
		var one result
		if err := json.Unmarshal(data, &one); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		many = []*result{&one}
	}
	out := map[string]*result{}
	for _, r := range many {
		if !r.Trace {
			out[r.Workload] = r
		}
	}
	return out, nil
}

// compareRow is one (workload, end-to-end metric) verdict.
type compareRow struct {
	Workload, Metric, Unit, Status string
	A, B                           float64
	Q1A, Q3A, Q1B, Q3B             float64
	Bound, Change                  float64 // Change > 0 means b is worse, as a share of a
}

func compareResults(spec *benchSpec, a, b map[string]*result) []compareRow {
	var rows []compareRow
	for _, w := range spec.Workloads {
		ra, rb := a[w.Name], b[w.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			ma, okA := ra.Metrics[m.Name]
			mb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			row := compareRow{Workload: w.Name, Metric: m.Name, Unit: m.Unit, A: ma.Value, B: mb.Value, Bound: m.Bound}
			row.Q1A, row.Q3A = quartiles(sampleOr(ma))
			row.Q1B, row.Q3B = quartiles(sampleOr(mb))
			if ma.Value != 0 {
				row.Change = (mb.Value - ma.Value) / ma.Value
				if m.Better == "higher" {
					row.Change = -row.Change
				}
			}
			switch {
			case row.Change > m.Bound:
				row.Status = "worse"
			case spread(sampleOr(ma)) > m.Bound || spread(sampleOr(mb)) > m.Bound:
				row.Status = "unresolved"
			default:
				row.Status = "ok"
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func sampleOr(m metric) []float64 {
	if len(m.Samples) > 0 {
		return m.Samples
	}
	return []float64{m.Value}
}

func printRows(rows []compareRow) {
	fmt.Printf("%-13s %-14s %-9s %14s %25s %14s %25s %8s %6s  %s\n",
		"workload", "metric", "unit", "a", "a q1..q3", "b", "b q1..q3", "change", "bound", "status")
	for _, r := range rows {
		fmt.Printf("%-13s %-14s %-9s %14.6g %12.6g..%-11.6g %14.6g %12.6g..%-11.6g %+7.1f%% %5.0f%%  %s\n",
			r.Workload, r.Metric, r.Unit, r.A, r.Q1A, r.Q3A, r.B, r.Q1B, r.Q3B, r.Change*100, r.Bound*100, r.Status)
	}
}
