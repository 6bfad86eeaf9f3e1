package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported number: the median of its samples (segments,
// episodes or repeated set-ups), with the samples kept so -compare can
// print quartiles.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// check is one correctness check the run made.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Checks    []check           `json:"checks"`
	Digest    map[string]string `json:"digest,omitempty"` // simulated statistics, exact per seed
}

func newResult(workload string, seed int64, seconds float64, traced bool) *result {
	return &result{Workload: workload, Seed: seed, Seconds: seconds, Trace: traced,
		Correct: true, Metrics: map[string]metric{}}
}

// set records a metric as the median of its samples.
func (r *result) set(name, unit string, samples []float64) {
	r.Metrics[name] = metric{Value: median(samples), Unit: unit, N: len(samples), Samples: samples}
}

// setMean records a metric as the mean of its samples (recovery times of
// unlike components, where a median would hop between kinds).
func (r *result) setMean(name, unit string, samples []float64) {
	r.Metrics[name] = metric{Value: mean(samples), Unit: unit, N: len(samples), Samples: samples}
}

// setv records a single measured or counted value over n samples.
func (r *result) setv(name, unit string, v float64, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

// setRSS records the memory metrics from the sampler's window peaks:
// peak_rss_mb is their median (VmHWM where /proc/self/statm cannot be
// read), gen.vm_hwm_mb the process's one highest reading.
func (r *result) setRSS(windowPeaks []float64) {
	hwm := peakRSSMB()
	if len(windowPeaks) == 0 {
		windowPeaks = []float64{hwm}
	}
	r.set("peak_rss_mb", "MB", windowPeaks)
	r.setv("gen.vm_hwm_mb", "MB", hwm, 1)
}

// check records a correctness check; a failed one fails the run.
func (r *result) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
		r.Correct = false
	}
	r.Checks = append(r.Checks, c)
}

// metricSpec names a metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec is BENCHMARK.json: the contract the benchmark is held to.
// The program embeds no second copy of the metric lists; benchmark_test.go
// checks that every run prints exactly the names in the file.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the checkout root (the working
// directory under benchmark/run.sh) or, for `go test` inside benchmark/,
// from the parent directory.
func loadSpec() (*benchSpec, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, lastErr
}

// finalLine renders the one JSON object the driver reads: with tracing
// off every end-to-end metric, with tracing on every per-layer metric. A
// per-layer metric whose layer is not on this workload's path reads 0 —
// the layer costs the workload nothing. A missing end-to-end metric is a
// bug in the workload and fails the run.
func (r *result) finalLine(spec *benchSpec) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	if r.Trace {
		for _, m := range spec.PerLayer {
			out.Metrics[m.Name] = mv{r.Metrics[m.Name].Value, m.Unit}
		}
	} else {
		for _, m := range spec.EndToEnd {
			got, ok := r.Metrics[m.Name]
			if !ok {
				return nil, fmt.Errorf("workload %s did not measure end-to-end metric %s", r.Workload, m.Name)
			}
			out.Metrics[m.Name] = mv{got.Value, m.Unit}
		}
	}
	return json.Marshal(out)
}

// print writes the human-readable report: every metric by name with its
// unit and sample count, then the checks.
func (r *result) print() {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("== %s seed=%d seconds=%g trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("%-34s %16.6g %-8s n=%d", n, m.Value, m.Unit, m.N)
		if len(m.Samples) > 1 {
			q1, q3 := quartiles(m.Samples)
			line += fmt.Sprintf("  q1=%.6g q3=%.6g", q1, q3)
		}
		fmt.Println(line)
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED: " + c.Detail
		}
		fmt.Printf("check %-40s %s\n", c.Name, status)
	}
}

// save writes the full result (samples included) where -compare and the
// all-workloads mode read it back.
func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	name := r.Workload + ".json"
	if r.Trace {
		name = r.Workload + ".traced.json"
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
