// Command benchmark is Mercury's one benchmark: five workloads (two on a
// live station over real TCP and wall-clock timers, three on the
// deterministic simulator), the end-to-end metrics a station operator or
// a researcher regenerating the paper's tables waits for, and a per-layer
// ledger measured from outside through public functions only.
//
//	bash benchmark/run.sh --workload live-steady --seed 7 --seconds 15 --trace 0
//	bash benchmark/run.sh                      # all five workloads → benchmark/out/result.json
//	bash benchmark/run.sh -trace               # … then each again with spans recorded
//	bash benchmark/run.sh -compare a.json b.json
//
// See README.md beside this file for the metric and workload tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
)

// outDir is where results and traces are written, relative to the
// checkout root (the working directory under run.sh).
const outDir = "benchmark/out"

// workload is one set of inputs the benchmark runs. gold is what the
// simulated statistics are compared with; the live workloads have none.
type workload struct {
	name string
	run  func(r *result, sp *spanRec, gold goldenFile) error
}

func workloads() []workload {
	return []workload{
		{"live-steady", func(r *result, sp *spanRec, _ goldenFile) error { return runLiveSteady(r, defaultLiveSize(), sp) }},
		{"live-faults", func(r *result, sp *spanRec, _ goldenFile) error { return runLiveFaults(r, defaultLiveSize(), sp) }},
		{"sim-recovery", func(r *result, sp *spanRec, g goldenFile) error { return runSimRecovery(r, defaultSimSize(), sp, g) }},
		{"sim-requests", func(r *result, sp *spanRec, g goldenFile) error { return runSimRequests(r, defaultSimSize(), sp, g) }},
		{"sim-fleet", func(r *result, sp *spanRec, g goldenFile) error { return runSimFleet(r, defaultSimSize(), sp, g) }},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mergeTraceArg lets both `-trace` (bare) and `--trace 0|1` (the form the
// driver uses) parse: a value that follows as its own argument is folded
// into the flag.
func mergeTraceArg(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run; empty runs all five, each in its own process")
	seed := fs.Int64("seed", 2002, "seed for fault schedules, message mix order and trial seeds")
	seconds := fs.Float64("seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
	traced := fs.Bool("trace", false, "record spans and print the per-layer ledger")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
	update := fs.Bool("update-golden", false, "with -workload sim-…: write benchmark/golden/<workload>.json from this run instead of checking it")
	if err := fs.Parse(mergeTraceArg(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1))
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *name == "" {
		return runAll(*seed, *seconds, *traced)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	return runOne(spec, w, *seed, *seconds, *traced, *update)
}

// runOne runs one workload in this process and prints the report, with
// the driver's JSON object as the last line of standard output.
func runOne(spec *benchSpec, w workload, seed int64, seconds float64, traced, updateGolden bool) int {
	// A fixed GC target keeps peak_rss_mb and the allocation-driven part
	// of the timings independent of the caller's environment.
	debug.SetGCPercent(100)
	rss := startRSSSampler()
	r := newResult(w.name, seed, seconds, traced)
	var sp *spanRec
	if traced {
		sp = newSpanRec()
	}
	gold := loadGolden(w.name)
	if updateGolden {
		gold = goldenFile{}
	}
	if err := w.run(r, sp, gold); err != nil {
		rss.finish()
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if updateGolden && len(r.Digest) > 0 {
		if err := writeGolden(w.name, goldenFile{Seed: seed, Digests: r.Digest}); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if traced {
		r.setv("trace.spans", "count", float64(sp.count()), 1)
		if err := sp.write(outDir, w.name); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	r.setRSS(rss.finish())
	r.print()
	if err := r.save(outDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := r.finalLine(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a fresh child process of this binary (so
// peak_rss_mb belongs to one workload), untraced and — with -trace — once
// more with spans recorded, and gathers the results into one file.
func runAll(seed int64, seconds float64, traced bool) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	status := 0
	var all []*result
	modes := []bool{false}
	if traced {
		modes = append(modes, true)
	}
	for _, w := range workloads() {
		for _, tr := range modes {
			t := "0"
			file := w.name + ".json"
			if tr {
				t, file = "1", w.name+".traced.json"
			}
			cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace="+t)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				status = 1
				continue
			}
			data, err := os.ReadFile(filepath.Join(outDir, file))
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				status = 1
				continue
			}
			var r result
			if err := json.Unmarshal(data, &r); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", file, err)
				status = 1
				continue
			}
			all = append(all, &r)
		}
	}
	data, err := json.MarshalIndent(all, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "result.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("wrote %s (%d runs)\n", filepath.Join(outDir, "result.json"), len(all))
	return status
}
