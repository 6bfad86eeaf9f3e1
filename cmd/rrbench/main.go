// Command rrbench regenerates the paper's tables and figures and runs the
// campaigns built on the same simulator.
//
// Usage:
//
//	rrbench -all                 # every paper section, 100 trials per cell
//	rrbench -table 4 -trials 20  # just Table 4, faster
//	rrbench -table 4 -parallel 8 # fan trials across 8 workers
//	rrbench -table 4 -json       # machine-readable output
//	rrbench -fig 5               # render the restart trees of figures 2-6
//	rrbench -headline            # the §8 "factor of four" computation
//	rrbench -all -cpuprofile cpu.pb.gz        # profile a full regeneration
//	rrbench chaos                             # degraded-network sweep (loss × tree × SuspectAfter)
//	rrbench microreboot                       # microreboot vs process vs group restart
//	rrbench shardchaos -shards 2              # kill/recover broker shards of a live fabric
//	rrbench fleet -stations 1000              # sharded constellation campaign
//	rrbench fleet -verify -stations 12 -cores 4   # byte-identity across core counts
//	rrbench requests                          # user-harm re-scoring (microreboot vs restart)
//	rrbench requests -verify                  # parallel byte-identity of the campaign
//	rrbench oracle                            # recovery-policy choice: cost-aware v2 vs fixed
//	rrbench oracle -validate -trees 1000      # analytic-vs-simulated random-tree ranking
//	rrbench oracle -online                    # soak + online tree-transformation proposal
//
// Every campaign is one row of the table in campaigns(); this file is the
// driver that reads it. The driver owns what the campaigns share: the
// -trials/-seed/-parallel flags (trials fan out across a worker pool and are
// folded in seed order, so every measured number is identical to a
// sequential run), -json (one JSON document on stdout instead of the
// rendered text; a mode with no document refuses it), -cpuprofile and
// -memprofile (pprof profiles around whatever campaign runs), the usage
// line and the exit code: 0, 1 for a failed run or a failed verdict, 2 for
// a mistake in the command line.
//
// What a run costs in wall-clock time is not measured here: that is
// benchmark/ (see benchmark/README.md and BENCH_HISTORY.json).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/recursive-restart/mercury/internal/experiment"
)

// campaign is one row of the table: a name, the flags it adds to the
// driver's, and a run.
type campaign struct {
	// name is the subcommand word; a paper section is spelled as the flag
	// that selects it ("-table") and arg names that flag's value ("N").
	name, arg string
	// bind declares the campaign's own flags on fs and returns its run.
	bind func(fs *flag.FlagSet, sh *shared) runFunc
}

// runFunc returns the measured document (nil when the mode is text only),
// its text rendering, and an error. Output returned next to an error is
// still printed: that is a verdict — the campaign ran and what it checked
// did not hold — and it reaches the exit code whatever the output format.
type runFunc func(ctx context.Context) (doc any, text string, err error)

// shared is the trial-campaign flags the driver defines once. A campaign
// opts in from its bind.
type shared struct {
	trials, parallel int
	seed             int64
}

func (sh *shared) seedFlag(fs *flag.FlagSet) {
	fs.Int64Var(&sh.seed, "seed", 2002, "base random seed")
}

func (sh *shared) trialFlags(fs *flag.FlagSet, trials int) {
	sh.seedFlag(fs)
	fs.IntVar(&sh.trials, "trials", trials, "trials per measured cell")
	fs.IntVar(&sh.parallel, "parallel", 0, "trial workers (0 = one per CPU, 1 = sequential)")
}

func (sh *shared) runConfig() experiment.RunConfig {
	return experiment.RunConfig{Trials: sh.trials, BaseSeed: sh.seed, Workers: sh.parallel}
}

// usageError is a mistake in the command line, as opposed to a failed run:
// exit 2 with the usage line. A non-positive trial count is one too,
// whichever campaign it reaches.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func usagef(format string, a ...any) error { return usageError{fmt.Sprintf(format, a...)} }

func isUsage(err error) bool {
	return errors.As(err, new(usageError)) || errors.Is(err, experiment.ErrTrials)
}

func campaigns() []campaign {
	return append([]campaign{
		{name: "chaos", bind: bindChaos},             // degraded-network sweep (loss × tree × SuspectAfter)
		{name: "fleet", bind: bindFleet},             // sharded multi-kernel constellation
		{name: "microreboot", bind: bindMicroreboot}, // microreboot vs process vs group restart
		{name: "oracle", bind: bindOracle},           // recovery-policy choice, random-tree validation, online proposal
		{name: "requests", bind: bindRequests},       // user-harm re-scoring under an open-loop request plane
		{name: "shardchaos", bind: bindShardChaos},   // kill and recover broker shards of a live TCP fabric
	}, paperSections()...)
}

// usageLine is the one-line map of the whole CLI, rendered from the table.
func usageLine(table []campaign) string {
	var words, sections []string
	for _, c := range table {
		if !strings.HasPrefix(c.name, "-") {
			words = append(words, c.name)
		} else if c.arg != "" {
			sections = append(sections, c.name+" "+c.arg)
		} else {
			sections = append(sections, c.name)
		}
	}
	return "usage: rrbench {" + strings.Join(words, "|") + "} [flags] | rrbench " +
		strings.Join(sections, "|") + " [flags]"
}

func main() { os.Exit(drive(campaigns(), os.Args[1:], os.Stdout, os.Stderr)) }

// drive runs one invocation against the table and returns the exit code;
// it never calls os.Exit, so its defers (the profiles) always run.
func drive(table []campaign, args []string, stdout, stderr io.Writer) (code int) {
	usage := usageLine(table)
	fail := func(err error) int {
		fmt.Fprintln(stderr, "rrbench:", err)
		if isUsage(err) {
			fmt.Fprintln(stderr, usage)
			return 2
		}
		return 1
	}
	if len(args) == 0 {
		fmt.Fprintln(stderr, usage)
		return 2
	}

	// A word selects one campaign; a flag selects among the paper sections,
	// which share one flag set and may be combined.
	var c campaign
	if word := args[0]; strings.HasPrefix(word, "-") {
		c = sectionsOf(table)
	} else {
		for _, e := range table {
			if e.name == word {
				c = e
			}
		}
		if c.bind == nil {
			return fail(usagef("unknown subcommand %q", word))
		}
		args = args[1:]
	}

	fs := flag.NewFlagSet(strings.TrimSpace("rrbench "+c.name), flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, usage)
		fs.PrintDefaults()
	}
	var (
		jsonOut = fs.Bool("json", false, "emit one JSON document instead of the rendered text")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file")
	)
	run := c.bind(fs, &shared{})
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // fs has already printed the error and the usage
	}
	if fs.NArg() > 0 {
		return fail(usagef("unexpected argument %q", fs.Arg(0)))
	}

	stop, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stop(); err != nil {
			code = fail(err)
		}
	}()

	doc, text, err := run(context.Background())
	if err == nil && *jsonOut && doc == nil {
		err = usagef("-json: this mode of %s has no document, only text", fs.Name())
	}
	if isUsage(err) {
		return fail(err)
	}
	if !*jsonOut {
		_, _ = io.WriteString(stdout, text)
	} else if doc != nil {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if eerr := enc.Encode(jsonValue(doc)); eerr != nil {
			return fail(eerr)
		}
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// startProfiles starts the CPU profile and returns the function that stops
// it, closes its file and writes the heap profile.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			_ = cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var cpuErr error
		if cpu != nil {
			pprof.StopCPUProfile()
			cpuErr = cpu.Close()
		}
		if memPath == "" {
			return cpuErr
		}
		f, err := os.Create(memPath)
		if err != nil {
			return errors.Join(cpuErr, err)
		}
		runtime.GC() // the profile records live objects as of the last collection
		return errors.Join(cpuErr, pprof.WriteHeapProfile(f), f.Close())
	}, nil
}
