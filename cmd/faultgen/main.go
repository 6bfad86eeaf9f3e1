// Command faultgen injects failures into a running mercuryd over the
// message bus — the operator-side half of the paper's SIGKILL experiments.
//
// Targets are component names or, when mercuryd runs an m-variant tree
// (-tree IIIm or IVm), dotted subcomponent names: killing "ses.cache"
// crashes only the session-cache logic inside the ses container, which
// self-reports the fault and is cured by a microreboot instead of a
// process restart.
//
//	faultgen -bus 127.0.0.1:7707 -kill rtu
//	faultgen -bus 127.0.0.1:7707 -kill pbcom -cure fedr,pbcom
//	faultgen -bus 127.0.0.1:7707 -kill ses.cache
//	faultgen -targets
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

func main() {
	var (
		addr    = flag.String("bus", "127.0.0.1:7707", "mbus address (comma-separated list for a sharded fabric)")
		kill    = flag.String("kill", "", "component or dotted subcomponent to kill (required)")
		cure    = flag.String("cure", "", "comma-separated minimal cure set (default: the target)")
		targets = flag.Bool("targets", false, "list the known injection targets and exit")
	)
	flag.Parse()
	if *targets {
		printTargets()
		return
	}
	if err := run(*addr, *kill, *cure); err != nil {
		fmt.Fprintln(os.Stderr, "faultgen:", err)
		os.Exit(1)
	}
}

// printTargets lists every component and micro-mode subcomponent name the
// station runtimes recognise.
func printTargets() {
	fmt.Println("components (any layout):")
	comps := append([]string(nil), station.SplitComponents()...)
	comps = append(comps, station.Fedrcom)
	sort.Strings(comps)
	for _, c := range comps {
		fmt.Println("  " + c)
	}
	fmt.Println("subcomponents (m-variant trees only):")
	subs := station.MicroSubs()
	parents := make([]string, 0, len(subs))
	for p := range subs {
		parents = append(parents, p)
	}
	sort.Strings(parents)
	for _, p := range parents {
		for _, s := range subs[p] {
			fmt.Println("  " + proc.SubName(p, s))
		}
	}
}

// knownTarget reports whether name is a component or subcomponent the
// station runtimes recognise, so typos fail here instead of vanishing
// into the bus.
func knownTarget(name string) bool {
	for _, c := range append(station.SplitComponents(), station.Fedrcom) {
		if name == c {
			return true
		}
	}
	for parent, shorts := range station.MicroSubs() {
		for _, s := range shorts {
			if name == proc.SubName(parent, s) {
				return true
			}
		}
	}
	return false
}

func run(addr, kill, cure string) error {
	if kill == "" {
		flag.Usage()
		return fmt.Errorf("-kill is required")
	}
	if !knownTarget(kill) {
		return fmt.Errorf("unknown target %q (see -targets)", kill)
	}
	for _, c := range strings.Split(cure, ",") {
		if c != "" && !knownTarget(c) {
			return fmt.Errorf("unknown cure component %q (see -targets)", c)
		}
	}
	client, err := bus.DialAuto(addr, "faultgen", nil)
	if err != nil {
		return fmt.Errorf("dial bus: %w", err)
	}
	defer client.Close()

	params := []string{"component", kill}
	if cure != "" {
		params = append(params, "cure", cure)
	}
	client.Send(xmlcmd.NewCommand("faultgen", "ctl", 1, "inject", params...))
	// Give the frame time to flush through the broker before closing.
	time.Sleep(200 * time.Millisecond)
	fmt.Printf("faultgen: requested kill of %s\n", kill)
	return nil
}
