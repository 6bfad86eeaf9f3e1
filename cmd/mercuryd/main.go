// Command mercuryd runs a live Mercury ground station: real TCP message
// bus, the station components, the failure detector and the recoverer,
// all on wall-clock time (optionally compressed by -scale).
//
// The daemon joins the bus as the "ctl" client: faultgen (or any bus
// client) can send it inject commands to kill components and watch the
// automated recovery.
//
// With -obs the daemon also serves a local HTTP observability plane:
// GET /metrics (Prometheus text), GET /healthz (the failure detector's
// component liveness view as JSON) and GET /tree (the active restart
// tree with per-node state as JSON). See OPERATIONS.md for a guide.
//
// With -bus-shards N mbus becomes an N-shard fabric:
// the printed bus address is a comma-separated shard list that faultgen
// and other clients accept as-is.
//
//	mercuryd -listen 127.0.0.1:7707 -tree IV -scale 10 -obs 127.0.0.1:7790
//	mercuryd -listen 127.0.0.1:0 -bus-shards 2
//	faultgen -bus 127.0.0.1:7707 -kill rtu
//	curl -s 127.0.0.1:7790/metrics | grep mercury_rec
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/mp"
	"github.com/recursive-restart/mercury/internal/rt"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

func main() {
	// When spawned by the multi-process supervisor, this invocation hosts
	// a single component child.
	if spec, ok := mp.SpecFromEnv(); ok {
		if err := mp.RunChild(spec); err != nil {
			fmt.Fprintln(os.Stderr, "mercuryd child:", err)
			os.Exit(3)
		}
		return
	}
	// The station flags parse straight into the config both runtimes boot
	// from; the rest say what the daemon does around the station.
	var cfg rt.NodeConfig
	flag.StringVar(&cfg.ListenAddr, "listen", "127.0.0.1:7707", "TCP address for the mbus broker")
	flag.StringVar(&cfg.TreeName, "tree", "IV", "restart tree (I, II, IIp, III, IV, V; the m-variants IIIm/IVm run in micro mode)")
	flag.Float64Var(&cfg.Scale, "scale", 10, "time compression (10 = ten times faster than calibrated)")
	flag.Int64Var(&cfg.Seed, "seed", 2002, "deterministic seed for jitter and epochs")
	flag.IntVar(&cfg.BusShards, "bus-shards", 1, "broker shards for the mbus fabric")
	flag.StringVar(&cfg.OracleName, "oracle", "", "recovery policy (v2 = costaware), one of:\n"+core.PolicyHelp())
	flag.DurationVar(&cfg.CkptInterval, "ckpt-interval", 0, "checkpoint snapshot period (m-variant trees only; 0 = default 10s when the checkpoint plane is on)")
	var d daemon
	flag.DurationVar(&d.duration, "duration", 0, "run time (0 = until SIGINT)")
	flag.StringVar(&d.kill, "kill", "", "self-driven demo: component to kill after -kill-after")
	flag.DurationVar(&d.killAt, "kill-after", 5*time.Second, "wall-time delay before -kill")
	flag.BoolVar(&d.quiet, "quiet", false, "suppress the live trace stream")
	flag.StringVar(&d.obsAddr, "obs", "", "HTTP address for the observability endpoints (/metrics, /healthz, /tree); empty = disabled")
	multiproc := flag.Bool("multiproc", false, "run every component as its own OS process (per-JVM fidelity)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println("mercuryd", buildVersion())
		return
	}
	if err := run(cfg, *multiproc, d); err != nil {
		fmt.Fprintln(os.Stderr, "mercuryd:", err)
		os.Exit(1)
	}
}

// daemon is what mercuryd does around the station it boots.
type daemon struct {
	duration time.Duration
	kill     string
	killAt   time.Duration
	quiet    bool
	obsAddr  string
}

// served is a booted station as the command's common tail — trace stream,
// control client, observability endpoints, shutdown — sees it: the host the
// two live runtimes share, plus the one thing only one of them has.
type served struct {
	*rt.Host
	// pid reports a component's child process; nil when components run
	// in-process.
	pid func(component string) int
}

// mode names the runtime in the build-info metric and the /tree body.
func (s served) mode() string {
	if s.pid != nil {
		return "multiproc"
	}
	return "in-process"
}

// run boots cfg on the runtime -multiproc picks and drives the common
// station lifecycle.
func run(cfg rt.NodeConfig, multiproc bool, d daemon) error {
	mode := "in-process"
	if multiproc {
		mode = "multi-process"
	}
	fmt.Printf("mercuryd: booting %s (tree %s, scale %.0fx, bus %s)...\n",
		mode, cfg.TreeName, cfg.Scale, cfg.ListenAddr)

	if multiproc {
		sup, err := mp.StartSupervisor(cfg)
		if err != nil {
			return err
		}
		defer sup.Stop()
		return serve(served{Host: sup.Host, pid: sup.ChildPID}, d)
	}
	node, err := rt.StartNode(cfg)
	if err != nil {
		return err
	}
	defer node.Stop()
	return serve(served{Host: node}, d)
}

// serve is the common post-boot path: trace stream, banner, observability
// listener, control client, optional demo kill, then wait for the end of
// the run and print the shutdown summary.
func serve(view served, d daemon) error {
	if !d.quiet {
		view.Log.Subscribe(func(e trace.Event) {
			switch e.Kind {
			case trace.FaultInjected, trace.FailureDetected, trace.OracleGuess,
				trace.RestartRequested, trace.ComponentReady, trace.ComponentDown,
				trace.GiveUp, trace.SystemRecovered:
				var buf [160]byte
				os.Stdout.Write(append(e.AppendText(append(buf[:0], "   "...)), '\n'))
			}
		})
	}
	fmt.Printf("mercuryd: station up; bus at %s\n", view.BusAddr())
	if view.pid != nil {
		for _, comp := range view.Comps {
			if pid := view.pid(comp); pid != 0 {
				fmt.Printf("  %-8s pid %d\n", comp, pid)
			} else {
				fmt.Printf("  %-8s (in supervisor)\n", comp)
			}
		}
	}
	fmt.Println(view.Tree.Render())

	if d.obsAddr != "" {
		srv, err := startObs(d.obsAddr, view)
		if err != nil {
			return fmt.Errorf("obs listener: %w", err)
		}
		defer srv.Close()
		fmt.Printf("mercuryd: observability at http://%s (/metrics /healthz /tree)\n", srv.Addr())
	}

	// Join the bus as the control client so faultgen can reach us. The
	// address spec may be a comma-separated shard list; DialAuto handles
	// both shapes.
	ctl, err := bus.DialAuto(view.BusAddr(), "ctl", func(m *xmlcmd.Message) {
		if m.Kind() != xmlcmd.KindCommand || m.Command.Name != "inject" {
			return
		}
		comp, _ := m.Command.Param("component")
		cureStr, _ := m.Command.Param("cure")
		var cure []string
		if cureStr != "" {
			cure = strings.Split(cureStr, ",")
		}
		fmt.Printf("mercuryd: inject request from %s: kill %s (cure %v)\n", m.From, comp, cure)
		if err := view.Inject(fault.Fault{Manifest: comp, Cure: cure}); err != nil {
			fmt.Println("mercuryd: inject failed:", err)
		}
	})
	if err != nil {
		return fmt.Errorf("control client: %w", err)
	}
	defer ctl.Close()

	if d.kill != "" {
		time.AfterFunc(d.killAt, func() {
			fmt.Printf("mercuryd: demo kill of %s\n", d.kill)
			if err := view.Inject(fault.Fault{Manifest: d.kill}); err != nil {
				fmt.Println("mercuryd: demo kill failed:", err)
			}
		})
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if d.duration > 0 {
		select {
		case <-time.After(d.duration):
		case <-sig:
		}
	} else {
		<-sig
	}
	fmt.Println("mercuryd: shutting down")
	fmt.Printf("mercuryd: summary: restarts=%d suspicions=%d reports=%d frames_in=%d frames_out=%d child_spawns=%d\n",
		core.M.RECRestarts.Value(), core.M.FDSuspicions.Value(), core.M.FDReports.Value(),
		bus.M.TCPFramesIn.Value(), bus.M.TCPFramesOut.Value(), mp.M.ChildSpawns.Value())
	return nil
}
