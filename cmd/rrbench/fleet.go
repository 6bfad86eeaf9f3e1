package main

// The fleet subcommand drives the sharded multi-kernel constellation
// simulator (internal/sim Fleet + internal/experiment fleet campaign):
//
//	rrbench fleet -stations 1000                      # one campaign, text
//	rrbench fleet -stations 1000 -group 50 -json      # machine-readable
//	rrbench fleet -verify -stations 12 -cores 4       # byte-identity gate
//	rrbench fleet -obs 127.0.0.1:9090 ...             # /metrics during run
//
// The folded output of a campaign depends only on the configuration and
// seed — never on -cores — which is what -verify asserts (2 seeds × 2
// runs × {1, N} cores, all folds byte-identical).

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/recursive-restart/mercury/internal/experiment"
	"github.com/recursive-restart/mercury/internal/obs"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/sim"
)

func bindFleet(fs *flag.FlagSet, sh *shared) runFunc {
	sh.seedFlag(fs)
	var (
		stations = fs.Int("stations", 1000, "constellation size")
		group    = fs.Int("group", 0, "stations per shard kernel (0 = auto: ~4 shards per core, min 1/station)")
		trees    = fs.String("trees", "IV", "restart trees assigned round-robin (csv)")
		horizon  = fs.Duration("horizon", time.Minute, "simulated campaign duration")
		cores    = fs.Int("cores", 0, "fleet shard workers (0 = one per CPU); output-neutral")
		beacon   = fs.Duration("beacon", 5*time.Second, "inter-station beacon period")
		mttf     = fs.Duration("mttf", 10*time.Minute, "per-component organic MTTF (lognormal, CV 0.25)")
		verify   = fs.Bool("verify", false, "byte-identity gate: 2 seeds x 2 runs x {1, N} cores")
		obsAddr  = fs.String("obs", "", "serve /metrics on this address for the run's duration")
	)
	return func(ctx context.Context) (any, string, error) {
		cfg := experiment.FleetConfig{
			Stations:     *stations,
			Group:        *group,
			Trees:        csvStrings(*trees),
			Horizon:      *horizon,
			BaseSeed:     sh.seed,
			Workers:      *cores,
			BeaconPeriod: *beacon,
			FailMTTF:     *mttf,
		}
		if cfg.Group == 0 {
			cfg.Group = autoGroup(*stations, *cores)
		}
		if *obsAddr != "" {
			stop, err := serveFleetObs(*obsAddr)
			if err != nil {
				return nil, "", err
			}
			defer stop()
		}
		if *verify {
			text, err := verifyFleet(ctx, cfg)
			return nil, text, err
		}
		r, err := experiment.RunFleet(ctx, cfg)
		if err != nil {
			return nil, "", err
		}
		// The digest travels as the 16 hex digits the text prints: a 64-bit
		// number does not survive a JSON reader that parses into float64.
		return struct {
			*experiment.FleetResult
			Digest string `json:"digest"`
		}{r, fmt.Sprintf("%016x", r.Digest)}, experiment.RenderFleet(r), nil
	}
}

// autoGroup picks a shard granularity: enough shards to keep every core
// busy with work-stealing slack (~4 shards per core), but never fewer than
// one station per shard. Group is part of the reproducibility key, so
// -verify pins it explicitly before sweeping cores.
func autoGroup(stations, cores int) int {
	if cores <= 0 {
		cores = runtime.GOMAXPROCS(0)
	}
	g := stations / (4 * cores)
	if g < 1 {
		g = 1
	}
	return g
}

// verifyFleet is the CI byte-identity gate: for each of two seeds, run the
// same constellation twice sequentially and twice on N cores; all four
// folds must be byte-identical.
func verifyFleet(ctx context.Context, cfg experiment.FleetConfig) (string, error) {
	multi := cfg.Workers
	if multi <= 0 {
		multi = runtime.GOMAXPROCS(0)
	}
	if multi < 2 {
		multi = 2 // even on one CPU, exercise the parallel barrier path
	}
	var text strings.Builder
	for _, seed := range []int64{cfg.BaseSeed, cfg.BaseSeed + 1} {
		var ref string
		for run := 0; run < 2; run++ {
			for _, workers := range []int{1, multi} {
				c := cfg
				c.BaseSeed = seed
				c.Workers = workers
				r, err := experiment.RunFleet(ctx, c)
				if err != nil {
					return text.String(), err
				}
				fold := r.Fold()
				if ref == "" {
					ref = fold
					continue
				}
				if fold != ref {
					return text.String(), fmt.Errorf("fold diverged (seed %d, run %d, %d cores):\n--- reference ---\n%s--- got ---\n%s",
						seed, run, workers, ref, fold)
				}
			}
		}
		fmt.Fprintf(&text, "seed %d: 4 folds byte-identical across {1, %d} cores\n", seed, multi)
	}
	text.WriteString("fleet verify: OK\n")
	return text.String(), nil
}

// serveFleetObs mounts /metrics with the families a fleet moves (fleet
// scheduler, process manager) for the run's duration. The bus families are
// the TCP wire path's, which a simulated fleet never touches.
func serveFleetObs(addr string) (stop func(), err error) {
	reg := obs.NewRegistry()
	sim.RegisterMetrics(reg)
	proc.RegisterMetrics(reg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = reg.WritePrometheus(w)
	})
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "fleet: serving /metrics on http://%s/metrics\n", ln.Addr())
	return func() { _ = srv.Close() }, nil
}
