package load_test

import (
	"testing"
	"time"

	mercury "github.com/recursive-restart/mercury"
	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/load"
)

// BenchmarkRequestPlane measures sustained simulated requests/s on the
// pass class (the benchmark's load.ns_per_request probe is the same loop).
// b.N is interpreted as requests; virtual time advances as far as needed.
func BenchmarkRequestPlane(b *testing.B) {
	sys, err := mercury.NewSystem(mercury.Config{Seed: 1, TreeName: "IV"})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.Boot(); err != nil {
		b.Fatal(err)
	}
	const rate = 1e6 // virtual requests/s
	eng, err := load.NewEngine(clock.Sim{K: sys.Kernel}, sys.Bus, sys.Mgr, load.Config{
		Seed:    1,
		Cohorts: []load.Cohort{{Class: load.ClassPass, Users: 1 << 20, Rate: rate, Poisson: true}},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	// Warm the pools before the timer.
	if err := sys.RunFor(200 * time.Millisecond); err != nil {
		b.Fatal(err)
	}
	start := eng.Stats().Issued
	b.ReportAllocs()
	b.ResetTimer()
	for eng.Stats().Issued-start < uint64(b.N) {
		if err := sys.RunFor(50 * time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	issued := eng.Stats().Issued - start
	b.ReportMetric(float64(issued)/b.Elapsed().Seconds(), "req/s")
}
