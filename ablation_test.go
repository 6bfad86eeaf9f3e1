package mercury_test

// The two ablation benchmarks vary design parameters DESIGN.md calls out
// (detection period, restart contention). Each iteration is one full
// recovery trial on a fresh simulated station and the measured mean
// time-to-recover is attached as the custom metric mttr_s: they are MTTR
// experiments cited in EXPERIMENTS.md, not performance records — what the
// code costs to run is measured by benchmark/.

import (
	"fmt"
	"testing"
	"time"

	mercury "github.com/recursive-restart/mercury"
	"github.com/recursive-restart/mercury/internal/core"
)

// BenchmarkAblationPingPeriod sweeps the failure detector's ping period —
// the paper chose 1 s "to minimize detection time without overloading
// mbus"; the sweep shows how MTTR degrades with slower detection.
func BenchmarkAblationPingPeriod(b *testing.B) {
	for _, period := range []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second, 5 * time.Second} {
		b.Run(period.String(), func(b *testing.B) {
			fd := core.DefaultFDParams()
			fd.PingPeriod = period
			var total time.Duration
			for i := 0; i < b.N; i++ {
				sys, err := mercury.NewSystem(mercury.Config{
					Seed: 70_000 + int64(i), TreeName: "IV",
					Policy: mercury.PolicyPerfect, FDParams: &fd,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.Boot(); err != nil {
					b.Fatal(err)
				}
				d, err := sys.MeasureRecovery(mercury.Fault{Component: "rtu"}, 5*time.Minute)
				if err != nil {
					b.Fatal(err)
				}
				total += d
			}
			b.ReportMetric(total.Seconds()/float64(b.N), "mttr_s")
		})
	}
}

// BenchmarkAblationContention sweeps the whole-system restart contention
// coefficient, isolating why tree I costs more than the slowest component.
func BenchmarkAblationContention(b *testing.B) {
	for _, c := range []float64{0, 0.048, 0.1} {
		b.Run(fmt.Sprintf("c=%.3f", c), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				sys, err := mercury.NewSystem(mercury.Config{
					Seed: 80_000 + int64(i), TreeName: "I", Policy: mercury.PolicyPerfect,
				})
				if err != nil {
					b.Fatal(err)
				}
				sys.Mgr.ContentionPerPeer = c
				if err := sys.Boot(); err != nil {
					b.Fatal(err)
				}
				d, err := sys.MeasureRecovery(mercury.Fault{Component: "rtu"}, 5*time.Minute)
				if err != nil {
					b.Fatal(err)
				}
				total += d
			}
			b.ReportMetric(total.Seconds()/float64(b.N), "mttr_s")
		})
	}
}
