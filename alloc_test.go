package mercury

import (
	"testing"
	"time"
)

// Allocation budgets for the simulated station. The Table-4 campaign is
// tens of thousands of "build a station, break one thing, time the cure"
// trials, so what a trial allocates is what the campaign costs; these
// ceilings keep the timer nodes, the message pool, the prebound loops, the
// shared trees and the typed command parameters from quietly regressing.
// The per-trial ceilings are pinned ~15 % above the measured value (fmt's
// sync.Pool is lossy under the race detector); the healthy station's is
// exact.

// TestTrialAllocBudget pins NewSystem → Boot → MeasureRecovery.
func TestTrialAllocBudget(t *testing.T) {
	cases := []struct {
		tree, component string
		ceiling         float64 // allocations per trial
	}{
		{"IV", "rtu", 360},     // measured 313, 334 under -race (before the pools: 1 715)
		{"II", "fedrcom", 340}, // measured 295, 314 under -race (before the pools: 2 915)
	}
	for _, c := range cases {
		seed := int64(0)
		var events uint64
		const runs = 10
		avg := testing.AllocsPerRun(runs, func() {
			seed++
			sys, err := NewSystem(Config{Seed: seed, TreeName: c.tree})
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Boot(); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.MeasureRecovery(Fault{Component: c.component}, 5*time.Minute); err != nil {
				t.Fatal(err)
			}
			events += sys.Kernel.Executed()
		})
		perTrial := float64(events) / (runs + 1) // AllocsPerRun adds a warm-up call
		t.Logf("%s/%s: %.0f allocs and %.0f events per trial: %.2f allocs/event", c.tree, c.component, avg, perTrial, avg/perTrial)
		if avg > c.ceiling {
			t.Errorf("%s/%s: %.0f allocs/trial, budget %.0f", c.tree, c.component, avg, c.ceiling)
		}
	}
}

// TestHealthyStationAllocsPerEvent: once booted and warm, a healthy tree-IV
// station — FD and REC pinging, ses estimating, str tracking, the radio
// retuning, every component beaconing — runs on recycled timer nodes and
// envelopes, and the numbers in its commands travel as numbers: it
// allocates nothing at all.
func TestHealthyStationAllocsPerEvent(t *testing.T) {
	sys := bootSystem(t, Config{Seed: 7, TreeName: "IV"})
	if err := sys.RunFor(time.Minute); err != nil { // fill the pools and free lists
		t.Fatal(err)
	}
	before := sys.Kernel.Executed()
	const runs = 5
	avg := testing.AllocsPerRun(runs, func() {
		if err := sys.RunFor(time.Minute); err != nil {
			t.Fatal(err)
		}
	})
	events := float64(sys.Kernel.Executed()-before) / (runs + 1) // AllocsPerRun adds a warm-up call
	perEvent := avg / events
	t.Logf("%.0f allocs and %.0f events per simulated minute: %.3f allocs/event", avg, events, perEvent)
	if avg != 0 { // before the typed parameters: 180 a minute; before the pools: 1.911 per event
		t.Errorf("healthy station allocates %.0f times per simulated minute, want 0", avg)
	}
}
