package mercury

import (
	"runtime"
	"testing"
	"time"
)

// Allocation budgets for the simulated station. The Table-4 campaign is
// tens of thousands of "build a station, break one thing, time the cure"
// trials, each only ~800 kernel events long, so what a trial allocates to
// construct, boot and cure its station is what the campaign costs; these
// ceilings keep the timer nodes, the message pool, the prebound loops, the
// shared trees and the typed command parameters from quietly regressing.
// The per-trial ceilings are pinned ~10 % above the measured value; the
// healthy station's is exact.

// runTrial runs one Table-4 trial of a cell on seed — NewSystem, Boot, a
// fault and its cure — calling mark after each of the three phases, and
// returns the kernel events it executed.
func runTrial(tb testing.TB, seed int64, tree, component string, mark func(phase int)) uint64 {
	sys, err := NewSystem(Config{Seed: seed, TreeName: tree})
	if err != nil {
		tb.Fatal(err)
	}
	mark(0)
	if err := sys.Boot(); err != nil {
		tb.Fatal(err)
	}
	mark(1)
	if _, err := sys.MeasureRecovery(Fault{Component: component}, 5*time.Minute); err != nil {
		tb.Fatal(err)
	}
	mark(2)
	return sys.Kernel.Executed()
}

// trialAllocs runs runs+1 trials of one cell (the first is a warm-up) on
// seeds 1, 2, … and returns the mean allocations of each phase —
// NewSystem, Boot, MeasureRecovery — and the mean kernel events of a
// trial. Like testing.AllocsPerRun it counts on one P.
func trialAllocs(tb testing.TB, tree, component string, runs int) (phases [3]float64, events float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	var total [3]uint64
	var executed uint64
	for seed := int64(0); seed <= int64(runs); seed++ {
		runtime.ReadMemStats(&ms)
		last := ms.Mallocs
		n := runTrial(tb, seed+1, tree, component, func(phase int) {
			runtime.ReadMemStats(&ms)
			if seed > 0 {
				total[phase] += ms.Mallocs - last
			}
			last = ms.Mallocs
		})
		if seed > 0 {
			executed += n
		}
	}
	for i, n := range total {
		phases[i] = float64(n) / float64(runs)
	}
	return phases, float64(executed) / float64(runs)
}

// TestTrialAllocBudget pins NewSystem → Boot → MeasureRecovery, and logs
// each phase. Measured per trial (seeds 1–10, no -race), as NewSystem +
// Boot + MeasureRecovery:
//
//	IV/rtu         1 715 before the pools; 301 = 68 + 186 + 47; 197 = 55 + 108 + 34; 191 = 55 + 102 + 34; 129 = 55 + 54 + 20; 103 = 51 + 37 + 15
//	II/fedrcom     2 915 before the pools; 284 = 62 + 172 + 50; 188 = 51 + 100 + 37; 182 = 51 + 95 + 36; 125 = 51 + 53 + 21; 101 = 47 + 38 + 16
//	IVm/ses.cache  384 = 106 + 232 + 46; 269 = 83 + 148 + 38; 263 = 83 + 142 + 38; 200 = 83 + 94 + 23; 165 = 79 + 72 + 14 (a microreboot)
//
// The second figures are before the one-piece message mint, the first
// capacities inside the kernel and the fabric, the fmt-free trace
// details, the shared batch slice, the chunked process records and
// contexts, FD's slab and the indexed tree labels; the third are after,
// the fourth are with a trace log that keeps no events (the ring's
// growth was six allocations a trial), and the last are with prebound
// timers: FD, REC and every station loop arm events embedded in the
// state they drive instead of binding closures per incarnation, REC
// reuses its episode records and timer nodes, the fault board its
// entries, and the recovery path's details skip fmt. The sixth are with
// trace events that carry their numbers as fields instead of text (every
// start and ready line of a boot was a string), a sub's self-report loop
// prebound, and the injector's, the collector's and REC's maps made on
// first write. Under -race the counts read up to 5 higher.
func TestTrialAllocBudget(t *testing.T) {
	cases := []struct {
		tree, component string
		ceiling         float64 // allocations per trial
	}{
		{"IV", "rtu", 113},
		{"II", "fedrcom", 111},
		{"IVm", "ses.cache", 182},
	}
	for _, c := range cases {
		phases, events := trialAllocs(t, c.tree, c.component, 10)
		total := phases[0] + phases[1] + phases[2]
		t.Logf("%s/%s: %.0f allocs per trial (NewSystem %.1f, Boot %.1f, MeasureRecovery %.1f) and %.0f events: %.3f allocs/event",
			c.tree, c.component, total, phases[0], phases[1], phases[2], events, total/events)
		if total > c.ceiling {
			t.Errorf("%s/%s: %.0f allocs/trial, budget %.0f", c.tree, c.component, total, c.ceiling)
		}
	}
}

// BenchmarkTable4Trial is one Table-4 trial — NewSystem, Boot, a fault and
// its cure — per op, reporting allocs/op and kernel events/op: the cost
// the sim-recovery campaign multiplies, without running the campaign.
func BenchmarkTable4Trial(b *testing.B) {
	for _, c := range []struct{ tree, component string }{{"IV", "rtu"}, {"II", "fedrcom"}} {
		b.Run(c.tree+"/"+c.component, func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				events += runTrial(b, int64(i+1), c.tree, c.component, func(int) {})
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
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

// TestWarmRestartAllocs prices one warm recovery — a fault, its detection,
// the oracle's guess, the restart and the cure — plus 10 s of settling, on
// a station already booted and warmed by three recoveries of the same
// component. A crash-only restart needs fresh state and nothing else: its
// trace lines carry their numbers as fields. Every recovery pays the
// kill's reason ("fault f<n>", which OnDown listeners keep), and each
// restarted process its new handler; the ceilings are exact (before
// prebound timers: 27, 45, 38, 30 and 30; before typed trace fields: 7,
// 11, 12, 9 and 9).
func TestWarmRestartAllocs(t *testing.T) {
	cases := []struct {
		tree, component string
		ceiling         float64 // allocations per warm recovery
	}{
		{"IV", "rtu", 2},        // the reason + rtu's handler
		{"IV", "ses", 4},        // the reason + ses's handler + str's and its antenna model (the cell is [ses str])
		{"V", "pbcom", 5},       // the reason + pbcom's handler and its serial port and transceiver + fedr's, reconnecting
		{"II", "fedrcom", 4},    // the reason + fedrcom's handler and its serial port and transceiver
		{"IVm", "ses.cache", 1}, // the reason: a microreboot makes no handler, and the sub's self-report loop is prebound
	}
	for _, c := range cases {
		t.Run(c.tree+"/"+c.component, func(t *testing.T) {
			sys := bootSystem(t, Config{Seed: 7, TreeName: c.tree})
			recovery := func() {
				if _, err := sys.MeasureRecovery(Fault{Component: c.component}, 5*time.Minute); err != nil {
					t.Fatal(err)
				}
				if err := sys.RunFor(10 * time.Second); err != nil {
					t.Fatal(err)
				}
			}
			for range 3 {
				recovery()
			}
			avg := testing.AllocsPerRun(10, recovery)
			t.Logf("%.1f allocs per warm recovery", avg)
			if avg > c.ceiling {
				t.Errorf("%.1f allocs per warm recovery, budget %.0f", avg, c.ceiling)
			}
		})
	}
}
