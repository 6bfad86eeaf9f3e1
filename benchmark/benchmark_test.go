package main

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// Tiny sizes: every code path of every workload, in a few seconds.
func tinyLive() liveSize {
	return liveSize{scale: 40, setups: 1, window: 16, rung: 60 * time.Millisecond, warmup: 100 * time.Millisecond,
		steadyHz: 2000, faultsHz: 500, minGap: 100 * time.Millisecond, kinds: []string{"rtu", "str.track", "mbus"}}
}

func tinySim() simSize {
	return simSize{
		segments:         2,
		gridPassesPerSec: 2, gridWarmup: 1, oracleTrialsPer: 0.01,
		reqTrialsPerSec: 0.1, reqUsers: 1 << 12,
		fleetStations: 48, fleetSegments: 1, fleetHorizonPer: 10.0 / 3, fleetMTTFFactor: 1.0, fleetWarmup: 8,
		fleetCheck: 16, fleetExtraSmall: 16, fleetExtraLarge: 32,
		setups: 1, runnerTrials: 1, ladderScale: 0.02,
	}
}

// tracedRuns runs every workload once, traced, at tiny size: first the
// two live workloads side by side (they mostly wait on wall-clock timers,
// and their failure detector must not be starved of CPU), then the three
// simulator workloads side by side.
func tracedRuns(t *testing.T) map[string]*result {
	t.Helper()
	out := map[string]*result{}
	var mu sync.Mutex
	none := goldenFile{}
	group(t, out, &mu, map[string]func(*result, *spanRec) error{
		"live-steady": func(r *result, sp *spanRec) error { return runLiveSteady(r, tinyLive(), sp) },
		"live-faults": func(r *result, sp *spanRec) error { return runLiveFaults(r, tinyLive(), sp) },
	})
	group(t, out, &mu, map[string]func(*result, *spanRec) error{
		"sim-recovery": func(r *result, sp *spanRec) error { return runSimRecovery(r, tinySim(), sp, none) },
		"sim-requests": func(r *result, sp *spanRec) error { return runSimRequests(r, tinySim(), sp, none) },
		"sim-fleet":    func(r *result, sp *spanRec) error { return runSimFleet(r, tinySim(), sp, none) },
	})
	return out
}

func group(t *testing.T, out map[string]*result, mu *sync.Mutex, runs map[string]func(*result, *spanRec) error) {
	seconds := map[string]float64{"live-steady": 0.6, "live-faults": 0.6, "sim-recovery": 1, "sim-requests": 1, "sim-fleet": 15}
	var wg sync.WaitGroup
	for name, run := range runs {
		name, run := name, run
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := newResult(name, 2002, seconds[name], true)
			if err := run(r, newSpanRec()); err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			r.setRSS(nil)
			r.setv("trace.spans", "count", 1, 1)
			mu.Lock()
			out[name] = r
			mu.Unlock()
		}()
	}
	wg.Wait()
}

// TestMetricNames: every workload measures every end-to-end metric of
// BENCHMARK.json, records no name the file does not list, and every
// per-layer metric is measured by at least one workload.
func TestMetricNames(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for _, m := range spec.EndToEnd {
		listed[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		if _, dup := listed[m.Name]; dup {
			t.Errorf("metric %s listed twice", m.Name)
		}
		listed[m.Name] = m.Unit
	}
	if got, want := len(spec.Workloads), len(workloads()); got != want {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", got, want)
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the program", w.Name)
		}
	}

	measured := map[string]bool{}
	for name, r := range tracedRuns(t) {
		for _, c := range r.Checks {
			// Tiny sizes are too short for the regime checks; the accounting
			// checks must still hold.
			if !c.OK && (strings.HasPrefix(c.Name, "acks.") || strings.HasPrefix(c.Name, "episode.")) {
				t.Errorf("%s: check %s failed: %s", name, c.Name, c.Detail)
			}
		}
		for _, m := range spec.EndToEnd {
			got, ok := r.Metrics[m.Name]
			if !ok {
				t.Errorf("%s did not measure end-to-end metric %s", name, m.Name)
			} else if got.Value == 0 || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %v", name, m.Name, got.Value)
			}
		}
		for n, m := range r.Metrics {
			unit, ok := listed[n]
			if !ok {
				t.Errorf("%s recorded %s, which BENCHMARK.json does not list", name, n)
			} else if unit != m.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", name, n, m.Unit, unit)
			}
			measured[n] = true
		}
		r.Trace = false
		if _, err := r.finalLine(spec); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	var missing []string
	for _, m := range spec.PerLayer {
		if !measured[m.Name] {
			missing = append(missing, m.Name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("per-layer metrics no workload measured: %v", missing)
	}
}

// fakeConn is a bus connection that goes nowhere.
type fakeConn struct{}

func (fakeConn) Send(*xmlcmd.Message) {}
func (fakeConn) Close()               {}

func testGate() *gate {
	return &gate{conn: fakeConn{}, pend: newPendTable(8), mix: buildMix(1, 3), deadline: time.Second,
		oldest: 1, lat: make([]uint32, 16), tokens: make(chan struct{}, maxWindow)}
}

func TestDuplicateAckFailsTheRun(t *testing.T) {
	g := testGate()
	now := time.Now().UnixNano()
	g.start(now, now)
	ack := xmlcmd.NewAck("rtu", gateName, 1, 1, true, "")
	g.onMsg(ack)
	r := newResult("t", 1, 1, false)
	r.gateChecks(g)
	if !r.Correct {
		t.Fatalf("one ack per request must pass: %+v", r.Checks)
	}
	g.onMsg(ack) // the same sequence number again
	g.onMsg(xmlcmd.NewAck("rtu", gateName, 2, 99, true, ""))
	r = newResult("t", 1, 1, false)
	r.gateChecks(g)
	if r.Correct || g.dup.Load() != 1 || g.unknown.Load() != 1 {
		t.Fatalf("duplicate and unknown acks not caught: dup=%d unknown=%d checks=%+v", g.dup.Load(), g.unknown.Load(), r.Checks)
	}
}

func TestResendAndAbandon(t *testing.T) {
	g := testGate()
	g.deadline, g.resends = time.Millisecond, 1
	t0 := time.Now().UnixNano()
	g.start(t0, t0)
	g.pump(t0 + int64(2*time.Millisecond)) // first attempt given up, resent
	if g.resent.Load() != 1 || g.sent() != 2 || g.failed() != 0 {
		t.Fatalf("resent=%d sent=%d failed=%d", g.resent.Load(), g.sent(), g.failed())
	}
	g.onMsg(xmlcmd.NewAck("rtu", gateName, 1, 1, true, "")) // late ack of the first attempt
	if g.stale.Load() != 1 || g.acked.Load() != 0 {
		t.Fatalf("ack of a given-up attempt must be stale: stale=%d acked=%d", g.stale.Load(), g.acked.Load())
	}
	g.pump(t0 + int64(10*time.Millisecond)) // no resends left: abandoned
	if g.failed() != 1 || g.finished() != g.ops.Load() {
		t.Fatalf("failed=%d finished=%d ops=%d", g.failed(), g.finished(), g.ops.Load())
	}
}

func TestCorruptedGoldenFailsTheRun(t *testing.T) {
	r := newResult("sim-recovery", 2002, 15, false)
	r.checkGolden(goldenFile{Seed: 2002, Digests: map[string]string{"k": "00ff"}}, "k", "00ff")
	if !r.Correct {
		t.Fatal("matching digest must pass")
	}
	r.checkGolden(goldenFile{Seed: 2002, Digests: map[string]string{"k": "00fe"}}, "k", "00ff")
	if r.Correct {
		t.Fatal("a digest that differs from the golden must fail the run")
	}
	r = newResult("sim-recovery", 7, 15, false)
	r.checkGolden(goldenFile{Seed: 2002, Digests: map[string]string{"k": "00fe"}}, "k", "00ff")
	if !r.Correct || r.Digest["k"] != "00ff" {
		t.Fatal("another seed has no golden: the digest is recorded, not compared")
	}
}

func TestGoldensPinTheDefaultRun(t *testing.T) {
	for _, w := range []string{"sim-recovery", "sim-requests", "sim-fleet"} {
		g := loadGolden(w)
		if g.Seed != 2002 || len(g.Digests) == 0 {
			t.Errorf("golden/%s.json pins nothing: %+v", w, g)
		}
	}
}

func TestCompare(t *testing.T) {
	spec := &benchSpec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd: []metricSpec{
			{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.1},
			{Name: "rtt_us", Unit: "us", Better: "lower", Bound: 0.1},
		},
	}
	mk := func(ops, rtt []float64) map[string]*result {
		r := newResult("w", 1, 1, false)
		r.set("ops_per_s", "ops/s", ops)
		r.set("rtt_us", "us", rtt)
		return map[string]*result{"w": r}
	}
	base := mk([]float64{99, 100, 101, 100, 100}, []float64{50, 50, 51, 49, 50})
	status := func(b map[string]*result) map[string]string {
		out := map[string]string{}
		for _, row := range compareResults(spec, base, b) {
			out[row.Metric] = row.Status
		}
		return out
	}
	if got := status(mk([]float64{79, 80, 81, 80, 80}, []float64{50, 50, 51, 49, 50})); got["ops_per_s"] != "worse" || got["rtt_us"] != "ok" {
		t.Errorf("20 %% throughput regression: %v", got)
	}
	if got := status(mk([]float64{96, 97, 98, 97, 97}, []float64{51, 51.5, 52, 51, 51.5})); got["ops_per_s"] != "ok" || got["rtt_us"] != "ok" {
		t.Errorf("3 %% change: %v", got)
	}
	if got := status(mk([]float64{99, 100, 101, 100, 100}, []float64{61, 60, 60, 59, 60})); got["rtt_us"] != "worse" {
		t.Errorf("20 %% latency regression: %v", got)
	}
	if got := status(mk([]float64{70, 100, 130, 80, 120}, []float64{50, 50, 51, 49, 50})); got["ops_per_s"] != "unresolved" {
		t.Errorf("a spread wider than the bound must read unresolved: %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestTraceFlagForms(t *testing.T) {
	got := mergeTraceArg([]string{"--workload", "x", "--trace", "1", "--seed", "3"})
	if strings.Join(got, " ") != "--workload x --trace=1 --seed 3" {
		t.Errorf("got %v", got)
	}
	got = mergeTraceArg([]string{"-trace", "-seed", "3"})
	if strings.Join(got, " ") != "-trace -seed 3" {
		t.Errorf("got %v", got)
	}
}

func TestFaultScheduleIsSeededWithMbusLast(t *testing.T) {
	a, b, c := faultSchedule(faultKinds, 1), faultSchedule(faultKinds, 1), faultSchedule(faultKinds, 2)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Error("same seed, different schedules")
	}
	if strings.Join(a, ",") == strings.Join(c, ",") {
		t.Error("different seeds, same schedule")
	}
	if a[len(a)-1] != "mbus" || len(a) != len(faultKinds) {
		t.Errorf("schedule %v", a)
	}
}
