package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
	// Shards fold into the same total.
	c.Shard(3).Inc()
	c.Shard(3 + NumShards).Add(2) // same shard, wrapped index
	if got := c.Value(); got != 8 {
		t.Fatalf("Value = %d, want 8", got)
	}
	if c.Shard(3) != c.Shard(3+NumShards) {
		t.Fatal("shard index is not reduced modulo NumShards")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const writers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := c.Shard(uint64(w))
			for i := 0; i < per; i++ {
				sh.Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != writers*per {
		t.Fatalf("Value = %d, want %d", got, writers*per)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
}

// TestHistogramBucketBoundaries pins the inclusive ("le") boundary
// semantics: an observation equal to a bound lands in that bound's
// bucket, one nanosecond more spills into the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram(10*time.Millisecond, 100*time.Millisecond, time.Second)
	h.Observe(0)
	h.Observe(10 * time.Millisecond)                 // == bound: bucket 0
	h.Observe(10*time.Millisecond + time.Nanosecond) // just over: bucket 1
	h.Observe(100 * time.Millisecond)                // == bound: bucket 1
	h.Observe(time.Second)                           // == bound: bucket 2
	h.Observe(time.Hour)                             // overflow: +Inf
	h.Observe(-time.Second)                          // clamped to 0: bucket 0

	wantCum := []uint64{3, 5, 6, 7} // le=10ms, le=100ms, le=1s, +Inf
	for i, want := range wantCum {
		if got := h.Cumulative(i); got != want {
			t.Fatalf("Cumulative(%d) = %d, want %d", i, got, want)
		}
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
	wantSum := 10*time.Millisecond + (10*time.Millisecond + time.Nanosecond) +
		100*time.Millisecond + time.Second + time.Hour
	if got := time.Duration(h.Sum()); got != wantSum {
		t.Fatalf("Sum = %v, want %v", got, wantSum)
	}
}

func TestHistogramValidation(t *testing.T) {
	for _, bad := range [][]time.Duration{
		{},
		{time.Second, time.Second},
		{time.Second, time.Millisecond},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHistogram(%v) did not panic", bad)
				}
			}()
			NewHistogram(bad...)
		}()
	}
}

func TestDefBucketsAscending(t *testing.T) {
	b := DefBuckets()
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("DefBuckets not ascending at %d: %v", i, b)
		}
	}
	// The ladder must bracket the system's calibrated thresholds.
	if b[0] > time.Millisecond || b[len(b)-1] < time.Minute {
		t.Fatalf("DefBuckets span %v–%v does not cover 1ms–60s", b[0], b[len(b)-1])
	}
}

func TestCounterVec(t *testing.T) {
	v := NewCounterVec()
	v.With("a").Inc()
	v.With("b").Add(2)
	v.With("a").Inc()
	if got := v.With("a").Value(); got != 2 {
		t.Fatalf("a = %d, want 2", got)
	}
	labels := v.Labels()
	if len(labels) != 2 || labels[0] != "a" || labels[1] != "b" {
		t.Fatalf("Labels = %v, want [a b]", labels)
	}
}

// The zero-allocation contract: every increment path the hot layers use
// is pinned at 0 allocs/op.
func TestIncrementAllocs(t *testing.T) {
	var c Counter
	var g Gauge
	h := NewHistogram(DefBuckets()...)
	v := NewCounterVec()
	v.With("warm") // create outside the measured region
	sh := c.Shard(5)

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"CounterShard.Inc", func() { sh.Inc() }},
		{"CounterShard.Add", func() { sh.Add(3) }},
		{"Counter.Shard+Inc", func() { c.Shard(2).Inc() }},
		{"Gauge.Set", func() { g.Set(1) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"Histogram.Observe", func() { h.Observe(300 * time.Millisecond) }},
		{"CounterVec.With+Inc", func() { v.With("warm").Inc() }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects/op, want 0", tc.name, allocs)
		}
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	var frames Counter
	frames.Add(42)
	var conns Gauge
	conns.Set(3)
	h := NewHistogram(time.Second, time.Minute)
	h.Observe(500 * time.Millisecond)
	h.Observe(30 * time.Second)
	h.Observe(2 * time.Hour)
	v := NewCounterVec()
	v.With("R(rtu)").Add(2)
	v.With(`q"uo\te`).Inc()

	r.RegisterCounter("m_frames_total", "frames moved", &frames, "dir", "in")
	r.RegisterGauge("m_conns", "open connections", &conns)
	r.RegisterGaugeFunc("m_up", "always one", func() float64 { return 1 })
	r.RegisterHistogram("m_latency_seconds", "op latency", h)
	r.RegisterCounterVec("m_restarts_total", "restarts by node", "node", v)

	var sb strings.Builder
	if _, err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	for _, want := range []string{
		"# HELP m_frames_total frames moved\n# TYPE m_frames_total counter\nm_frames_total{dir=\"in\"} 42\n",
		"# TYPE m_conns gauge\nm_conns 3\n",
		"m_up 1\n",
		"m_latency_seconds_bucket{le=\"1\"} 1\n",
		"m_latency_seconds_bucket{le=\"60\"} 2\n",
		"m_latency_seconds_bucket{le=\"+Inf\"} 3\n",
		"m_latency_seconds_count 3\n",
		"m_restarts_total{node=\"R(rtu)\"} 2\n",
		`m_restarts_total{node="q\"uo\\te"} 1` + "\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q in:\n%s", want, got)
		}
	}
	// Families are sorted by name for stable scrapes.
	if strings.Index(got, "m_conns") > strings.Index(got, "m_frames_total") {
		t.Error("families not sorted by name")
	}
	// _sum renders in seconds.
	if !strings.Contains(got, "m_latency_seconds_sum 7230.5\n") {
		t.Errorf("unexpected _sum rendering in:\n%s", got)
	}
}

func TestRegistryHistogramWithLabels(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram(time.Second)
	h.Observe(time.Millisecond)
	r.RegisterHistogram("m_h_seconds", "labeled hist", h, "stage", "detect")
	var sb strings.Builder
	if _, err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `m_h_seconds_bucket{stage="detect",le="1"} 1`) {
		t.Fatalf("labels and le not merged:\n%s", sb.String())
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	var c Counter
	var g Gauge
	r.RegisterCounter("m_x", "x", &c)
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-registration did not panic")
		}
	}()
	r.RegisterGauge("m_x", "x", &g)
}

func TestRenderLabelsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd label pair count did not panic")
		}
	}()
	renderLabels([]string{"k"})
}

// TestRegistryConcurrentScrape exercises render-while-increment under the
// race detector: scrapes must never tear or race against hot writers.
func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	var c Counter
	h := NewHistogram(DefBuckets()...)
	v := NewCounterVec()
	r.RegisterCounter("m_c_total", "c", &c)
	r.RegisterHistogram("m_h_seconds", "h", h)
	r.RegisterCounterVec("m_v_total", "v", "k", v)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := c.Shard(uint64(w))
			for {
				select {
				case <-stop:
					return
				default:
				}
				sh.Inc()
				h.Observe(time.Duration(w) * time.Millisecond)
				v.With("node").Inc()
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if _, err := r.WritePrometheus(&sb); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestValueHistogram(t *testing.T) {
	h := NewValueHistogram(1, 4, 16)
	for _, v := range []uint64{0, 1, 2, 4, 5, 16, 17, 1000} {
		h.ObserveValue(v)
	}
	if got := h.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	if got := h.Sum(); got != 1045 {
		t.Fatalf("Sum = %d, want 1045", got)
	}
	// le semantics: a value equal to a bound lands in that bucket.
	wantCum := []uint64{2, 4, 6, 8} // ≤1, ≤4, ≤16, +Inf
	for i, want := range wantCum {
		if got := h.Cumulative(i); got != want {
			t.Fatalf("Cumulative(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestValueHistogramValidation(t *testing.T) {
	for _, bounds := range [][]uint64{nil, {}, {5, 5}, {5, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewValueHistogram(%v) did not panic", bounds)
				}
			}()
			NewValueHistogram(bounds...)
		}()
	}
}

func TestRegistryValueHistogram(t *testing.T) {
	r := NewRegistry()
	h := NewValueHistogram(1, 8, 64)
	r.RegisterHistogram("mercury_bus_shard_batch_frames", "Frames per batched write.", h)
	h.ObserveValue(1)
	h.ObserveValue(8)
	h.ObserveValue(100)
	var sb strings.Builder
	if _, err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE mercury_bus_shard_batch_frames histogram",
		`mercury_bus_shard_batch_frames_bucket{le="1"} 1`,
		`mercury_bus_shard_batch_frames_bucket{le="8"} 2`,
		`mercury_bus_shard_batch_frames_bucket{le="64"} 2`,
		`mercury_bus_shard_batch_frames_bucket{le="+Inf"} 3`,
		"mercury_bus_shard_batch_frames_sum 109",
		"mercury_bus_shard_batch_frames_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryValueHistogramLargeNumbers pins what the one renderer must
// keep from the former value renderer: a bound renders as the shortest
// float (exponent form from 1e6 up, so the series keeps its le label) while
// the sum of plain values stays an integer at any size.
func TestRegistryValueHistogramLargeNumbers(t *testing.T) {
	r := NewRegistry()
	h := NewValueHistogram(16384, 1e6)
	r.RegisterHistogram("m_bytes", "sizes", h)
	h.ObserveValue(1e6)
	h.ObserveValue(2345678)
	var sb strings.Builder
	if _, err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`m_bytes_bucket{le="16384"} 0` + "\n",
		`m_bytes_bucket{le="1e+06"} 1` + "\n",
		"m_bytes_sum 3345678\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

// TestDurationExposedAsSeconds pins the duration rendering to
// time.Duration.Seconds bit for bit: the /metrics bytes of the latency
// families depend on it, including sums no bound ever takes.
func TestDurationExposedAsSeconds(t *testing.T) {
	h := NewHistogram(time.Second)
	for _, d := range []time.Duration{0, 1, 2500 * time.Microsecond, 3300 * time.Millisecond,
		7230500 * time.Millisecond, 123456789123456789, 1<<63 - 1} {
		if got, want := h.exposed(uint64(d)), d.Seconds(); got != want {
			t.Errorf("exposed(%d) = %v, Seconds = %v", d, got, want)
		}
	}
}
