package metrics

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestHistIndexMonotoneAndBounded(t *testing.T) {
	// Every bucket boundary must map inside the array, and the index must
	// be non-decreasing in the value (otherwise quantiles are nonsense).
	prev := -1
	for v := int64(0); v < 4096; v++ {
		i := histIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of [0,%d)", v, i, histBuckets)
		}
		if i < prev {
			t.Fatalf("histIndex not monotone at %d: %d < %d", v, i, prev)
		}
		prev = i
	}
	// Spot-check the extremes of the representable range.
	for _, v := range []int64{math.MaxInt64, math.MaxInt64 - 1, 1 << 62, (1 << 62) - 1} {
		i := histIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of [0,%d)", v, i, histBuckets)
		}
	}
	if got := histIndex(math.MaxInt64); got != histBuckets-1 {
		t.Fatalf("histIndex(MaxInt64) = %d, want top bucket %d", got, histBuckets-1)
	}
}

func TestHistUpperBoundsBucket(t *testing.T) {
	// histUpper(i) must be the largest value mapping to bucket i: the value
	// itself lands in i, value+1 lands in i+1.
	for i := 0; i < histBuckets; i++ {
		u := histUpper(i)
		if got := histIndex(u); got != i {
			t.Fatalf("histIndex(histUpper(%d)=%d) = %d", i, u, got)
		}
		if u < math.MaxInt64 {
			if got := histIndex(u + 1); got != i+1 {
				t.Fatalf("histIndex(histUpper(%d)+1) = %d, want %d", i, got, i+1)
			}
		}
	}
}

// TestHistQuantileErrorBound drives random latency data through both Hist
// and the exact Sample and checks the histogram's quantiles stay within
// the bucket geometry's relative error bound of the exact order statistic.
func TestHistQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 4; trial++ {
		var h Hist
		var s Sample
		// Log-normal-ish latencies spanning microseconds to seconds — the
		// shape a request plane actually produces (tight body, long tail).
		n := 20000
		for i := 0; i < n; i++ {
			v := time.Duration(math.Exp(rng.NormFloat64()*1.5+12)) * time.Nanosecond
			h.Record(v)
			s.Add(v)
		}
		for _, q := range []float64{0.50, 0.90, 0.99, 0.999} {
			hq, err := h.Quantile(q)
			if err != nil {
				t.Fatalf("Quantile(%v): %v", q, err)
			}
			sq, err := s.Percentile(q * 100)
			if err != nil {
				t.Fatalf("Percentile(%v): %v", q*100, err)
			}
			// The hist is quantized to 1/32 relative width and uses
			// nearest-rank while Sample interpolates; allow 2 bucket widths.
			tol := float64(sq) / 16
			if diff := math.Abs(float64(hq - sq)); diff > tol {
				t.Errorf("trial %d q=%v: hist %v vs exact %v (diff %v > tol %v)",
					trial, q, hq, sq, time.Duration(diff), time.Duration(tol))
			}
		}
	}
}

// TestHistMergeExact checks that merging partial histograms is lossless:
// any split of a recording stream merges back to the identical histogram,
// in any association or order. This is what lets the runner fold
// worker-local histograms in seed order and stay bit-identical to a
// sequential run. (The fold-under-runner integration lives in
// hist_runner_test.go to avoid the import cycle with internal/runner.)
func TestHistMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]time.Duration, 9999)
	for i := range vals {
		vals[i] = time.Duration(rng.Int63n(int64(5 * time.Second)))
	}

	var whole Hist
	for _, v := range vals {
		whole.Record(v)
	}

	// Split into three unequal parts.
	var a, b, c Hist
	for i, v := range vals {
		switch {
		case i < 1000:
			a.Record(v)
		case i < 5000:
			b.Record(v)
		default:
			c.Record(v)
		}
	}

	merge := func(hs ...*Hist) Hist {
		var out Hist
		for _, h := range hs {
			out.Merge(h)
		}
		return out
	}

	// Associativity: (a+b)+c == a+(b+c).
	ab := merge(&a, &b)
	abc1 := merge(&ab, &c)
	bc := merge(&b, &c)
	abc2 := merge(&a, &bc)
	if abc1 != abc2 {
		t.Fatal("merge not associative")
	}
	// Commutativity: c+b+a == a+b+c.
	abc3 := merge(&c, &b, &a)
	if abc1 != abc3 {
		t.Fatal("merge not commutative")
	}
	// Losslessness: merged parts == whole-stream recording.
	if abc1 != whole {
		t.Fatal("merged parts differ from whole-stream histogram")
	}
	// Merging must not modify the source.
	var b2 Hist
	for i, v := range vals {
		if i >= 1000 && i < 5000 {
			b2.Record(v)
		}
	}
	if b != b2 {
		t.Fatal("Merge modified its argument")
	}
}

func TestHistEmptyAndBasicStats(t *testing.T) {
	var h Hist
	if _, err := h.Quantile(0.5); err != ErrNoSamples {
		t.Fatalf("empty Quantile err = %v, want ErrNoSamples", err)
	}
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty hist stats not zero")
	}
	h.Record(10 * time.Millisecond)
	h.Record(30 * time.Millisecond)
	h.Record(-5 * time.Millisecond) // clamps to 0
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 0 {
		t.Fatalf("min = %v, want 0 (negative clamp)", h.Min())
	}
	if h.Max() != 30*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	if h.Sum() != 40*time.Millisecond {
		t.Fatalf("sum = %v", h.Sum())
	}
	if _, err := h.Quantile(0); err == nil {
		t.Fatal("Quantile(0) must error")
	}
	if _, err := h.Quantile(1.5); err == nil {
		t.Fatal("Quantile(1.5) must error")
	}
	// q=1 is the max bucket, clamped to the exact max.
	q1, err := h.Quantile(1)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != 30*time.Millisecond {
		t.Fatalf("Quantile(1) = %v, want exact max", q1)
	}
}

// TestHistRecordAllocs pins the zero-allocation contract: Record and
// Quantile sit on the request plane's steady-state path.
func TestHistRecordAllocs(t *testing.T) {
	var h Hist
	d := 3 * time.Millisecond
	if avg := testing.AllocsPerRun(1000, func() {
		h.Record(d)
	}); avg != 0 {
		t.Fatalf("Record allocates %v/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := h.Quantile(0.99); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Quantile allocates %v/op, want 0", avg)
	}
	var o Hist
	o.Record(d)
	if avg := testing.AllocsPerRun(100, func() {
		h.Merge(&o)
	}); avg != 0 {
		t.Fatalf("Merge allocates %v/op, want 0", avg)
	}
}

func BenchmarkHistRecord(b *testing.B) {
	var h Hist
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
}
