package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func sec(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

func TestSampleMeanStd(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(sec(v))
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.MeanSeconds(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("mean = %v, want 5", got)
	}
	// population variance of this classic set is 4; sample stddev uses n-1.
	wantStd := math.Sqrt(32.0 / 7.0)
	if got := s.StdDev().Seconds(); math.Abs(got-wantStd) > 1e-9 {
		t.Fatalf("std = %v, want %v", got, wantStd)
	}
	if s.Min() != sec(2) || s.Max() != sec(9) {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSampleSingleton(t *testing.T) {
	var s Sample
	s.Add(3 * time.Second)
	if s.Mean() != 3*time.Second || s.StdDev() != 0 || s.CV() != 0 {
		t.Fatalf("singleton stats wrong: %v %v %v", s.Mean(), s.StdDev(), s.CV())
	}
	p, err := s.Percentile(50)
	if err != nil || p != 3*time.Second {
		t.Fatalf("P50 = %v, %v", p, err)
	}
}

func TestPercentile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(sec(float64(i)))
	}
	p50, err := s.Percentile(50)
	if err != nil {
		t.Fatalf("P50: %v", err)
	}
	if math.Abs(p50.Seconds()-50.5) > 1e-9 {
		t.Fatalf("P50 = %v, want 50.5s", p50)
	}
	p100, _ := s.Percentile(100)
	if p100 != sec(100) {
		t.Fatalf("P100 = %v", p100)
	}
	if _, err := s.Percentile(0); err == nil {
		t.Fatal("P0 accepted")
	}
	if _, err := s.Percentile(101); err == nil {
		t.Fatal("P101 accepted")
	}
	var empty Sample
	if _, err := empty.Percentile(50); err != ErrNoSamples {
		t.Fatalf("empty percentile err = %v", err)
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	var empty Sample
	if _, err := empty.Percentile(50); err != ErrNoSamples {
		t.Fatalf("n=0 err = %v", err)
	}
	var one Sample
	one.Add(7 * time.Second)
	for _, p := range []float64{1, 50, 100} {
		if got, err := one.Percentile(p); err != nil || got != 7*time.Second {
			t.Fatalf("n=1 P%v = %v, %v", p, got, err)
		}
	}
	var s Sample
	s.Add(sec(1))
	s.Add(sec(3))
	// Interpolation between ranks: P50 of {1,3} is the midpoint.
	if got, _ := s.Percentile(50); got != sec(2) {
		t.Fatalf("P50 = %v, want 2s", got)
	}
	if got, _ := s.Percentile(75); got != sec(2.5) {
		t.Fatalf("P75 = %v, want 2.5s", got)
	}
	if got, _ := s.Percentile(100); got != sec(3) {
		t.Fatalf("P100 = %v, want max", got)
	}
}

func TestPercentileCacheInvalidation(t *testing.T) {
	var s Sample
	s.Add(sec(10))
	s.Add(sec(20))
	if got, _ := s.Percentile(100); got != sec(20) {
		t.Fatalf("P100 = %v", got)
	}
	// Add after a Percentile call must invalidate the cached view.
	s.Add(sec(30))
	if got, _ := s.Percentile(100); got != sec(30) {
		t.Fatalf("P100 after Add = %v, want 30s", got)
	}
	// Merge must invalidate it too.
	var o Sample
	o.Add(sec(40))
	s.Merge(&o)
	if got, _ := s.Percentile(100); got != sec(40) {
		t.Fatalf("P100 after Merge = %v, want 40s", got)
	}
	// Repeated calls on a settled sample reuse the cache and stay exact.
	p1, _ := s.Percentile(50)
	p2, _ := s.Percentile(50)
	if p1 != p2 {
		t.Fatalf("cached P50 unstable: %v vs %v", p1, p2)
	}
}

func TestMergeMatchesSequentialAdd(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9, 1.5, 12.25, 0.75}
	var whole Sample
	for _, v := range vals {
		whole.Add(sec(v))
	}
	var a, b Sample
	for _, v := range vals[:5] {
		a.Add(sec(v))
	}
	for _, v := range vals[5:] {
		b.Add(sec(v))
	}
	a.Merge(&b)
	if a.N() != whole.N() {
		t.Fatalf("N = %d, want %d", a.N(), whole.N())
	}
	if math.Abs(a.MeanSeconds()-whole.MeanSeconds()) > 1e-12 {
		t.Fatalf("mean = %v, want %v", a.MeanSeconds(), whole.MeanSeconds())
	}
	if math.Abs(a.StdDev().Seconds()-whole.StdDev().Seconds()) > 1e-9 {
		t.Fatalf("std = %v, want %v", a.StdDev(), whole.StdDev())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("min/max = %v/%v, want %v/%v", a.Min(), a.Max(), whole.Min(), whole.Max())
	}
	pa, _ := a.Percentile(90)
	pw, _ := whole.Percentile(90)
	if pa != pw {
		t.Fatalf("P90 = %v, want %v", pa, pw)
	}
	// b is untouched by the merge.
	if b.N() != len(vals[5:]) {
		t.Fatalf("merge mutated the argument: N = %d", b.N())
	}
}

func TestMergeEmptyCases(t *testing.T) {
	var s Sample
	s.Merge(nil)
	s.Merge(&Sample{})
	if s.N() != 0 {
		t.Fatalf("empty merges changed N to %d", s.N())
	}
	var o Sample
	o.Add(sec(3))
	o.Add(sec(5))
	s.Merge(&o) // empty receiver copies the argument
	if s.N() != 2 || s.Min() != sec(3) || s.Max() != sec(5) {
		t.Fatalf("copy merge: N=%d min=%v max=%v", s.N(), s.Min(), s.Max())
	}
	// The copy is deep: growing s must not disturb o's buffer.
	s.Add(sec(100))
	if o.N() != 2 {
		t.Fatalf("merge aliased the argument buffer")
	}
	if p, _ := o.Percentile(100); p != sec(5) {
		t.Fatalf("argument P100 = %v after receiver Add", p)
	}
}

// TestConcurrentMerge exercises Merge from many goroutines under -race:
// workers accumulate locally and combine into a shared sample under a
// mutex (Sample itself is documented as not internally synchronized).
func TestConcurrentMerge(t *testing.T) {
	const workers, perWorker = 8, 250
	var (
		mu     sync.Mutex
		merged Sample
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local Sample
			for i := 0; i < perWorker; i++ {
				local.Add(time.Duration(w*perWorker+i) * time.Millisecond)
			}
			mu.Lock()
			merged.Merge(&local)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	n := workers * perWorker
	if merged.N() != n {
		t.Fatalf("N = %d, want %d", merged.N(), n)
	}
	// Values are 0..n-1 ms regardless of merge order.
	wantMean := float64(n-1) / 2 / 1000
	if math.Abs(merged.MeanSeconds()-wantMean) > 1e-9 {
		t.Fatalf("mean = %v, want %v", merged.MeanSeconds(), wantMean)
	}
	if merged.Min() != 0 || merged.Max() != time.Duration(n-1)*time.Millisecond {
		t.Fatalf("min/max = %v/%v", merged.Min(), merged.Max())
	}
}

func TestCV(t *testing.T) {
	var s Sample
	for i := 0; i < 50; i++ {
		s.Add(10 * time.Second)
	}
	if cv := s.CV(); cv != 0 {
		t.Fatalf("constant sample CV = %v, want 0", cv)
	}
}

func TestAvailability(t *testing.T) {
	tests := []struct {
		mttf, mttr time.Duration
		want       float64
	}{
		{99 * time.Second, 1 * time.Second, 0.99},
		{time.Hour, 0, 1.0},
		{0, time.Second, 0},
		{time.Hour, -time.Second, 1.0},
	}
	for _, tt := range tests {
		if got := Availability(tt.mttf, tt.mttr); math.Abs(got-tt.want) > 1e-9 {
			t.Fatalf("Availability(%v,%v) = %v, want %v", tt.mttf, tt.mttr, got, tt.want)
		}
	}
}

func TestWeightedMTTR(t *testing.T) {
	mttf := map[string]time.Duration{
		"fast-failer": 10 * time.Minute,
		"slow-failer": 1000 * time.Minute,
	}
	mttr := map[string]time.Duration{
		"fast-failer": 5 * time.Second,
		"slow-failer": 500 * time.Second,
	}
	got, err := WeightedMTTR(mttf, mttr)
	if err != nil {
		t.Fatalf("WeightedMTTR: %v", err)
	}
	// rates 0.1 and 0.001 per minute; weighted = (0.1*5+0.001*500)/0.101
	want := (0.1*5 + 0.001*500) / 0.101
	if math.Abs(got.Seconds()-want) > 1e-6 {
		t.Fatalf("WeightedMTTR = %v, want %vs", got, want)
	}
}

func TestWeightedMTTRErrors(t *testing.T) {
	if _, err := WeightedMTTR(map[string]time.Duration{"a": time.Hour}, map[string]time.Duration{}); err == nil {
		t.Fatal("missing MTTR accepted")
	}
	if _, err := WeightedMTTR(map[string]time.Duration{"a": 0}, map[string]time.Duration{"a": time.Second}); err == nil {
		t.Fatal("zero MTTF accepted")
	}
	if _, err := WeightedMTTR(nil, nil); err != ErrNoSamples {
		t.Fatal("empty maps should be ErrNoSamples")
	}
}

func TestGroupBounds(t *testing.T) {
	mttfs := []time.Duration{time.Hour, 10 * time.Minute, 5 * time.Hour}
	f, err := GroupMTTFBound(mttfs)
	if err != nil || f != 10*time.Minute {
		t.Fatalf("GroupMTTFBound = %v, %v", f, err)
	}
	mttrs := []time.Duration{5 * time.Second, 21 * time.Second, 6 * time.Second}
	r, err := GroupMTTRBound(mttrs)
	if err != nil || r != 21*time.Second {
		t.Fatalf("GroupMTTRBound = %v, %v", r, err)
	}
	if _, err := GroupMTTFBound(nil); err != ErrNoSamples {
		t.Fatal("empty MTTF bound should error")
	}
	if _, err := GroupMTTRBound(nil); err != ErrNoSamples {
		t.Fatal("empty MTTR bound should error")
	}
}

// Property: mean is always within [min, max] and CV is non-negative.
func TestPropertySampleInvariants(t *testing.T) {
	f := func(ms []uint16) bool {
		if len(ms) == 0 {
			return true
		}
		var s Sample
		for _, m := range ms {
			s.Add(time.Duration(m) * time.Millisecond)
		}
		mean := s.MeanSeconds()
		return mean >= s.Min().Seconds()-1e-9 &&
			mean <= s.Max().Seconds()+1e-9 &&
			s.CV() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: weighted MTTR lies between the min and max component MTTR.
func TestPropertyWeightedMTTRBounds(t *testing.T) {
	f := func(r1, r2, r3 uint16) bool {
		mttf := map[string]time.Duration{
			"a": 10 * time.Minute, "b": time.Hour, "c": 5 * time.Hour,
		}
		mttr := map[string]time.Duration{
			"a": time.Duration(r1+1) * time.Millisecond,
			"b": time.Duration(r2+1) * time.Millisecond,
			"c": time.Duration(r3+1) * time.Millisecond,
		}
		w, err := WeightedMTTR(mttf, mttr)
		if err != nil {
			return false
		}
		min, max := mttr["a"], mttr["a"]
		for _, d := range mttr {
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		return w >= min-time.Microsecond && w <= max+time.Microsecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
