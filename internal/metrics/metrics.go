// Package metrics provides the statistical machinery the paper's
// evaluation rests on: MTTR/MTTF estimation from samples, coefficient of
// variation (the paper assumes failure/recovery time distributions with
// small CVs), percentiles and availability arithmetic.
package metrics

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// ErrNoSamples is returned when a statistic is requested from an empty
// sample set.
var ErrNoSamples = errors.New("metrics: no samples")

// Sample accumulates duration observations using Welford's online
// algorithm, so means and variances are numerically stable regardless of
// sample count. The zero value is ready to use.
type Sample struct {
	n    int
	mean float64 // seconds
	m2   float64
	min  float64
	max  float64
	all  []float64 // retained for percentiles
	// sorted caches the ascending view of all; nil means stale. Rebuilt
	// lazily by Percentile, invalidated by Add and Merge.
	sorted []float64
}

// Add records one observation.
func (s *Sample) Add(d time.Duration) {
	x := d.Seconds()
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
	s.all = append(s.all, x)
	s.sorted = nil
}

// Merge folds another sample into s using the parallel Welford combine of
// Chan, Golub & LeVeque, so worker-local accumulators can be joined
// without revisiting observations. The observation buffers are
// concatenated (percentiles stay exact) and min/max are combined. Merge
// does not modify o. Sample is not internally synchronized: concurrent
// Merge calls into the same receiver need external locking.
func (s *Sample) Merge(o *Sample) {
	if o == nil || o.n == 0 {
		return
	}
	if s.n == 0 {
		s.n, s.mean, s.m2, s.min, s.max = o.n, o.mean, o.m2, o.min, o.max
		s.all = append([]float64(nil), o.all...)
		s.sorted = nil
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	s.mean += delta * float64(o.n) / float64(n)
	s.m2 += o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n = n
	s.all = append(s.all, o.all...)
	s.sorted = nil
}

// N reports the number of observations.
func (s *Sample) N() int { return s.n }

// Mean returns the sample mean.
func (s *Sample) Mean() time.Duration {
	return time.Duration(s.mean * float64(time.Second))
}

// MeanSeconds returns the sample mean in seconds.
func (s *Sample) MeanSeconds() float64 { return s.mean }

// StdDev returns the sample standard deviation (n-1 denominator).
func (s *Sample) StdDev() time.Duration {
	if s.n < 2 {
		return 0
	}
	return time.Duration(math.Sqrt(s.m2/float64(s.n-1)) * float64(time.Second))
}

// CV returns the coefficient of variation (stddev/mean). The paper's
// restart-tree reasoning assumes distributions with small CVs; experiments
// assert this on their own measurements.
func (s *Sample) CV() float64 {
	if s.n < 2 || s.mean == 0 {
		return 0
	}
	return math.Sqrt(s.m2/float64(s.n-1)) / s.mean
}

// Min returns the smallest observation.
func (s *Sample) Min() time.Duration {
	return time.Duration(s.min * float64(time.Second))
}

// Max returns the largest observation.
func (s *Sample) Max() time.Duration {
	return time.Duration(s.max * float64(time.Second))
}

// Percentile returns the p-th percentile (0 < p <= 100) using linear
// interpolation between closest ranks. The sorted view is cached across
// calls and invalidated by Add/Merge, so percentile sweeps over a settled
// sample sort once instead of once per call.
func (s *Sample) Percentile(p float64) (time.Duration, error) {
	if s.n == 0 {
		return 0, ErrNoSamples
	}
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("metrics: percentile %v out of (0,100]", p)
	}
	if s.sorted == nil {
		s.sorted = make([]float64, len(s.all))
		copy(s.sorted, s.all)
		sort.Float64s(s.sorted)
	}
	sorted := s.sorted
	if len(sorted) == 1 {
		return time.Duration(sorted[0] * float64(time.Second)), nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	frac := rank - float64(lo)
	v := sorted[lo]*(1-frac) + sorted[hi]*frac
	return time.Duration(v * float64(time.Second)), nil
}

// MarshalJSON renders the sample as its summary in seconds, never the raw
// observations: this is the one form a Sample takes in a machine-readable
// report. An empty sample is all zeros. The receiver is a value so that
// Sample fields encode the same whether or not they are addressable; the
// keys are in sorted order, the order a decode-and-re-encode produces.
func (s Sample) MarshalJSON() ([]byte, error) {
	p95, _ := s.Percentile(95) // only fails on an empty sample: zero, like the rest
	return json.Marshal(struct {
		MaxS    float64 `json:"max_s"`
		MeanS   float64 `json:"mean_s"`
		MinS    float64 `json:"min_s"`
		N       int     `json:"n"`
		P95S    float64 `json:"p95_s"`
		StdDevS float64 `json:"stddev_s"`
	}{s.Max().Seconds(), s.MeanSeconds(), s.Min().Seconds(), s.n, p95.Seconds(), s.StdDev().Seconds()})
}

// Availability computes MTTF/(MTTF+MTTR), the standard ratio the paper
// optimises by driving MTTR down.
func Availability(mttf, mttr time.Duration) float64 {
	if mttf <= 0 {
		return 0
	}
	if mttr < 0 {
		mttr = 0
	}
	return mttf.Seconds() / (mttf.Seconds() + mttr.Seconds())
}

// WeightedMTTR computes a system-level mean time to recover where each
// component's recovery time is weighted by its failure rate (1/MTTF): the
// components that fail most often dominate, exactly the arithmetic behind
// the paper's "factor of four" headline.
func WeightedMTTR(mttf map[string]time.Duration, mttr map[string]time.Duration) (time.Duration, error) {
	var sumRate, sumWeighted float64
	for name, f := range mttf {
		r, ok := mttr[name]
		if !ok {
			return 0, fmt.Errorf("metrics: no MTTR for component %q", name)
		}
		if f <= 0 {
			return 0, fmt.Errorf("metrics: non-positive MTTF for component %q", name)
		}
		rate := 1 / f.Seconds()
		sumRate += rate
		sumWeighted += rate * r.Seconds()
	}
	if sumRate == 0 {
		return 0, ErrNoSamples
	}
	return time.Duration(sumWeighted / sumRate * float64(time.Second)), nil
}

// GroupMTTFBound returns the paper's restart-group MTTF upper bound
// min(MTTF_ci) over the member components.
func GroupMTTFBound(mttfs []time.Duration) (time.Duration, error) {
	if len(mttfs) == 0 {
		return 0, ErrNoSamples
	}
	min := mttfs[0]
	for _, d := range mttfs[1:] {
		if d < min {
			min = d
		}
	}
	return min, nil
}

// GroupMTTRBound returns the paper's restart-group MTTR lower bound
// max(MTTR_ci) over the member components.
func GroupMTTRBound(mttrs []time.Duration) (time.Duration, error) {
	if len(mttrs) == 0 {
		return 0, ErrNoSamples
	}
	max := mttrs[0]
	for _, d := range mttrs[1:] {
		if d > max {
			max = d
		}
	}
	return max, nil
}
