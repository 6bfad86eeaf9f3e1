package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Hist is a fixed-size log-bucketed latency histogram (the HDR-histogram
// bucketing scheme): durations are classified by their most significant
// bit into octaves, each octave split into histSubBuckets linear
// sub-buckets, so the relative quantization error is bounded by
// 1/histSubBuckets everywhere in the range.
//
// Hist exists because Sample retains every observation for exact
// percentiles — the right trade for a few thousand recovery times, and the
// wrong one for the request plane, where a single campaign records tens of
// millions of latencies. Hist is the streaming complement:
//
//   - Record is zero-allocation (two integer updates into an inline
//     array), so it can sit on the open-loop engine's per-request path
//     without moving the 0 allocs/request floor.
//   - Merge adds bucket counts cell-wise, which is lossless: folding
//     worker-local histograms in seed order yields a histogram
//     bit-identical to a sequential run, the same guarantee the runner
//     gives Sample.
//   - Quantile has bounded relative error (≤ 1/32 ≈ 3.1% with the default
//     geometry), pinned against Sample.Percentile by tests.
//
// The zero value is ready to use. Hist is a value type with an inline
// bucket array: embed it, copy it across channels, return it from trials —
// no pointers, no allocation. Like Sample it is not internally
// synchronized.
type Hist struct {
	count uint64
	sum   int64 // nanoseconds; overflows only past ~292 years of recorded latency
	min   int64 // nanoseconds; valid when count > 0
	max   int64
	// buckets[i] counts observations whose index (see histIndex) is i.
	buckets [histBuckets]uint32
	// overflow counts per-bucket saturations: a uint32 cell that would wrap
	// instead sticks at MaxUint32 and the loss is counted here, so a
	// pathological workload degrades visibly rather than silently.
	overflow uint64
}

const (
	// histSubBits is the number of linear sub-bucket bits per octave:
	// 2^5 = 32 sub-buckets, bounding relative error by 1/32.
	histSubBits = 5
	histSubs    = 1 << histSubBits
	// histBuckets covers every positive int64 nanosecond duration:
	// values below histSubs are exact (one bucket each); each further
	// octave (there are 63-histSubBits of them) adds histSubs buckets.
	histBuckets = histSubs + (63-histSubBits)*histSubs
)

// histIndex maps a non-negative nanosecond value to its bucket.
func histIndex(v int64) int {
	if v < histSubs {
		return int(v) // exact region
	}
	// g is the octave: how far the value's MSB sits above the exact region.
	g := bits.Len64(uint64(v)) - histSubBits - 1
	// Shifting by g brings the value into [histSubs, 2*histSubs); the low
	// histSubBits bits select the linear sub-bucket.
	return g*histSubs + int(v>>uint(g))
}

// histUpper returns the inclusive upper bound of bucket i, the value
// Quantile reports for observations in it (conservative: never under-reports
// a latency, so deadline/SLO checks against quantiles stay sound).
func histUpper(i int) int64 {
	if i < histSubs {
		return int64(i)
	}
	g := i/histSubs - 1
	return (int64(i-g*histSubs)+1)<<uint(g) - 1
}

// Record adds one duration observation. Negative durations clamp to zero
// (a scaled clock can report a tiny negative delta across a restart
// boundary). Zero-allocation and O(1).
func (h *Hist) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.count++
	h.sum += v
	i := histIndex(v)
	if h.buckets[i] == math.MaxUint32 {
		h.overflow++
		return
	}
	h.buckets[i]++
}

// Merge folds o into h by adding bucket counts cell-wise. The merge is
// exact (no re-quantization), associative and commutative, so the runner's
// seed-ordered fold of worker-local histograms is bit-identical to a
// sequential run. Merge does not modify o.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.count == 0 {
		return
	}
	if h.count == 0 {
		h.min, h.max = o.min, o.max
	} else {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	h.count += o.count
	h.sum += o.sum
	h.overflow += o.overflow
	for i := range h.buckets {
		c := uint64(h.buckets[i]) + uint64(o.buckets[i])
		if c > math.MaxUint32 {
			h.overflow += c - math.MaxUint32
			c = math.MaxUint32
		}
		h.buckets[i] = uint32(c)
	}
}

// Count returns the number of recorded observations.
func (h *Hist) Count() uint64 { return h.count }

// Sum returns the sum of all recorded durations.
func (h *Hist) Sum() time.Duration { return time.Duration(h.sum) }

// Mean returns the mean recorded duration (exact: sum/count, not
// reconstructed from buckets).
func (h *Hist) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / int64(h.count))
}

// Min returns the smallest recorded duration (exact).
func (h *Hist) Min() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Max returns the largest recorded duration (exact).
func (h *Hist) Max() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.max)
}

// Quantile returns the q-th quantile (0 < q <= 1) as the upper bound of
// the bucket holding the q·count-th observation, clamped into [Min, Max].
// The relative error versus the exact order statistic is bounded by the
// bucket geometry: ≤ 1/32.
func (h *Hist) Quantile(q float64) (time.Duration, error) {
	if h.count == 0 {
		return 0, ErrNoSamples
	}
	if q <= 0 || q > 1 {
		return 0, fmt.Errorf("metrics: quantile %v out of (0,1]", q)
	}
	// rank is the 1-based index of the target observation under the
	// nearest-rank definition.
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := range h.buckets {
		cum += uint64(h.buckets[i])
		if cum >= rank {
			v := histUpper(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return time.Duration(v), nil
		}
	}
	// Only reachable when saturated cells swallowed observations; report
	// the exact maximum.
	return time.Duration(h.max), nil
}

// Overflow reports how many observations were dropped from bucket counts
// because a 32-bit cell saturated. Zero in any sane workload; non-zero
// means quantiles are computed over a truncated distribution.
func (h *Hist) Overflow() uint64 { return h.overflow }

// Reset returns the histogram to its zero state. Campaigns use it to
// discard warm-up samples before the measured window opens.
func (h *Hist) Reset() { *h = Hist{} }
