package obs

import (
	"sync/atomic"
	"time"
)

// Histogram is the one concurrent distribution instrument: fixed buckets
// over non-negative integral observations in a native unit — nanoseconds
// for the latency ladders (NewHistogram, exposed as seconds), plain numbers
// for sizes and counts (NewValueHistogram). Bucket upper bounds are chosen
// at construction and never change, so observing is a short linear scan
// plus two atomic adds — no allocation, no locking, no dynamic resizing —
// and the exposition is the standard Prometheus cumulative form
// (_bucket{le=...}, _sum, _count).
//
// Fixed buckets are a deliberate trade: Mercury's interesting durations
// (ping RTTs, failure detection, component restarts, whole recoveries)
// span roughly 1 ms to 1 min and their decision thresholds are known in
// advance (ping timeout 200 ms, ping period 1 s, restarts 2-30 s), so a
// static exponential ladder captures every regime; a quantile sketch
// would buy precision nobody reads at the cost of allocation and locking
// on the observe path.
type Histogram struct {
	bounds []uint64        // ascending upper bounds; an implicit +Inf follows
	counts []atomic.Uint64 // len(bounds)+1; last cell is the +Inf overflow
	sum    atomic.Uint64   // total observed, native units
	unit   uint64          // native units per exposed unit: 1e9 (ns as seconds) or 1
}

// DefBuckets returns the default duration ladder: 1 ms to 60 s in a
// 1-2.5-5 progression, bracketing every calibrated threshold in the
// system (200 ms ping timeout, 1 s ping period, 2-21 s component
// startups, ~5-25 s recoveries).
func DefBuckets() []time.Duration {
	return []time.Duration{
		time.Millisecond,
		2500 * time.Microsecond,
		5 * time.Millisecond,
		10 * time.Millisecond,
		25 * time.Millisecond,
		50 * time.Millisecond,
		100 * time.Millisecond,
		250 * time.Millisecond,
		500 * time.Millisecond,
		time.Second,
		2500 * time.Millisecond,
		5 * time.Second,
		10 * time.Second,
		25 * time.Second,
		time.Minute,
	}
}

// NewHistogram builds a duration histogram, exposed in seconds, with the
// given ascending bucket upper bounds. Bounds are inclusive ("le"
// semantics): an observation equal to a bound lands in that bound's
// bucket. It panics on empty or unsorted bounds — histogram construction
// is programmer-controlled setup, not runtime input.
func NewHistogram(bounds ...time.Duration) *Histogram {
	native := make([]uint64, len(bounds))
	for i, b := range bounds {
		native[i] = uint64(b)
	}
	return newHistogram(uint64(time.Second), native)
}

// NewValueHistogram builds a histogram over plain numbers (frames per
// batched write, value sizes), exposed as they are; bounds as NewHistogram.
func NewValueHistogram(bounds ...uint64) *Histogram {
	return newHistogram(1, append([]uint64(nil), bounds...))
}

func newHistogram(unit uint64, bounds []uint64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1), unit: unit}
}

// Observe records one duration. Zero-allocation and safe for concurrent
// use; negative durations are clamped to zero (a scaled clock can report
// a tiny negative delta across a restart boundary).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.ObserveValue(uint64(d))
}

// ObserveValue records one observation in the histogram's native unit (a
// batch's frame count, a value's size). Zero-allocation and safe for
// concurrent use.
func (h *Histogram) ObserveValue(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	return h.Cumulative(len(h.bounds))
}

// Sum returns the sum of all observations in the native unit (nanoseconds
// for a duration histogram).
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Cumulative returns the number of observations less than or equal to the
// i-th bound; i == len(bounds) returns the total (the +Inf bucket).
func (h *Histogram) Cumulative(i int) uint64 {
	var total uint64
	for j := 0; j <= i && j < len(h.counts); j++ {
		total += h.counts[j].Load()
	}
	return total
}

// exposed converts native units to the exposed unit. For unit 1e9 this is
// time.Duration.Seconds' arithmetic, so a duration renders as it always has.
func (h *Histogram) exposed(v uint64) float64 {
	return float64(v/h.unit) + float64(v%h.unit)/float64(h.unit)
}
