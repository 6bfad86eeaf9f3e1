package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meter measures one segment of a run from outside the program: wall
// time, process CPU (user+sys, getrusage) and heap allocations
// (runtime.MemStats.Mallocs). Reading MemStats stops the world for a few
// tens of microseconds, so meters open and close only at segment
// boundaries, never per operation.
type meter struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
}

// segment is one closed meter interval over ops operations.
type segment struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	ops     uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{wall: time.Now(), cpu: processCPU(), mallocs: ms.Mallocs}
}

func (m meter) stop(ops uint64) segment {
	wall := time.Since(m.wall)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return segment{wall: wall, cpu: processCPU() - m.cpu, mallocs: ms.Mallocs - m.mallocs, ops: ops}
}

func (s segment) opsPerSec() float64 { return float64(s.ops) / s.wall.Seconds() }
func (s segment) cpuUsPerOp() float64 {
	return float64(s.cpu.Nanoseconds()) / 1e3 / float64(s.ops)
}
func (s segment) allocsPerOp() float64 { return float64(s.mallocs) / float64(s.ops) }

// throughput folds equal back-to-back segments into the three cost
// metrics every workload reports, each the median over segments.
func throughput(r *result, segs []segment) {
	var ops, cpu, allocs []float64
	for _, s := range segs {
		ops = append(ops, s.opsPerSec())
		if s.ops == 0 {
			continue // a segment spent entirely inside an outage has no per-op cost
		}
		cpu = append(cpu, s.cpuUsPerOp())
		allocs = append(allocs, s.allocsPerOp())
	}
	r.set("ops_per_s", "ops/s", ops)
	r.set("cpu_us_per_op", "us", cpu)
	r.set("allocs_per_op", "allocs", allocs)
}

// median returns the middle of xs (mean of the two middles for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so the spreads
// -compare prints match the ones the acceptance procedure computes.
// Fewer than two values have no spread: both quartiles are the value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th cut point of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}

// rssSampler follows the process's resident set while a workload runs and
// keeps the highest reading of every window. peak_rss_mb is the median of
// those window peaks, not VmHWM at exit: VmHWM is the maximum over every
// garbage-collection cycle of the run, and on a shared host one cycle in a
// few thousand overshoots its heap goal by megabytes when the background
// mark worker is descheduled (sim-recovery, 12 MB, read 16–19 MB one run
// in ten). A change that grows the live heap or the working set raises
// every window; one late GC cycle raises one. VmHWM is still reported, as
// the ungated gen.vm_hwm_mb.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // per completed window, MB
}

const (
	rssSampleEvery = 10 * time.Millisecond
	rssWindow      = time.Second
)

// startRSSSampler begins sampling /proc/self/statm from one goroutine. It
// reads through one open descriptor, so a sample costs a pread.
func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		close(s.done)
		return s
	}
	pageMB := float64(os.Getpagesize()) / (1 << 20)
	read := func() float64 {
		var buf [128]byte
		n, _ := f.ReadAt(buf[:], 0)
		fields := strings.Fields(string(buf[:n]))
		if len(fields) < 2 {
			return 0
		}
		pages, _ := strconv.ParseFloat(fields[1], 64)
		return pages * pageMB
	}
	go func() {
		defer close(s.done)
		defer f.Close()
		tick := time.NewTicker(rssSampleEvery)
		defer tick.Stop()
		windowEnd := time.Now().Add(rssWindow)
		var peak float64
		for {
			select {
			case <-s.stop:
				if len(s.peaks) == 0 { // a run shorter than one window
					s.peaks = append(s.peaks, math.Max(peak, read()))
				}
				return
			case now := <-tick.C:
				peak = math.Max(peak, read())
				if !now.Before(windowEnd) {
					s.peaks = append(s.peaks, peak)
					peak, windowEnd = 0, now.Add(rssWindow)
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the window peaks.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.peaks
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
