// Package clock abstracts time so that the ground-station components, the
// failure detector and the recoverer run identically under the
// discrete-event simulator (virtual time, deterministic) and under the
// live runtimes (compressed wall-clock time, rt.Clock).
package clock

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/recursive-restart/mercury/internal/sim"
)

// Timer is a handle to a scheduled callback.
type Timer interface {
	// Stop cancels the callback if it has not fired yet and reports whether
	// it prevented the callback from running.
	Stop() bool
}

// Event is a prebound, fire-and-forget callback for the Schedule fast path
// (an alias of the kernel's event type so both layers share one contract).
type Event = sim.Event

// Clock is the time facility given to every actor in the system.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// AfterFunc schedules fn to run after d. fn runs on the runtime's
	// dispatch context; actors must not block inside it. The returned
	// handle is an interface value, so every call allocates at least the
	// boxed timer (plus fn, if it is a fresh closure): use it for timers
	// that may need Stop, and Schedule for everything per-event.
	AfterFunc(d time.Duration, fn func()) Timer
	// Schedule runs ev.Fire after d on the same dispatch context. It is
	// the allocation-lean path for high-volume fire-and-forget work (bus
	// hops, handler timers): no Timer handle, no closure. A pooled Event
	// costs zero allocations under the simulation kernel, and under
	// rt.Clock, which queues it on the dispatcher's timer heap.
	Schedule(d time.Duration, ev Event)
}

// Sim adapts a simulation kernel to the Clock interface.
type Sim struct {
	K *sim.Kernel
}

var _ Clock = Sim{}

// Now returns the kernel's virtual time.
func (s Sim) Now() time.Time { return s.K.Now() }

// AfterFunc schedules fn on the kernel's event queue. Boxing the kernel's
// by-value Timer into the interface is one allocation per call.
func (s Sim) AfterFunc(d time.Duration, fn func()) Timer {
	return s.K.AfterFunc(d, fn)
}

// Schedule forwards to the kernel's zero-allocation fast path.
func (s Sim) Schedule(d time.Duration, ev Event) { s.K.Schedule(d, ev) }

// Ticker repeatedly invokes fn every period until stopped. It is built on
// Clock.AfterFunc so it works under both runtimes.
type Ticker struct {
	mu      sync.Mutex
	clk     Clock
	period  time.Duration
	fn      func()
	tickFn  func() // t.tick bound once, so re-arming allocates no closure
	timer   Timer
	stopped bool
}

// NewTicker starts a ticker that calls fn every period. The first call
// happens one period from now.
func NewTicker(clk Clock, period time.Duration, fn func()) *Ticker {
	t := &Ticker{clk: clk, period: period, fn: fn}
	t.tickFn = t.tick
	// Under a wall clock the first tick can fire, and re-arm, before arm
	// has stored the timer it was handed.
	t.mu.Lock()
	t.arm()
	t.mu.Unlock()
	return t
}

func (t *Ticker) arm() {
	t.timer = t.clk.AfterFunc(t.period, t.tickFn)
}

func (t *Ticker) tick() {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return
	}
	t.arm()
	fn := t.fn
	t.mu.Unlock()
	fn()
}

// Stop halts the ticker. It is safe to call more than once.
func (t *Ticker) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return
	}
	t.stopped = true
	if t.timer != nil {
		t.timer.Stop()
	}
}

// Jitter returns d multiplied by a factor drawn uniformly from
// [1-frac, 1+frac]. It is used to de-synchronise periodic activity.
func Jitter(rng *rand.Rand, d time.Duration, frac float64) time.Duration {
	if frac <= 0 {
		return d
	}
	f := 1 + frac*(2*rng.Float64()-1)
	return time.Duration(float64(d) * f)
}

// Backoff is the doubling wait before retry n: none for n <= 0 (or a
// non-positive first), then first·2^(n-1), capped at limit when limit is
// positive. However large n grows, it does not overflow.
func Backoff(n int, first, limit time.Duration) time.Duration {
	if n <= 0 || first <= 0 {
		return 0
	}
	if limit <= 0 {
		limit = math.MaxInt64
	}
	d := first
	for ; n > 1; n-- {
		if d > limit/2 {
			return limit
		}
		d *= 2
	}
	return min(d, limit)
}
