// Package clock abstracts time so that the ground-station components, the
// failure detector and the recoverer run identically under the
// discrete-event simulator (virtual time, deterministic) and under the
// live runtimes (compressed wall-clock time, rt.Clock).
package clock

import (
	"math"
	"math/rand"
	"time"

	"github.com/recursive-restart/mercury/internal/sim"
)

// Event is a prebound, fire-and-forget callback for the Schedule fast path
// (an alias of the kernel's event type so both layers share one contract).
type Event = sim.Event

// Clock is the time facility given to every actor in the system.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Schedule runs ev.Fire after d on the runtime's dispatch context;
	// actors must not block inside it. There is no handle and no Stop: a
	// component's pending work dies with its incarnation, so a periodic
	// task is an event that re-arms itself and checks its owner's state
	// when it fires. A pooled Event costs zero allocations under the
	// simulation kernel, and under rt.Clock, which queues it on the
	// dispatcher's timer heap.
	Schedule(d time.Duration, ev Event)
}

// Sim adapts a simulation kernel to the Clock interface.
type Sim struct {
	K *sim.Kernel
}

var _ Clock = Sim{}

// Now returns the kernel's virtual time.
func (s Sim) Now() time.Time { return s.K.Now() }

// Schedule forwards to the kernel's zero-allocation fast path.
func (s Sim) Schedule(d time.Duration, ev Event) { s.K.Schedule(d, ev) }

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
