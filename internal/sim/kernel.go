// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel owns a virtual clock and a priority queue of scheduled events.
// All simulated activity — component startups, liveness pings, fault
// injection, message delivery — is expressed as events. Running the kernel
// pops events in (time, sequence) order and executes their callbacks, which
// may schedule further events. Two runs with the same seed and the same
// schedule of calls produce identical traces.
//
// The kernel is single-threaded by design: events run one at a time on the
// goroutine that calls Run/Step. This gives the simulation the determinism
// that real concurrent execution cannot, while the actor code driven by the
// kernel remains oblivious (it only sees the clock.Clock interface).
//
// The hot path is allocation-lean: virtual time is an int64 nanosecond
// offset from the start instant (time.Time appears only at the Now/AfterFunc
// API boundary), the priority queue is a hand-rolled 4-ary min-heap of
// inline entries (no container/heap boxing), and fired or stopped events
// recycle their slots through a kernel-owned free list, so the kernel's own
// steady-state stepping performs no heap allocation at all: Schedule with a
// pooled Event costs nothing, and AfterFunc returns its Timer by value (a
// func literal passed to it is the caller's closure allocation). Schedule
// is the only form clock.Clock exposes, so everything a station runs goes
// through it; AfterFunc and Timer.Stop serve the fleet code that drives
// kernels directly.
package sim

import (
	"errors"
	"math/rand"
	"time"
)

// Epoch is the default simulation start time. Any fixed instant works; this
// one is recognisable in traces.
var Epoch = time.Date(2002, time.June, 23, 0, 0, 0, 0, time.UTC)

// ErrDeadlocked is returned by RunUntil when the event queue drains before
// the target time is reached and no further progress is possible.
var ErrDeadlocked = errors.New("sim: event queue empty before target time")

// ErrRunaway is returned when a Run* call exceeds the configured event cap,
// which almost always indicates an accidental self-perpetuating event loop.
var ErrRunaway = errors.New("sim: event cap exceeded (runaway event loop?)")

// Event is a prebound callback scheduled through the Schedule fast path:
// fire-and-forget, no Timer handle, no closure. Callers that need
// allocation-free scheduling implement Event on a (possibly pooled) struct
// carrying their arguments instead of capturing them in a func literal.
type Event interface {
	// Fire runs the event. It is called exactly once, on the kernel's
	// dispatch goroutine, at the event's virtual instant.
	Fire()
}

// slot holds a scheduled event's payload. Slots live in a kernel-owned
// arena and are recycled through a free list once the event fires or is
// stopped; gen increments on every recycle so stale Timer handles (and
// stale heap entries) can detect reuse.
type slot struct {
	fn  func()
	ev  Event
	gen uint32
}

// entry is one priority-queue element: 24 inline bytes, ordered by
// (at, seq). The sequence number breaks ties so same-instant events run in
// schedule order, which keeps the simulation deterministic. gen snapshots
// the slot generation at schedule time; a mismatch at pop time means the
// event was stopped (or its slot already recycled) and the entry is stale.
type entry struct {
	at  int64 // virtual nanoseconds since the kernel's start instant
	seq uint64
	id  int32
	gen uint32
}

// Kernel is a discrete-event simulation kernel. The zero value is not
// usable; construct with New.
type Kernel struct {
	base  time.Time // instant of virtual time zero
	now   int64     // virtual nanoseconds since base
	seq   uint64
	heap  []entry
	slots []slot
	free  []int32
	rng   *rand.Rand

	// pending counts live (scheduled, not stopped, not fired) events so
	// Pending is O(1).
	pending int
	// stale counts stopped events whose entries still sit in the heap
	// (lazy deletion); when they outnumber the live ones the heap is
	// compacted, so arm/stop churn (the failure-detector pattern) cannot
	// grow the queue without bound.
	stale int
	// executed counts events run, for tests and runaway detection.
	executed uint64
	// maxEvents aborts Run loops that exceed this many events (0 = no cap).
	maxEvents uint64

	// first is where heap, slots and free start, in the kernel's own
	// allocation: one simulated station keeps at most 23 events pending
	// (Table-4 grid, every trial), so a kernel running one never grows
	// them. Busier kernels grow past it as before.
	first struct {
		heap  [firstEvents]entry
		slots [firstEvents]slot
		free  [firstEvents]int32
	}
}

// firstEvents is how many pending events a kernel holds before its queue
// leaves the kernel's own allocation.
const firstEvents = 32

// New returns a kernel starting at Epoch whose random source is seeded with
// seed. The same seed yields an identical simulation.
func New(seed int64) *Kernel {
	return NewAt(seed, Epoch)
}

// NewAt returns a kernel starting at the given instant.
func NewAt(seed int64, start time.Time) *Kernel {
	k := &Kernel{
		base: start,
		rng:  rand.New(rand.NewSource(seed)),
	}
	k.heap, k.slots, k.free = k.first.heap[:0], k.first.slots[:0], k.first.free[:0]
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Time { return k.base.Add(time.Duration(k.now)) }

// NowNs returns the current virtual time as nanoseconds since the kernel's
// base instant: the conversion-free form of Now for hot paths that only
// compare or subtract instants.
func (k *Kernel) NowNs() int64 { return k.now }

// Rand returns the kernel's deterministic random source. All simulated
// randomness (failure laws, startup jitter, oracle coin flips) must come
// from here to keep runs reproducible.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Executed reports how many events have run so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// SetMaxEvents caps the number of events a Run* call may execute; exceeding
// the cap makes Run* return ErrRunaway. Zero disables the cap.
func (k *Kernel) SetMaxEvents(n uint64) { k.maxEvents = n }

// Timer is a handle to a scheduled event. Stop cancels the event if it has
// not yet fired. The zero Timer is a valid no-op handle.
type Timer struct {
	k   *Kernel
	id  int32
	gen uint32
}

// Stop cancels the timer. It reports whether the call prevented the event
// from firing. Stopping an already-fired or already-stopped timer — or one
// whose slot has since been recycled for a newer event — is a harmless
// no-op returning false: the generation counter distinguishes this handle's
// event from any later occupant of the same slot.
func (t Timer) Stop() bool {
	if t.k == nil {
		return false
	}
	s := &t.k.slots[t.id]
	if s.gen != t.gen {
		return false
	}
	t.k.recycle(t.id)
	t.k.pending--
	t.k.stale++
	if t.k.stale > 64 && t.k.stale*2 > len(t.k.heap) {
		t.k.compact()
	}
	return true
}

// schedule allocates a slot and pushes a heap entry for it. Exactly one of
// fn and ev is non-nil.
func (k *Kernel) schedule(d time.Duration, fn func(), ev Event) (int32, uint32) {
	if d < 0 {
		d = 0
	}
	var id int32
	if n := len(k.free); n > 0 {
		id = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.slots = append(k.slots, slot{})
		id = int32(len(k.slots) - 1)
	}
	s := &k.slots[id]
	s.fn, s.ev = fn, ev
	k.push(entry{at: k.now + int64(d), seq: k.seq, id: id, gen: s.gen})
	k.seq++
	k.pending++
	return id, s.gen
}

// recycle returns a slot to the free list, invalidating outstanding Timer
// handles and heap entries for it.
func (k *Kernel) recycle(id int32) {
	s := &k.slots[id]
	s.fn, s.ev = nil, nil
	s.gen++
	k.free = append(k.free, id)
}

// AfterFunc schedules fn to run after d of virtual time. A non-positive d
// schedules fn "immediately": it still goes through the queue, preserving
// run-to-completion semantics for the caller. The returned Timer may be used
// to cancel the event.
func (k *Kernel) AfterFunc(d time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: AfterFunc with nil function")
	}
	id, gen := k.schedule(d, fn, nil)
	return Timer{k: k, id: id, gen: gen}
}

// Schedule is the fire-and-forget fast path: ev.Fire runs after d of
// virtual time. No Timer is returned, so a pooled Event costs no allocation
// at all. Events cannot be cancelled; use AfterFunc when Stop is needed.
func (k *Kernel) Schedule(d time.Duration, ev Event) {
	if ev == nil {
		panic("sim: Schedule with nil event")
	}
	k.schedule(d, nil, ev)
}

// Step pops and executes the next event. It reports false when the queue is
// empty (nothing executed).
func (k *Kernel) Step() bool {
	for len(k.heap) > 0 {
		e := k.heap[0]
		k.pop()
		s := &k.slots[e.id]
		if s.gen != e.gen {
			k.stale-- // stopped; slot already recycled
			continue
		}
		fn, ev := s.fn, s.ev
		// Recycle before firing so the callback can schedule new events
		// into the just-freed slot.
		k.recycle(e.id)
		k.pending--
		k.now = e.at
		k.executed++
		if fn != nil {
			fn()
		} else {
			ev.Fire()
		}
		return true
	}
	return false
}

// peek returns the virtual instant of the next runnable event, discarding
// stale (stopped) entries from the top of the heap.
func (k *Kernel) peek() (int64, bool) {
	for len(k.heap) > 0 {
		e := k.heap[0]
		if k.slots[e.id].gen != e.gen {
			k.pop()
			k.stale--
			continue
		}
		return e.at, true
	}
	return 0, false
}

// overBudget reports whether a Run* loop that started at executed==start
// has exhausted the event cap; checked before executing each event so the
// cap is exact (a cap of n allows exactly n events).
func (k *Kernel) overBudget(start uint64) bool {
	return k.maxEvents > 0 && k.executed-start >= k.maxEvents
}

// Run executes events until the queue is empty. It returns ErrRunaway if an
// event cap is configured and exceeded.
func (k *Kernel) Run() error {
	start := k.executed
	for {
		if k.overBudget(start) {
			if _, ok := k.peek(); ok {
				return ErrRunaway
			}
			return nil
		}
		if !k.Step() {
			return nil
		}
	}
}

// RunUntil executes events with timestamps at or before target, then
// advances the clock to target. If the queue drains first the clock still
// advances to target and RunUntil returns nil; use RunWhile if draining
// should be detected.
func (k *Kernel) RunUntil(target time.Time) error {
	return k.runUntil(int64(target.Sub(k.base)))
}

// RunFor executes events for d of virtual time from the current instant.
func (k *Kernel) RunFor(d time.Duration) error {
	return k.runUntil(k.now + int64(d))
}

func (k *Kernel) runUntil(target int64) error {
	start := k.executed
	for {
		at, ok := k.peek()
		if !ok || at > target {
			if target > k.now {
				k.now = target
			}
			return nil
		}
		if k.overBudget(start) {
			return ErrRunaway
		}
		k.Step()
	}
}

// RunWhile executes events until cond reports false (checked after every
// event) or the queue drains. It returns ErrDeadlocked if the queue drained
// while cond was still true, and ErrRunaway on cap overrun.
func (k *Kernel) RunWhile(cond func() bool) error {
	start := k.executed
	for cond() {
		if k.overBudget(start) {
			if _, ok := k.peek(); ok {
				return ErrRunaway
			}
			return ErrDeadlocked
		}
		if !k.Step() {
			return ErrDeadlocked
		}
	}
	return nil
}

// Pending reports the number of scheduled (non-stopped) events. It is O(1):
// the kernel maintains a live-event counter across schedule, Stop and Step.
func (k *Kernel) Pending() int { return k.pending }

// The priority queue is a 4-ary min-heap of inline entries. 4-ary beats
// binary here: sift-down does ~half the levels, and the four children share
// a cache line (4 × 24 B ≈ 1.5 lines) so the extra comparisons are cheap.

func lessEntry(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends e and sifts it up.
func (k *Kernel) push(e entry) {
	h := append(k.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !lessEntry(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	k.heap = h
}

// pop removes the minimum entry (the caller has already read h[0]).
func (k *Kernel) pop() {
	h := k.heap
	n := len(h) - 1
	e := h[n]
	h = h[:n]
	k.heap = h
	if n == 0 {
		return
	}
	h[0] = e
	k.siftDown(0)
}

// siftDown restores heap order below i.
func (k *Kernel) siftDown(i int) {
	h := k.heap
	n := len(h)
	e := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if lessEntry(h[j], h[m]) {
				m = j
			}
		}
		if !lessEntry(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// compact drops stale (stopped) entries and re-heapifies in place. Pop
// order is unaffected: (at, seq) is a total order, so any valid heap
// layout yields the same execution sequence — determinism is preserved.
func (k *Kernel) compact() {
	h := k.heap[:0]
	for _, e := range k.heap {
		if k.slots[e.id].gen == e.gen {
			h = append(h, e)
		}
	}
	k.heap = h
	k.stale = 0
	for i := (len(h) - 2) >> 2; i >= 0; i-- {
		k.siftDown(i)
	}
}
