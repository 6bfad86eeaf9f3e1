// Package rt is the real-time runtime: it hosts the same component
// handlers the simulator runs (station components, FD, REC) on wall-clock
// time with the real TCP message bus. All actor activity is serialised
// through a single dispatcher goroutine, giving handlers the same
// single-threaded execution model the simulation kernel provides, so one
// component codebase serves both runtimes.
//
// An optional time-scale factor compresses the calibrated "paper seconds"
// (a 21 s pbcom restart) into a live demo that takes a tenth of the time.
package rt

import (
	"sync"
	"time"

	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// Dispatcher serialises all actor work onto one goroutine. Work arrives as
// typed posts — a function, an inbound bus message, a timer wake-up — on one
// bounded queue the loop drains a batch at a time: it swaps the whole queue
// out under the lock and runs it in arrival order, so a burst of n posts
// costs the loop one lock round trip, not n, and a message is posted
// without a closure.
//
// Clock timers share one runtime timer. They wait in a min-heap ordered by
// (deadline, schedule order), and the runtime timer, armed for the heap's
// head, posts a wake-up stamped with the instant it was enqueued. The loop
// fires the timers due by that stamp, not by the time it gets round to the
// wake-up: a message enqueued before a timer's instant — a pong queued
// ahead of its ping timeout — is delivered before the timer fires, even
// when the loop is running behind.
type Dispatcher struct {
	mu       sync.Mutex
	notEmpty *sync.Cond // the loop waits here for work
	notFull  *sync.Cond // producers wait here for room
	queue    []post
	stopped  bool
	deliver  func(*xmlcmd.Message) bool

	// The timer queue. Deadlines are monotonic offsets from base; the
	// runtime timer wake is armed for armedAt while armed is set.
	base    time.Time
	timers  []timerEntry
	seq     uint64
	wake    *time.Timer
	armed   bool
	armedAt time.Duration

	quit chan struct{} // closed by Stop: releases Call
	done chan struct{} // closed when the loop has exited
}

// post is one unit of dispatcher work: a message, a wake-up, or else fn.
type post struct {
	fn   func()
	m    *xmlcmd.Message
	wake bool
	due  time.Duration // a wake-up's enqueue instant: the timers due by it fire
}

// timerEntry is one pending clock event; seq orders equal deadlines by
// when they were scheduled.
type timerEntry struct {
	at  time.Duration
	seq uint64
	ev  clock.Event
}

// queueCap bounds the posts waiting for the loop. Producers — bus read
// loops, the timer wake-up — block when it is full, which is the
// back-pressure that keeps a flooded node from buffering without bound.
const queueCap = 1024

// NewDispatcher starts the dispatch loop.
func NewDispatcher() *Dispatcher {
	d := &Dispatcher{
		queue: make([]post, 0, queueCap),
		base:  time.Now(),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	d.notEmpty = sync.NewCond(&d.mu)
	d.notFull = sync.NewCond(&d.mu)
	go d.loop()
	return d
}

// DeliverTo sets where PostMessage's messages go (a proc.Manager's
// Deliver). Call it before the first bus client is dialled.
func (d *Dispatcher) DeliverTo(deliver func(*xmlcmd.Message) bool) {
	d.mu.Lock()
	d.deliver = deliver
	d.mu.Unlock()
}

func (d *Dispatcher) loop() {
	defer close(d.done)
	batch := make([]post, 0, queueCap)
	d.mu.Lock()
	for {
		for len(d.queue) == 0 && !d.stopped {
			d.notEmpty.Wait()
		}
		if d.stopped {
			d.mu.Unlock()
			return
		}
		batch, d.queue = d.queue, batch[:0]
		deliver := d.deliver
		d.notFull.Broadcast()
		d.mu.Unlock()
		for i := range batch {
			p := &batch[i]
			switch {
			case p.m != nil:
				deliver(p.m)
				// The delivery is over and no handler keeps a message past
				// its Receive: the envelope goes back to the connection
				// that decoded it.
				if p.m.Owner != nil {
					p.m.Owner.RecycleMessage(p.m)
				}
			case p.wake:
				d.fireDue(p.due)
			default:
				p.fn()
			}
			*p = post{}
		}
		d.mu.Lock()
	}
}

// enqueue appends one post, waiting for room while the queue is full, and
// stamps a wake-up with the instant it joins the queue. Posts after Stop
// are silently dropped.
func (d *Dispatcher) enqueue(p post) {
	d.mu.Lock()
	for len(d.queue) >= queueCap && !d.stopped {
		d.notFull.Wait()
	}
	if !d.stopped {
		if p.wake {
			p.due = d.since()
		}
		d.queue = append(d.queue, p)
		if len(d.queue) == 1 {
			d.notEmpty.Signal()
		}
	}
	d.mu.Unlock()
}

// Post enqueues fn on the dispatch goroutine.
func (d *Dispatcher) Post(fn func()) { d.enqueue(post{fn: fn}) }

// PostMessage enqueues the delivery of an inbound bus message, in order
// with every other post, and hands the envelope back to its Owner once the
// delivery returns. It is the onMsg of every bus client this runtime dials.
func (d *Dispatcher) PostMessage(m *xmlcmd.Message) { d.enqueue(post{m: m}) }

// Call runs fn on the dispatch goroutine and waits for it. After Stop it
// returns immediately without running fn.
func (d *Dispatcher) Call(fn func()) {
	done := make(chan struct{})
	d.Post(func() {
		defer close(done)
		fn()
	})
	select {
	case <-done:
	case <-d.quit:
	}
}

// Stop terminates the dispatcher once the batch it is running is done and
// releases blocked producers; posts still queued and timers still pending
// are dropped.
func (d *Dispatcher) Stop() {
	d.mu.Lock()
	if !d.stopped {
		d.stopped = true
		if d.wake != nil {
			d.wake.Stop()
		}
		d.timers = nil
		close(d.quit)
		d.notEmpty.Broadcast()
		d.notFull.Broadcast()
	}
	d.mu.Unlock()
	<-d.done
}

// since is the dispatcher's monotonic clock.
func (d *Dispatcher) since() time.Duration { return time.Since(d.base) }

// schedule queues ev to fire on the dispatch goroutine at instant at (a
// since reading). Once the heap has grown to its working size it
// allocates nothing.
func (d *Dispatcher) schedule(at time.Duration, ev clock.Event) {
	d.mu.Lock()
	if !d.stopped {
		d.seq++
		d.push(timerEntry{at: at, seq: d.seq, ev: ev})
		d.arm()
	}
	d.mu.Unlock()
}

// arm points the runtime timer at the heap's head unless it already goes
// off no later. The caller holds mu.
func (d *Dispatcher) arm() {
	if d.stopped || len(d.timers) == 0 {
		return
	}
	at := d.timers[0].at
	if d.armed && d.armedAt <= at {
		return
	}
	d.armed, d.armedAt = true, at
	if d.wake == nil {
		d.wake = time.AfterFunc(at-d.since(), d.onWake)
	} else {
		d.wake.Reset(at - d.since())
	}
}

// onWake runs on the runtime timer's goroutine: it queues the wake-up
// behind whatever is already waiting.
func (d *Dispatcher) onWake() {
	d.mu.Lock()
	d.armed = false
	d.mu.Unlock()
	d.enqueue(post{wake: true})
}

// fireDue fires, in (deadline, schedule) order, every timer due by the
// wake-up's stamp — including ones the fired events schedule — and
// re-arms for the rest.
func (d *Dispatcher) fireDue(due time.Duration) {
	for {
		d.mu.Lock()
		if d.stopped || len(d.timers) == 0 || d.timers[0].at > due {
			d.arm()
			d.mu.Unlock()
			return
		}
		ev := d.timers[0].ev
		d.pop()
		d.mu.Unlock()
		ev.Fire()
	}
}

func (a timerEntry) before(b timerEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push adds e to the timer heap.
func (d *Dispatcher) push(e timerEntry) {
	h := append(d.timers, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	d.timers = h
}

// pop removes the heap's head.
func (d *Dispatcher) pop() {
	h := d.timers
	n := len(h) - 1
	e := h[n]
	h[n] = timerEntry{}
	h = h[:n]
	d.timers = h
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// Clock is a wall clock whose callbacks run on the dispatcher, with
// durations compressed by Scale. Now reports *calibrated* time (wall time
// elapsed since process start, stretched back up by Scale): handlers
// compare Now() deltas against calibrated durations (re-report throttles,
// budget windows, grace periods), so timestamps must live in the same
// timebase the durations do — wall-clock Now would silently stretch every
// such window by Scale.
type Clock struct {
	D     *Dispatcher
	Scale float64
}

var _ clock.Clock = Clock{}

// processEpoch anchors calibrated time.
var processEpoch = time.Now()

// Now returns calibrated time: process start + Scale × elapsed wall time.
func (c Clock) Now() time.Time {
	return processEpoch.Add(time.Duration(float64(time.Since(processEpoch)) * c.scale()))
}

func (c Clock) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

// at is the dispatcher instant d/Scale from now.
func (c Clock) at(d time.Duration) time.Duration {
	return c.D.since() + time.Duration(float64(d)/c.scale())
}

// Schedule queues ev to fire on the dispatcher after d/Scale. It takes no
// runtime timer and no closure: a pooled event costs nothing.
func (c Clock) Schedule(d time.Duration, ev clock.Event) {
	c.D.schedule(c.at(d), ev)
}

// FDParamsForScale adapts the failure detector to time compression. The
// calibrated 200 ms pong timeout becomes only a few milliseconds of wall
// time at high scale — too tight for real TCP and scheduling jitter — so
// the timeout is floored at ~25 ms of wall time and the ping period is
// stretched to keep at least half the cycle free. FD's re-report throttle
// and REC's windows follow the stretched timings (core.FDParams).
func FDParamsForScale(scale float64) core.FDParams {
	p := core.DefaultFDParams()
	if scale <= 1 {
		return p
	}
	floor := time.Duration(float64(25*time.Millisecond) * scale)
	if p.PingTimeout < floor {
		p.PingTimeout = floor
	}
	if p.PingPeriod < 2*p.PingTimeout {
		p.PingPeriod = 2 * p.PingTimeout
	}
	return p
}

// NodeConfig parameterises a live station under either wall-clock runtime:
// rt.StartNode and mp.StartSupervisor both boot from it.
type NodeConfig struct {
	// ListenAddr is the broker's TCP address; "" means "127.0.0.1:0".
	ListenAddr string
	// Scale compresses calibrated durations (10 = ten times faster);
	// values ≤ 0 mean 1.
	Scale float64
	// TreeName selects the restart tree (same names as the simulation); an
	// m-variant name ("IIIm", "IVm") turns micro mode on.
	TreeName string
	// Seed drives the deterministic parts (jitter, epochs).
	Seed int64
	// BusShards is the broker-shard count for the mbus fabric; 0 or 1
	// runs the classic single broker.
	BusShards int
	// OracleName selects the restart policy by its core.PolicyByName
	// name: "" or "escalating", "costaware" (alias "v2"), "fixed-micro",
	// "fixed-process", "fixed-ckpt", … The checkpoint-backed policies
	// need micro mode.
	OracleName string
	// CkptInterval is the checkpoint snapshot period; zero = the ckpt
	// package default. A non-zero value forces the checkpoint plane on,
	// and needs micro mode.
	CkptInterval time.Duration
}
