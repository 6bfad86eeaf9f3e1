package rt

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// goid is the calling goroutine's id, read from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// logEvent appends its id to a log only the dispatch goroutine touches, and
// the goroutine it fired on to another.
type logEvent struct {
	id       int
	ids      *[]int
	firedOn  *[]uint64
	fireHits *atomic.Int64
}

func (e *logEvent) Fire() {
	*e.ids = append(*e.ids, e.id)
	*e.firedOn = append(*e.firedOn, goid())
	e.fireHits.Add(1)
}

// fnEvent runs a func literal as a scheduled event.
type fnEvent func()

func (f fnEvent) Fire() { f() }

// blockLoop parks the dispatch goroutine until the returned function is
// called: posts and wake-ups queue up behind it, as on a loop running
// behind.
func blockLoop(d *Dispatcher) (release func()) {
	entered, unblock := make(chan struct{}), make(chan struct{})
	d.Post(func() { close(entered); <-unblock })
	<-entered
	return func() { close(unblock) }
}

// waitFor polls cond on the dispatch goroutine until it holds.
func waitFor(t *testing.T, d *Dispatcher, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		var ok bool
		d.Call(func() { ok = cond() })
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestTimerQueueOrder: timers fire in (deadline, schedule) order — equal
// deadlines in the order they were scheduled, whatever order the deadlines
// arrived in — and on the dispatch goroutine.
func TestTimerQueueOrder(t *testing.T) {
	d := NewDispatcher()
	defer d.Stop()
	var (
		ids     []int
		firedOn []uint64
		hits    atomic.Int64
		loopID  uint64
	)
	d.Call(func() { loopID = goid() })
	release := blockLoop(d) // every timer is queued before any is due
	base := d.since() + 20*time.Millisecond
	perSlot := map[int]int{}
	for _, slot := range []int{3, 1, 2, 1, 0, 3, 1, 0, 2} {
		id := 10*slot + perSlot[slot] // deadline slot, then schedule order within it
		perSlot[slot]++
		d.schedule(base+time.Duration(slot)*5*time.Millisecond, &logEvent{id, &ids, &firedOn, &hits})
	}
	release()
	waitFor(t, d, "nine timers", func() bool { return len(ids) == 9 })
	var fired []int
	var on []uint64
	d.Call(func() { fired, on = append(fired, ids...), append(on, firedOn...) })
	want := []int{0, 1, 10, 11, 12, 20, 21, 30, 31}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	for _, g := range on {
		if g != loopID {
			t.Fatalf("a timer fired on goroutine %d, the loop is %d", g, loopID)
		}
	}
}

// TestTimerAfterEarlierMessage: a message enqueued before a timer's instant
// is delivered before that timer fires, even when the loop gets to the
// wake-up late. Two timers, A at +5 ms and B at +50 ms; the loop is
// blocked until +80 ms, and a message is enqueued at +10 ms. A's wake-up
// was queued at +5 ms, ahead of the message, and fires A only: B was not
// due when that wake-up was enqueued, so it waits for one queued behind
// the message. Firing every timer due by the time the loop ran the
// wake-up would run B first.
func TestTimerAfterEarlierMessage(t *testing.T) {
	d := NewDispatcher()
	defer d.Stop()
	var order []string
	d.DeliverTo(func(m *xmlcmd.Message) bool { order = append(order, "message"); return true })
	release := blockLoop(d)
	c := Clock{D: d}
	c.Schedule(5*time.Millisecond, fnEvent(func() { order = append(order, "A") }))
	c.Schedule(50*time.Millisecond, fnEvent(func() { order = append(order, "B") }))
	time.Sleep(10 * time.Millisecond)
	d.PostMessage(xmlcmd.NewPing("a", "b", 1, 1))
	time.Sleep(70 * time.Millisecond)
	release()
	waitFor(t, d, "both timers", func() bool { return len(order) == 3 })
	var ran string
	d.Call(func() { ran = strings.Join(order, " ") })
	if ran != "A message B" {
		t.Fatalf("ran %s, want A message B", ran)
	}
}

// TestTimerNothingFiresAfterStop: timers pending when the dispatcher stops
// never fire, whether their deadline has passed or not.
func TestTimerNothingFiresAfterStop(t *testing.T) {
	d := NewDispatcher()
	var (
		ids     []int
		firedOn []uint64
		hits    atomic.Int64
	)
	c := Clock{D: d}
	for i := 0; i < 50; i++ {
		c.Schedule(time.Duration(i)*time.Millisecond, &logEvent{i, &ids, &firedOn, &hits})
		c.Schedule(time.Duration(i)*time.Millisecond, fnEvent(func() { hits.Add(1) }))
	}
	time.Sleep(10 * time.Millisecond)
	d.Stop()
	after := hits.Load()
	c.Schedule(0, &logEvent{-1, &ids, &firedOn, &hits})
	c.Schedule(0, fnEvent(func() { hits.Add(1) }))
	time.Sleep(80 * time.Millisecond)
	if n := hits.Load(); n != after {
		t.Fatalf("%d timers fired after Stop", n-after)
	}
}

// nopEvent is a pooled event: scheduling it hands over no new memory.
type nopEvent struct{}

func (*nopEvent) Fire() {}

// TestScheduleZeroAlloc: once the heap has grown, scheduling a pooled event
// allocates nothing — no runtime timer, no closure.
func TestScheduleZeroAlloc(t *testing.T) {
	d := NewDispatcher()
	defer d.Stop()
	c := Clock{D: d, Scale: 10}
	ev := new(nopEvent)
	for i := 0; i < 200; i++ { // grow the heap past what the measurement adds
		c.Schedule(time.Hour, ev)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Schedule(time.Hour, ev) }); allocs != 0 {
		t.Fatalf("Schedule allocates %v per call, want 0", allocs)
	}
}
