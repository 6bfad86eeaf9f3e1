package clock

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/sim"
)

func TestSimClock(t *testing.T) {
	k := sim.New(1)
	c := Sim{K: k}
	start := c.Now()
	ev := &nowEvent{c: c}
	c.Schedule(5*time.Second, ev)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ev.at.Sub(start) != 5*time.Second {
		t.Fatalf("fired at +%v, want +5s", ev.at.Sub(start))
	}
}

// nowEvent records the clock's reading when it fires.
type nowEvent struct {
	c  Clock
	at time.Time
}

func (e *nowEvent) Fire() { e.at = e.c.Now() }

// countEvent is a minimal Event for exercising the Schedule path.
type countEvent struct {
	fired int
}

func (e *countEvent) Fire() { e.fired++ }

func TestSimSchedule(t *testing.T) {
	k := sim.New(1)
	c := Sim{K: k}
	ev := &countEvent{}
	c.Schedule(3*time.Second, ev)
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ev.fired != 1 {
		t.Fatalf("fired = %d, want 1", ev.fired)
	}
	if got := k.Now().Sub(sim.Epoch); got != 3*time.Second {
		t.Fatalf("fired at +%v, want +3s", got)
	}
}

func TestJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := 10 * time.Second
	for i := 0; i < 1000; i++ {
		d := Jitter(rng, base, 0.2)
		if d < 8*time.Second || d > 12*time.Second {
			t.Fatalf("jitter out of bounds: %v", d)
		}
	}
	if Jitter(rng, base, 0) != base {
		t.Fatal("zero-frac jitter changed duration")
	}
}

func TestBackoff(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		n            int
		first, limit time.Duration
		want         time.Duration
	}{
		{0, 4 * ms, 16 * ms, 0},
		{-3, 4 * ms, 16 * ms, 0},
		{1, 4 * ms, 16 * ms, 4 * ms},
		{3, 4 * ms, 16 * ms, 16 * ms},
		{4, 4 * ms, 20 * ms, 20 * ms},
		{1 << 30, 4 * ms, 16 * ms, 16 * ms},
		{2, 0, 16 * ms, 0},
		{1, 5 * ms, 3 * ms, 3 * ms},                    // a first step above the cap is capped
		{11, ms, 0, 1024 * ms},                         // no cap
		{1 << 30, ms, 0, time.Duration(math.MaxInt64)}, // no cap, no overflow
	} {
		if got := Backoff(tc.n, tc.first, tc.limit); got != tc.want {
			t.Errorf("Backoff(%d, %v, %v) = %v, want %v", tc.n, tc.first, tc.limit, got, tc.want)
		}
	}
}
