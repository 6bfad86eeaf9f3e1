package store

import (
	"errors"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/sim"
)

func simStore(sweep time.Duration) (*Store, *sim.Kernel) {
	k := sim.New(1)
	return New(clock.Sim{K: k}, Options{SweepPeriod: sweep}), k
}

func TestLeaseLifecycle(t *testing.T) {
	s, _ := simStore(0)
	l, err := s.Acquire("session/epoch", "ses", 10*time.Second)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if _, _, ok := l.Get(); ok {
		t.Fatal("value present before any Put")
	}
	v, err := l.Put([]byte("e1"))
	if err != nil || v != 1 {
		t.Fatalf("put: v=%d err=%v", v, err)
	}
	if v, err = l.Put([]byte("e2")); err != nil || v != 2 {
		t.Fatalf("second put: v=%d err=%v", v, err)
	}
	got, ver, ok := l.Get()
	if !ok || ver != 2 || string(got) != "e2" {
		t.Fatalf("get: %q v=%d ok=%v", got, ver, ok)
	}

	// Same owner reattaches; a different owner is refused while live.
	if _, err := s.Acquire("session/epoch", "ses", 10*time.Second); err != nil {
		t.Fatalf("same-owner reacquire: %v", err)
	}
	if _, err := s.Acquire("session/epoch", "intruder", time.Second); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("expected ErrLeaseHeld, got %v", err)
	}

	// Release kills the lease: operations fail, others may take the key.
	l.Release()
	if _, err := l.Put([]byte("x")); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("put after release: %v", err)
	}
	if _, err := s.Acquire("session/epoch", "next", time.Second); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

// TestLeaseExpirySim pins the crash-only contract on virtual time: once the
// holder stops renewing, the state dies at the deadline — deterministically.
func TestLeaseExpirySim(t *testing.T) {
	s, k := simStore(5 * time.Second)
	l, err := s.Acquire("track/str", "str", 10*time.Second)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if _, err := l.Put([]byte("az=12")); err != nil {
		t.Fatalf("put: %v", err)
	}

	// Renewing moves the deadline; the sweeper must not reclaim early.
	if err := k.RunFor(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := l.Renew(10 * time.Second); err != nil {
		t.Fatalf("renew: %v", err)
	}
	if err := k.RunFor(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("track/str"); !ok {
		t.Fatal("value dead before lease expiry")
	}

	// Stop renewing: past the deadline the value reads as absent, the
	// sweeper reclaims it, and any owner may take the key fresh.
	if err := k.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("track/str"); ok {
		t.Fatal("value survived lease expiry")
	}
	if s.Len() != 0 {
		t.Fatalf("sweeper left %d entries", s.Len())
	}
	l2, err := s.Acquire("track/str", "str2", time.Second)
	if err != nil {
		t.Fatalf("acquire after expiry: %v", err)
	}
	if _, _, ok := l2.Get(); ok {
		t.Fatal("stale value visible to the new owner")
	}
}

// TestSweeperTicksUntilClose: the sweeper sweeps once per period, and a
// closed store's queued tick sweeps nothing and does not re-arm.
func TestSweeperTicksUntilClose(t *testing.T) {
	s, k := simStore(time.Second)
	before := M.Sweeps.Value()
	if err := k.RunFor(10*time.Second + 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n := M.Sweeps.Value() - before; n != 10 {
		t.Fatalf("sweeps = %d in 10.5 periods, want 10", n)
	}
	s.Close()
	if err := k.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := M.Sweeps.Value() - before; n != 10 {
		t.Fatalf("swept %d times after Close", n-10)
	}
	if k.Pending() != 0 {
		t.Fatalf("%d events pending after the closed store's last tick", k.Pending())
	}
}

// TestLeaseSurvivesReattach pins the microreboot path: a new incarnation of
// the same owner reacquires and sees the surviving state unchanged.
func TestLeaseSurvivesReattach(t *testing.T) {
	s, k := simStore(0)
	l, _ := s.Acquire("session/epoch", "ses+str", 30*time.Second)
	cell := NewCell(l, Int64Codec())
	if err := cell.Save(424242); err != nil {
		t.Fatalf("save: %v", err)
	}
	if err := k.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// The component restarts: logic gone, a fresh lease handle reattaches.
	l2, err := s.Acquire("session/epoch", "ses+str", 30*time.Second)
	if err != nil {
		t.Fatalf("reattach: %v", err)
	}
	got, ok := NewCell(l2, Int64Codec()).Load()
	if !ok || got != 424242 {
		t.Fatalf("state lost across reattach: %d ok=%v", got, ok)
	}
}

// TestZeroAllocHotPath pins the steady-state Put/Get/Save/Load paths at
// zero allocations.
func TestZeroAllocHotPath(t *testing.T) {
	s, _ := simStore(0)
	l, _ := s.Acquire("k", "o", time.Hour)
	val := []byte("steady-state payload")
	if _, err := l.Put(val); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := l.Put(val); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := l.Get(); !ok {
			t.Fatal("get miss")
		}
	}); n != 0 {
		t.Fatalf("lease hot path allocates %.1f/op", n)
	}

	l2, _ := s.Acquire("epoch", "o", time.Hour)
	cell := NewCell(l2, Int64Codec())
	if err := cell.Save(7); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := cell.Save(99); err != nil {
			t.Fatal(err)
		}
		if _, ok := cell.Load(); !ok {
			t.Fatal("load miss")
		}
	}); n != 0 {
		t.Fatalf("cell hot path allocates %.1f/op", n)
	}
}

func TestCodecHelpers(t *testing.T) {
	buf := AppendFloat64(AppendInt64(nil, -7), 181.5)
	i, rest, ok := ParseInt64(buf)
	if !ok || i != -7 {
		t.Fatalf("int64: %d ok=%v", i, ok)
	}
	f, rest, ok := ParseFloat64(rest)
	if !ok || f != 181.5 || len(rest) != 0 {
		t.Fatalf("float64: %v ok=%v rest=%d", f, ok, len(rest))
	}
	if _, _, ok := ParseInt64([]byte{1, 2}); ok {
		t.Fatal("short parse succeeded")
	}
}
