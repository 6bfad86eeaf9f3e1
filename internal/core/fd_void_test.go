package core

import (
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/trace"
)

// Tests for the rounds the detector refuses to act on (FD.voided), on the
// deterministic kernel: the lateness and the bus proof that only a live
// host produces are injected by the test.

// skewClock reads the kernel's time plus a skew the test moves: raising it
// between a probe and its verification is what a stalled host looks like
// from inside — the timer fires and finds far more time gone than it asked
// for.
type skewClock struct {
	clock.Sim
	skew *time.Duration
}

func (c skewClock) Now() time.Time { return c.Sim.Now().Add(*c.skew) }

// firstReport runs the harness until FD reports component and returns the
// kernel time of the report.
func (h *harness) firstReport(t *testing.T, component string, limit time.Duration) time.Time {
	t.Helper()
	n := len(h.reports(component))
	for deadline := h.k.Now().Add(limit); h.k.Now().Before(deadline); {
		if err := h.k.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if len(h.reports(component)) > n {
			return h.k.Now()
		}
	}
	t.Fatalf("%s not reported within %v", component, limit)
	return time.Time{}
}

func (h *harness) reports(component string) []trace.Event {
	return h.rec.Filter(func(e trace.Event) bool {
		return e.Kind == trace.FailureDetected && e.Component == component
	})
}

// probeOutstanding steps the kernel until FD has a probe to target in
// flight, so what the test does next happens between send and verify.
func (h *harness) probeOutstanding(t *testing.T, target string) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if fd := h.fd.current; fd != nil && fd.state(target).outstanding != 0 {
			return
		}
		if err := h.k.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatalf("no probe to %s in 2 s", target)
}

// TestFDVoidsLateRound: a dies; the verification of the probe that finds it
// silent fires more than a PingTimeout late. That round is void and counted
// — FD cannot tell a dead target from a pong queued behind its own late
// timer — and the next round, on time, reports a: one PingPeriod later than
// the control run, where the host never stalled.
func TestFDVoidsLateRound(t *testing.T) {
	fdp := DefaultFDParams()
	run := func(stall time.Duration) (reportedAfter time.Duration, voided uint64) {
		var skew time.Duration
		h := newHarnessClock(t, 5, treeII(t), fixed(&Policy{}), fdp, DefaultRECParams(), []string{"mbus", "a", "b"},
			func(c clock.Sim) clock.Clock { return skewClock{c, &skew} })
		voided0 := M.FDVoidedLate.Value()
		if err := h.mgr.Kill("a", "test"); err != nil {
			t.Fatal(err)
		}
		h.probeOutstanding(t, "a")
		killedAt := h.k.Now()
		skew = stall
		at := h.firstReport(t, "a", 10*time.Second)
		return at.Sub(killedAt), M.FDVoidedLate.Value() - voided0
	}
	control, voided := run(0)
	if voided != 0 {
		t.Fatalf("control run voided %d rounds", voided)
	}
	late, voided := run(fdp.PingTimeout + time.Millisecond)
	if voided != 1 {
		t.Fatalf("a verification %v late voided %d rounds, want 1", fdp.PingTimeout+time.Millisecond, voided)
	}
	if late != control+fdp.PingPeriod {
		t.Fatalf("a reported %v after its probe, control %v: want exactly one PingPeriod (%v) more", late, control, fdp.PingPeriod)
	}
	// A timer late by less than the timeout is an ordinary round.
	if onTime, voided := run(fdp.PingTimeout - time.Millisecond); voided != 0 || onTime != control {
		t.Fatalf("a verification late by under a PingTimeout: voided %d, reported after %v (control %v)", voided, onTime, control)
	}
}

// voidHarness probes a, b and then mbus every 700 ms, so the broker's probe
// follows b's by 175 ms, inside b's 200 ms pong timeout: a probe b gets just
// before the restarted broker is ready is verified just after the broker
// has answered its own.
func voidHarness(t *testing.T) (*harness, FDParams) {
	fdp := DefaultFDParams()
	fdp.PingPeriod = 700 * time.Millisecond
	return newHarnessClock(t, 9, treeII(t), fixed(&Policy{}), fdp, DefaultRECParams(), []string{"a", "b", "mbus"}, nil), fdp
}

// busOutage crashes mbus after the given delay, runs until REC has
// restarted it, calls prove (if any) at its ready mark and during (if any)
// once FD suspects the broker, and returns the time of the ready mark.
func busOutage(t *testing.T, h *harness, after time.Duration, prove func(time.Time), during func()) time.Time {
	t.Helper()
	var readyAt time.Time
	h.mgr.OnReady(func(name string) {
		if name == "mbus" {
			readyAt = h.k.Now()
			if prove != nil {
				prove(readyAt)
			}
		}
	})
	if err := h.k.RunFor(after); err != nil {
		t.Fatal(err)
	}
	if err := h.board.Inject(fault.Fault{Manifest: "mbus"}); err != nil {
		t.Fatal(err)
	}
	for limit := h.k.Now().Add(10 * time.Second); readyAt.IsZero(); {
		if h.k.Now().After(limit) {
			t.Fatal("mbus not restarted in 10 s")
		}
		if during != nil && h.fd.Suspected("mbus") {
			during()
			during = nil
		}
		if err := h.k.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	return readyAt
}

// TestFDVoidsProbeSentBeforeBusProven: a probe sent while the broker is
// suspected is never reported once the host has proven the bus up again,
// however soon after its return the broker answers. The control runs — no
// BusProven, as on bus.Sim — find the crash time that puts b's probe across
// the broker's return, and show the round the proof removes: healthy b is
// reported and restarted.
func TestFDVoidsProbeSentBeforeBusProven(t *testing.T) {
	_, fdp := voidHarness(t)
	after := time.Duration(-1)
	for d := time.Duration(0); d < fdp.PingPeriod && after < 0; d += 25 * time.Millisecond {
		h, _ := voidHarness(t)
		busOutage(t, h, d, nil, nil)
		if err := h.k.RunFor(2 * fdp.PingPeriod); err != nil {
			t.Fatal(err)
		}
		if len(h.reports("b")) > 0 {
			after = d
		}
	}
	if after < 0 {
		t.Fatal("control: no crash time has healthy b reported after the broker's return: nothing for the proof to void")
	}
	t.Run("proven", func(t *testing.T) {
		h, _ := voidHarness(t)
		voided0 := M.FDVoidedBus.Value()
		busOutage(t, h, after, h.fd.BusProven, nil)
		if err := h.k.RunFor(5 * fdp.PingPeriod); err != nil {
			t.Fatal(err)
		}
		for _, c := range []string{"a", "b"} {
			if r := h.reports(c); len(r) != 0 {
				t.Errorf("%s reported after a broker outage it sat out: %v", c, r[0])
			}
			if n, _ := h.mgr.Restarts(c); n != 0 {
				t.Errorf("%s restarted %d times", c, n)
			}
		}
		if M.FDVoidedBus.Value() == voided0 {
			t.Error("no round counted as voided: bus-unproven")
		}
	})
	// The price: a target that really died during the outage is suspected
	// on the first round sent after the proof — within PingPeriod +
	// PingTimeout of it — and reported one broker verification later.
	t.Run("dead", func(t *testing.T) {
		h, _ := voidHarness(t)
		readyAt := busOutage(t, h, after, h.fd.BusProven, func() {
			if err := h.mgr.Kill("b", "test"); err != nil {
				t.Fatal(err)
			}
		})
		at := h.firstReport(t, "b", 10*time.Second)
		if d, limit := at.Sub(readyAt), fdp.PingPeriod+2*fdp.PingTimeout; d > limit {
			t.Fatalf("dead b reported %v after the bus was proven, limit %v", d, limit)
		}
	})
}
