package core

import (
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/trace"
)

// Tests for the degraded-network hardening knobs: FD's SuspectAfter
// K-consecutive-miss threshold and REC's exponential restart backoff.

// totalRestarts sums restart counts across the harness components.
func (h *harness) totalRestarts(t *testing.T) int {
	t.Helper()
	total := 0
	for _, c := range h.comps {
		n, err := h.mgr.Restarts(c)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	return total
}

// TestSuspectAfterRidesOutLossyBus: on a healthy station over a 10%-loss
// fabric, the paper's single-miss detector restart-storms while the
// K=3 detector stays quiet. Seeded, so the comparison is exact.
func TestSuspectAfterRidesOutLossyBus(t *testing.T) {
	storms := make(map[int]int)
	for _, k := range []int{1, 3} {
		fdp := DefaultFDParams()
		fdp.SuspectAfter = k
		h := newHarnessParams(t, 21, treeII(t), &Policy{}, fdp, DefaultRECParams())
		h.bus.SetChaos(&bus.ChaosProfile{Loss: 0.10})
		if err := h.k.RunFor(time.Minute); err != nil {
			t.Fatal(err)
		}
		storms[k] = h.totalRestarts(t)
	}
	if storms[1] == 0 {
		t.Fatal("single-miss detector saw no false positives at 10% loss; the scenario is vacuous")
	}
	if storms[3] >= storms[1] {
		t.Fatalf("SuspectAfter=3 (%d restarts) no better than SuspectAfter=1 (%d)", storms[3], storms[1])
	}
}

// TestSuspectAfterDetectionStillFast: the miss-retry probes keep K=3
// detection under 2× the 1 s ping period even though three misses must
// accrue.
func TestSuspectAfterDetectionStillFast(t *testing.T) {
	fdp := DefaultFDParams()
	fdp.SuspectAfter = 3
	h := newHarnessParams(t, 22, treeII(t), &Policy{}, fdp, DefaultRECParams())
	injectAt := h.k.Now()
	if err := h.board.Inject(fault.Fault{Manifest: "a"}); err != nil {
		t.Fatal(err)
	}
	h.runUntilRecovered(t, 30*time.Second)
	detections := h.rec.Filter(func(e trace.Event) bool {
		return e.Kind == trace.FailureDetected && e.Component == "a" && e.At.After(injectAt)
	})
	if len(detections) == 0 {
		t.Fatal("failure never detected")
	}
	latency := detections[0].At.Sub(injectAt)
	if latency >= 2*time.Second {
		t.Fatalf("K=3 detection latency %v, want < 2s (2× the 1s ping period)", latency)
	}
}

// TestSuspectAfterDefaultUnchanged: SuspectAfter left zero (or 1) must
// reproduce the paper's single-miss detector exactly — same detection
// schedule, same single restart.
func TestSuspectAfterDefaultUnchanged(t *testing.T) {
	h := newHarness(t, 23, treeII(t), &Policy{})
	if err := h.board.Inject(fault.Fault{Manifest: "a"}); err != nil {
		t.Fatal(err)
	}
	d := h.runUntilRecovered(t, 30*time.Second)
	if d > 5*time.Second {
		t.Fatalf("default-knob recovery took %v, want < 5s", d)
	}
	if n, _ := h.mgr.Restarts("a"); n != 1 {
		t.Fatalf("a restarted %d times", n)
	}
}

// TestRestartBackoffDampsStorm: with a hard (uncurable) fault, the budget
// is burned at full speed without backoff and strictly slower with it;
// the give-up backstop still fires either way.
func TestRestartBackoffDampsStorm(t *testing.T) {
	span := make(map[bool]time.Duration)
	for _, withBackoff := range []bool{false, true} {
		recp := DefaultRECParams()
		if withBackoff {
			recp.RestartBackoff = 500 * time.Millisecond
			recp.RestartBackoffMax = 4 * time.Second
		}
		h := newHarnessParams(t, 24, treeII(t), &Policy{}, DefaultFDParams(), recp)
		if err := h.board.Inject(fault.Fault{Manifest: "a", Hard: true}); err != nil {
			t.Fatal(err)
		}
		if err := h.k.RunFor(4 * time.Minute); err != nil {
			t.Fatal(err)
		}
		giveups := h.rec.Filter(func(e trace.Event) bool { return e.Kind == trace.GiveUp })
		if len(giveups) == 0 {
			t.Fatalf("withBackoff=%v: policy never gave up", withBackoff)
		}
		requests := h.rec.Filter(func(e trace.Event) bool { return e.Kind == trace.RestartRequested })
		if len(requests) < 2 {
			t.Fatalf("withBackoff=%v: only %d restart requests", withBackoff, len(requests))
		}
		span[withBackoff] = requests[len(requests)-1].At.Sub(requests[0].At)

		notes := h.rec.Filter(func(e trace.Event) bool {
			return e.Kind == trace.Note && e.Dur > 0
		})
		if withBackoff && len(notes) == 0 {
			t.Fatal("no backoff delays recorded")
		}
		if !withBackoff && len(notes) != 0 {
			t.Fatalf("backoff disabled but %d delays recorded", len(notes))
		}
	}
	if span[true] <= span[false] {
		t.Fatalf("backoff did not slow the storm: %v (backoff) vs %v (plain)", span[true], span[false])
	}
}

// TestRestartBackoffCap pins the exponential schedule and its cap.
func TestRestartBackoffCap(t *testing.T) {
	r := &REC{params: RECParams{RestartBackoff: 500 * time.Millisecond, RestartBackoffMax: 3 * time.Second}}
	want := []time.Duration{0, 500 * time.Millisecond, time.Second, 2 * time.Second, 3 * time.Second, 3 * time.Second}
	for recent, w := range want {
		if got := r.restartBackoff(recent); got != w {
			t.Fatalf("restartBackoff(%d) = %v, want %v", recent, got, w)
		}
	}
	r = &REC{params: RECParams{}}
	if got := r.restartBackoff(5); got != 0 {
		t.Fatalf("disabled backoff returned %v", got)
	}
}
