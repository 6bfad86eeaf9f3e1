package core

import (
	"strings"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/obs"
)

// coreSnapshot reads the process-wide FD/REC counters (other tests in the
// package increment them too, so assertions work on deltas).
type coreSnapshot struct {
	pings, pongs, missed, suspicions, reports uint64
	restarts, byNode                          uint64
	rttCount, detectCount, recoveryCount      uint64
}

func takeCoreSnapshot() coreSnapshot {
	var byNode uint64
	for _, l := range M.RECRestartsByNode.Labels() {
		byNode += M.RECRestartsByNode.With(l).Value()
	}
	return coreSnapshot{
		pings:         M.FDPingsSent.Value(),
		pongs:         M.FDPongs.Value(),
		missed:        M.FDPongsMissed.Value(),
		suspicions:    M.FDSuspicions.Value(),
		reports:       M.FDReports.Value(),
		restarts:      M.RECRestarts.Value(),
		byNode:        byNode,
		rttCount:      M.FDRTT.Count(),
		detectCount:   M.FDDetect.Count(),
		recoveryCount: M.RECRecovery.Count(),
	}
}

// TestCoreMetricsAcrossRecovery pins that a full kill→detect→restart→ready
// cycle moves every stage's counter: probe traffic and RTT observations
// while healthy, then misses, a suspicion with a detect-latency sample, a
// report, a restart (mirrored in the by-node vector) and a recovery-latency
// sample once the restart set is ready again.
func TestCoreMetricsAcrossRecovery(t *testing.T) {
	before := takeCoreSnapshot()
	h := newHarness(t, 1, treeII(t), &Policy{})
	if err := h.board.Inject(fault.Fault{Manifest: "a"}); err != nil {
		t.Fatal(err)
	}
	h.runUntilRecovered(t, 30*time.Second)
	// Let FD re-probe the restarted component so the post-recovery pong
	// and RTT samples land too.
	if err := h.k.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	after := takeCoreSnapshot()

	if d := after.pings - before.pings; d == 0 {
		t.Error("FDPingsSent did not move")
	}
	if d := after.pongs - before.pongs; d == 0 {
		t.Error("FDPongs did not move")
	}
	if d := after.rttCount - before.rttCount; d == 0 {
		t.Error("FDRTT recorded no samples")
	}
	if d := after.missed - before.missed; d == 0 {
		t.Error("FDPongsMissed did not move across a kill")
	}
	if d := after.suspicions - before.suspicions; d == 0 {
		t.Error("FDSuspicions did not move across a kill")
	}
	if d := after.detectCount - before.detectCount; d == 0 {
		t.Error("FDDetect recorded no samples")
	}
	if d := after.reports - before.reports; d == 0 {
		t.Error("FDReports did not move across a kill")
	}
	if d := after.restarts - before.restarts; d == 0 {
		t.Error("RECRestarts did not move across a kill")
	}
	if d := after.recoveryCount - before.recoveryCount; d == 0 {
		t.Error("RECRecovery recorded no samples")
	}
	// Every restart action increments both the total and its node's cell.
	if rd, nd := after.restarts-before.restarts, after.byNode-before.byNode; rd != nd {
		t.Errorf("RECRestarts delta = %d but by-node sum delta = %d", rd, nd)
	}
}

// TestCoreRegisterMetricsRenders pins that every FD/REC family renders
// under an obs registry (name collisions or type conflicts would panic).
func TestCoreRegisterMetricsRenders(t *testing.T) {
	// Ensure the by-node vector has at least one cell to render.
	M.RECRestartsByNode.With("render-probe").Inc()
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	var sb strings.Builder
	if _, err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mercury_fd_pings_sent_total",
		"mercury_fd_suspicions_total",
		`mercury_fd_voided_rounds_total{reason="late-timer"}`,
		`mercury_fd_voided_rounds_total{reason="bus-unproven"}`,
		"mercury_fd_detect_seconds_bucket",
		"mercury_rec_restarts_total",
		`mercury_rec_restarts_by_node_total{node="render-probe"}`,
		"mercury_rec_recovery_seconds_count",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}
