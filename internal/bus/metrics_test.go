package bus

import (
	"strings"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/obs"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// snapshotSim reads the process-wide sim counters (other tests increment
// them too, so assertions work on deltas).
type simSnapshot struct {
	sent, delivered, dropBroker, dropDest, dropChaos, dup uint64
}

func takeSimSnapshot() simSnapshot {
	return simSnapshot{
		sent:       M.SimFramesSent.Value(),
		delivered:  M.SimFramesDelivered.Value(),
		dropBroker: M.SimDroppedBroker.Value(),
		dropDest:   M.SimDroppedDest.Value(),
		dropChaos:  M.SimDroppedChaos.Value(),
		dup:        M.SimDuplicated.Value(),
	}
}

// TestSimMetricsMirrorStats pins that the process-wide counters move in
// lockstep with the per-fabric Stats struct across routed deliveries,
// broker-down drops and chaos losses.
func TestSimMetricsMirrorStats(t *testing.T) {
	before := takeSimSnapshot()
	r := newRig(t)
	a := r.addEcho(t, "a")
	r.addEcho(t, "b")
	r.startAll(t)

	r.bus.Send(new(xmlcmd.Pool).Event("b", "a", 1, "hello", ""))
	_ = r.k.RunFor(time.Second)
	if len(a.received) != 1 {
		t.Fatalf("a received %d", len(a.received))
	}

	// Broker down: the next routed send is lost at the broker hop.
	if err := r.mgr.Kill("mbus", "test"); err != nil {
		t.Fatal(err)
	}
	r.bus.Send(new(xmlcmd.Pool).Event("b", "a", 2, "lost", ""))
	_ = r.k.RunFor(time.Second)

	// Chaos loss on a direct link.
	r.bus.SetChaos(&ChaosProfile{Loss: 0.999999999})
	r.bus.Send(new(xmlcmd.Pool).Event("fd", "rec", 3, "doomed", ""))
	_ = r.k.RunFor(time.Second)

	after := takeSimSnapshot()
	st := r.bus.Stats()
	if got := after.sent - before.sent; got != uint64(st.Sent) {
		t.Errorf("SimFramesSent delta = %d, Stats.Sent = %d", got, st.Sent)
	}
	if got := after.delivered - before.delivered; got != uint64(st.Delivered) {
		t.Errorf("SimFramesDelivered delta = %d, Stats.Delivered = %d", got, st.Delivered)
	}
	if got := after.dropBroker - before.dropBroker; got != uint64(st.DroppedBroker) {
		t.Errorf("SimDroppedBroker delta = %d, Stats.DroppedBroker = %d", got, st.DroppedBroker)
	}
	if got := after.dropChaos - before.dropChaos; got != uint64(st.DroppedChaos) {
		t.Errorf("SimDroppedChaos delta = %d, Stats.DroppedChaos = %d", got, st.DroppedChaos)
	}
	if st.DroppedBroker == 0 || st.DroppedChaos == 0 {
		t.Errorf("test did not exercise both drop paths: %+v", st)
	}
}

// TestRegisterMetricsRenders pins that every bus family renders under an
// obs registry (name collisions or type conflicts would panic here).
func TestRegisterMetricsRenders(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	M.TCPShardFrames.With("0") // materialise one shard label
	var sb strings.Builder
	if _, err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mercury_bus_sim_frames_sent_total",
		`mercury_bus_sim_dropped_total{cause="chaos-loss"}`,
		`mercury_bus_tcp_frames_total{dir="out"}`,
		"mercury_bus_tcp_connections",
		`mercury_bus_tcp_reconnect_seconds_bucket{le="+Inf"}`,
		`mercury_bus_shard_frames_total{shard="0"}`,
		`mercury_bus_shard_batch_frames_bucket{le="+Inf"}`,
		"mercury_bus_shard_queue_bytes",
		"mercury_bus_shard_backpressure_drops_total",
		`mercury_bus_tcp_reconnect_queue_total{outcome="queued"}`,
		`mercury_bus_tcp_reconnect_queue_total{outcome="dropped"}`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}
