package bus

import (
	"strings"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/obs"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// TestSimStatsCountEveryPath pins that a fabric's Stats — its only count —
// sees routed deliveries, broker-down drops and chaos losses.
func TestSimStatsCountEveryPath(t *testing.T) {
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

	want := Stats{Sent: 3, Delivered: 1, DroppedBroker: 1, DirectSent: 1, DroppedChaos: 1}
	if st := r.bus.Stats(); st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
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
