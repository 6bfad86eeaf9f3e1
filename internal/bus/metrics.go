package bus

import (
	"sync/atomic"

	"github.com/recursive-restart/mercury/internal/obs"
)

// BusMetrics aggregates the process-wide runtime counters of the TCP
// broker and client; a simulated fabric counts its traffic only in its own
// Stats. Counters are incremented unconditionally — an increment is a
// single atomic add, cheaper than a configuration branch — and only read
// when an obs registry renders them.
type BusMetrics struct {
	// TCP wire path (FrameReader/FrameWriter, broker, client).
	TCPFramesIn      obs.Counter    // frames read off connections
	TCPFramesOut     obs.Counter    // frames written to connections
	TCPBytesIn       obs.Counter    // wire bytes read (header + payload)
	TCPBytesOut      obs.Counter    // wire bytes written
	TCPRouteDrops    obs.Counter    // broker frames with no registered destination
	TCPReconnects    obs.Counter    // client reconnects after a broker outage
	TCPReconnectTime *obs.Histogram // connection lost → registered again
	TCPSendDrops     obs.Counter    // client sends lost (no live connection or write error)
	TCPDecodeDrops   obs.Counter    // inbound frames a client dropped because the payload did not decode
	TCPRegistrations obs.Counter    // broker register frames accepted
	TCPConnections   obs.Gauge      // broker connections currently registered

	// Sharded fabric + batching (mercury_bus_shard_* family).
	TCPShardFrames       *obs.CounterVec // frames routed, by broker shard index
	TCPBatchFrames       *obs.Histogram  // frames coalesced per batched write
	TCPQueueBytes        obs.Gauge       // bytes pending across bounded send queues
	TCPBackpressureDrops obs.Counter     // frames rejected by a full send queue (DropNewest)
	TCPReconnectQueued   obs.Counter     // client frames parked while disconnected
	TCPReconnectDrops    obs.Counter     // client frames shed, oldest first, from a full reconnect queue
}

// M is the process-wide bus metrics instance. Hot call sites hold a
// per-instance obs.CounterShard into these counters (one shard per frame
// reader/writer) so concurrent writers do not contend.
var M = BusMetrics{
	TCPReconnectTime: obs.NewHistogram(obs.DefBuckets()...),
	TCPShardFrames:   obs.NewCounterVec(),
	// Batch sizes of interest span "no batching" (1) to full 16 KiB
	// batches of ~80-byte frames (~200); powers of two up to 512.
	TCPBatchFrames: obs.NewValueHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
}

// shardSeq hands out shard indices to long-lived writers (frame readers
// and writers, broker shards) round-robin, spreading them across each counter's padded
// cells.
var shardSeq atomic.Uint64

// nextShard returns the next writer's shard index.
func nextShard() uint64 { return shardSeq.Add(1) }

// RegisterMetrics registers the bus counter families with an obs
// registry under the mercury_bus_* namespace.
func RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("mercury_bus_tcp_frames_total",
		"Wire frames moved over TCP, by direction.", &M.TCPFramesIn, "dir", "in")
	r.RegisterCounter("mercury_bus_tcp_frames_total",
		"Wire frames moved over TCP, by direction.", &M.TCPFramesOut, "dir", "out")
	r.RegisterCounter("mercury_bus_tcp_bytes_total",
		"Wire bytes moved over TCP (header + payload), by direction.", &M.TCPBytesIn, "dir", "in")
	r.RegisterCounter("mercury_bus_tcp_bytes_total",
		"Wire bytes moved over TCP (header + payload), by direction.", &M.TCPBytesOut, "dir", "out")
	r.RegisterCounter("mercury_bus_tcp_route_drops_total",
		"Broker frames dropped for lack of a registered destination.", &M.TCPRouteDrops)
	r.RegisterCounter("mercury_bus_tcp_reconnects_total",
		"Client reconnections after losing the broker.", &M.TCPReconnects)
	r.RegisterHistogram("mercury_bus_tcp_reconnect_seconds",
		"Connection lost to registered again, per client reconnect.", M.TCPReconnectTime)
	r.RegisterCounter("mercury_bus_tcp_send_drops_total",
		"Client sends lost: no live connection or a failed write.", &M.TCPSendDrops)
	r.RegisterCounter("mercury_bus_tcp_decode_drops_total",
		"Inbound frames a client dropped because the payload failed to decode or validate.", &M.TCPDecodeDrops)
	r.RegisterCounter("mercury_bus_tcp_registrations_total",
		"Register frames accepted by the broker.", &M.TCPRegistrations)
	r.RegisterGauge("mercury_bus_tcp_connections",
		"Connections currently registered at the broker.", &M.TCPConnections)

	r.RegisterCounterVec("mercury_bus_shard_frames_total",
		"Frames routed, by broker shard index.", "shard", M.TCPShardFrames)
	r.RegisterHistogram("mercury_bus_shard_batch_frames",
		"Frames coalesced into one batched write.", M.TCPBatchFrames)
	r.RegisterGauge("mercury_bus_shard_queue_bytes",
		"Bytes pending across bounded per-connection send queues.", &M.TCPQueueBytes)
	r.RegisterCounter("mercury_bus_shard_backpressure_drops_total",
		"Frames rejected by a full bounded send queue (DropNewest policy).", &M.TCPBackpressureDrops)
	r.RegisterCounter("mercury_bus_tcp_reconnect_queue_total",
		"Client frames handled by the bounded reconnect queue, by outcome.",
		&M.TCPReconnectQueued, "outcome", "queued")
	r.RegisterCounter("mercury_bus_tcp_reconnect_queue_total",
		"Client frames handled by the bounded reconnect queue, by outcome.",
		&M.TCPReconnectDrops, "outcome", "dropped")
}
