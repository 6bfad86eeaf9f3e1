// Package obs is Mercury's aggregate instruments: zero-allocation runtime
// counters, gauges and one fixed-bucket histogram type (durations, or plain
// numbers), plus a registry that renders the Prometheus text exposition
// format without reflection. Instruments count and time; what happened, in
// what order, is internal/trace's record, and an outage is read from that
// record by trace.Outages, not from here.
//
// The package is dependency-free (standard library only, no other mercury
// packages), so any layer — the bus fabric, the failure detector, the
// recoverer, the process manager — can instrument itself without import
// cycles. Instrumented layers keep their counters as package-level
// variables and expose a RegisterMetrics(*Registry) function; the obs HTTP
// listener in cmd/mercuryd gathers them into one registry and serves
// /metrics.
//
// Three contracts shape the design:
//
//   - Increments are zero-allocation and lock-free (a single atomic add),
//     so instrumentation can sit on the paths the PR-2/PR-4 work pinned at
//     0 allocs/op — the simulated fabric's Send, the wire codec's frame
//     loops — without moving those floors.
//   - Counters are sharded across padded cache lines: concurrent writers
//     (broker connection goroutines, parallel simulation trials) take a
//     per-writer shard so hot increments do not false-share or contend.
//   - Nothing in this package reads the clock or draws randomness, so
//     instrumented code never branches on time or RNG and the seeded
//     golden/byte-identity determinism tests are unaffected.
package obs

import "sync/atomic"

// NumShards is the number of independent cache-line-padded cells a Counter
// spreads its increments over. A power of two so shard selection is a
// cheap mask.
const NumShards = 8

// cacheLine is the assumed cache-line size used for padding. 64 bytes
// covers x86-64 and most ARM server cores; being wrong only costs a little
// memory or a little false sharing, never correctness.
const cacheLine = 64

// CounterShard is one padded cell of a Counter. Writers that own a shard
// (via Counter.Shard) increment it without contending with — or
// false-sharing against — any other writer.
type CounterShard struct {
	n atomic.Uint64
	_ [cacheLine - 8]byte
}

// Inc adds 1 to the shard.
func (s *CounterShard) Inc() { s.n.Add(1) }

// Add adds n to the shard.
func (s *CounterShard) Add(n uint64) { s.n.Add(n) }

// Counter is a monotonically increasing metric, sharded across padded
// cache lines. The zero value is ready to use, so counters can live
// directly inside package-level metric structs with no constructor.
//
// Single-writer or low-rate call sites use Inc/Add (shard 0). Hot
// concurrent call sites acquire a dedicated shard once (cold path) with
// Shard and increment that; Value folds all shards back together.
type Counter struct {
	shards [NumShards]CounterShard
}

// Inc adds 1 to the counter (shard 0).
func (c *Counter) Inc() { c.shards[0].n.Add(1) }

// Add adds n to the counter (shard 0).
func (c *Counter) Add(n uint64) { c.shards[0].n.Add(n) }

// Shard returns the i%NumShards-th shard. Callers with a long-lived
// identity (a connection, a simulated fabric instance) pick a shard at
// setup time and keep the pointer; the increment itself then touches a
// cache line no other writer shares.
func (c *Counter) Shard(i uint64) *CounterShard {
	return &c.shards[i%NumShards]
}

// Value returns the counter's current total across all shards. It is a
// racy-but-monotonic snapshot: shards are read one atomic load at a time,
// which is exactly the consistency a scrape needs.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.shards {
		total += c.shards[i].n.Load()
	}
	return total
}

// Gauge is a settable instantaneous value (current connections, queue
// depth). A single padded atomic: gauges are read-mostly and their writers
// are rarely hot enough to shard. The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }
