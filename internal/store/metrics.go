package store

import (
	"github.com/recursive-restart/mercury/internal/obs"
)

// StoreMetrics aggregates the process-wide crash-only store counters.
// Every operation is a single atomic add on the dispatch context; values
// are only read when an obs registry renders them.
type StoreMetrics struct {
	Gets             obs.Counter // value reads (raw and leased)
	Misses           obs.Counter // reads finding no live value
	Puts             obs.Counter // value writes
	LeaseAcquires    obs.Counter // leases granted (incl. same-owner reattach)
	LeaseConflicts   obs.Counter // acquires refused: live lease, other owner
	LeaseRenewals    obs.Counter // deadline extensions
	LeaseExpirations obs.Counter // entries reclaimed after their lease died
	Sweeps           obs.Counter // deterministic sweeper passes
	Reverts          obs.Counter // checkpoint-restore value reverts

	// ValueBytes is the size distribution of written values.
	ValueBytes *obs.Histogram
}

// M is the process-wide store metrics instance.
var M = StoreMetrics{
	ValueBytes: obs.NewValueHistogram(16, 64, 256, 1024, 4096, 16384),
}

// RegisterMetrics registers the store family with an obs registry under
// the mercury_store_* namespace. Per-store entry/byte gauges are wired by
// the daemon via RegisterGaugeFunc against a concrete Store.
func RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("mercury_store_gets_total",
		"Value reads from the crash-only store.", &M.Gets)
	r.RegisterCounter("mercury_store_misses_total",
		"Reads finding no live value.", &M.Misses)
	r.RegisterCounter("mercury_store_puts_total",
		"Value writes to the crash-only store.", &M.Puts)
	r.RegisterCounter("mercury_store_lease_acquires_total",
		"Leases granted, including same-owner reattach.", &M.LeaseAcquires)
	r.RegisterCounter("mercury_store_lease_conflicts_total",
		"Acquires refused because another owner holds a live lease.", &M.LeaseConflicts)
	r.RegisterCounter("mercury_store_lease_renewals_total",
		"Lease deadline extensions.", &M.LeaseRenewals)
	r.RegisterCounter("mercury_store_lease_expirations_total",
		"Entries reclaimed after their lease expired.", &M.LeaseExpirations)
	r.RegisterCounter("mercury_store_sweeps_total",
		"Deterministic expired-entry sweeper passes.", &M.Sweeps)
	r.RegisterCounter("mercury_store_reverts_total",
		"Checkpoint-restore value reverts.", &M.Reverts)
	r.RegisterHistogram("mercury_store_value_bytes",
		"Size distribution of written values.", M.ValueBytes)
}

// RegisterStoreGauges registers the live-size gauges for one concrete
// store instance.
func RegisterStoreGauges(r *obs.Registry, s *Store) {
	r.RegisterGaugeFunc("mercury_store_entries",
		"Live entries in the crash-only store.",
		func() float64 { return float64(s.Len()) })
	r.RegisterGaugeFunc("mercury_store_bytes",
		"Live value bytes in the crash-only store.",
		func() float64 { return float64(s.Bytes()) })
}
