package ckpt

import (
	"github.com/recursive-restart/mercury/internal/obs"
)

// CkptMetrics aggregates the process-wide checkpoint-plane counters.
type CkptMetrics struct {
	Snapshots obs.Counter // per-key snapshots taken
	Restores  obs.Counter // component restores executed

	// RestoreSeconds is the modeled restore latency distribution;
	// SnapshotBytes the per-key snapshot size distribution.
	RestoreSeconds *obs.Histogram
	SnapshotBytes  *obs.Histogram
}

// M is the process-wide checkpoint metrics instance.
var M = CkptMetrics{
	RestoreSeconds: obs.NewHistogram(obs.DefBuckets()...),
	SnapshotBytes:  obs.NewValueHistogram(16, 64, 256, 1024, 4096, 16384),
}

// RegisterMetrics registers the checkpoint family with an obs registry
// under the mercury_ckpt_* namespace.
func RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("mercury_ckpt_snapshots_total",
		"Per-key checkpoint snapshots taken.", &M.Snapshots)
	r.RegisterCounter("mercury_ckpt_restores_total",
		"Component state restores executed.", &M.Restores)
	r.RegisterHistogram("mercury_ckpt_restore_seconds",
		"Modeled checkpoint-restore latency.", M.RestoreSeconds)
	r.RegisterHistogram("mercury_ckpt_snapshot_bytes",
		"Per-key snapshot sizes.", M.SnapshotBytes)
}
