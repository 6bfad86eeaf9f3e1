package load

import (
	"sync/atomic"

	"github.com/recursive-restart/mercury/internal/obs"
)

// ReqMetrics aggregates the process-wide request-plane counters
// (mercury_req_* family). Like the bus counters they are incremented
// unconditionally through per-engine shards and only read when an obs
// registry renders them.
type ReqMetrics struct {
	Issued    obs.Counter // arrivals admitted to the engine
	OK        obs.Counter // requests completed within deadline
	Slow      obs.Counter // successes slower than their SlowAfter
	Failed    obs.Counter // requests failed (timeout, NAK or shed)
	Shed      obs.Counter // subset of failed: arena full at the client edge
	StaleAcks obs.Counter // acks arriving after their request retired
	InFlight  obs.Gauge   // active request records
	Broken    obs.Gauge   // users with a currently-broken session
}

// M is the process-wide request-plane metrics instance.
var M ReqMetrics

// reqShardSeq hands out shard indices to engines round-robin.
var reqShardSeq atomic.Uint64

// reqCounters is one engine's pre-resolved shard set, so parallel trials
// (one engine per worker) never share a counter cache line.
type reqCounters struct {
	issued, ok, slow, failed, shed, stale *obs.CounterShard
	inflight, broken                      *obs.Gauge
}

func newReqCounters() reqCounters {
	i := reqShardSeq.Add(1)
	return reqCounters{
		issued:   M.Issued.Shard(i),
		ok:       M.OK.Shard(i),
		slow:     M.Slow.Shard(i),
		failed:   M.Failed.Shard(i),
		shed:     M.Shed.Shard(i),
		stale:    M.StaleAcks.Shard(i),
		inflight: &M.InFlight,
		broken:   &M.Broken,
	}
}

// RegisterMetrics registers the request-plane counter families with an
// obs registry under the mercury_req_* namespace.
func RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("mercury_req_issued_total",
		"User requests admitted by the load engine.", &M.Issued)
	r.RegisterCounter("mercury_req_completed_total",
		"Requests completed, by user-visible outcome.", &M.OK, "outcome", "ok")
	r.RegisterCounter("mercury_req_completed_total",
		"Requests completed, by user-visible outcome.", &M.Slow, "outcome", "slow")
	r.RegisterCounter("mercury_req_completed_total",
		"Requests completed, by user-visible outcome.", &M.Failed, "outcome", "failed")
	r.RegisterCounter("mercury_req_shed_total",
		"Requests shed at the client edge (record arena full).", &M.Shed)
	r.RegisterCounter("mercury_req_stale_acks_total",
		"Acks that arrived after their request was retired.", &M.StaleAcks)
	r.RegisterGauge("mercury_req_inflight",
		"Request records currently in flight.", &M.InFlight)
	r.RegisterGauge("mercury_req_broken_sessions",
		"Users whose session is currently broken.", &M.Broken)
}
