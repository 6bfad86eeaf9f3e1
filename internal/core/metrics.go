package core

import (
	"github.com/recursive-restart/mercury/internal/obs"
)

// CoreMetrics aggregates the process-wide runtime counters for the
// detection/recovery stack: the failure detector's probe traffic and
// verdicts, and the recoverer's restart actions. Counters are incremented
// unconditionally on the dispatch context — a single atomic add — and only
// read when an obs registry renders them, so goldens and campaigns are
// unaffected.
type CoreMetrics struct {
	// Failure detector.
	FDPingsSent     obs.Counter // liveness pings sent (targets + REC + verification)
	FDPongs         obs.Counter // pongs matched to an outstanding probe
	FDPongsMissed   obs.Counter // probes that timed out unanswered
	FDSuspicions    obs.Counter // targets crossing the K-miss threshold
	FDVerifications obs.Counter // out-of-band broker probes before blaming a target
	FDReports       obs.Counter // failure reports delivered to REC
	FDRECRecoveries obs.Counter // special-case REC recoveries initiated by FD
	FDVoidedLate    obs.Counter // rounds voided: the verification fired late, FD was not running
	FDVoidedBus     obs.Counter // rounds voided: probe sent before the bus was last proven up

	// FDRTT is the ping→pong round trip for matched probes; FDDetect is
	// first missed probe → suspicion, the detector's contribution to MTTR.
	FDRTT    *obs.Histogram
	FDDetect *obs.Histogram

	// Recoverer.
	RECRestarts       obs.Counter     // restart actions pushed (any node)
	RECRestartsByNode *obs.CounterVec // same, labeled by restart-tree node
	RECEscalations    obs.Counter     // persisting episodes escalated to a wider node
	RECMicroreboots   obs.Counter     // recovery actions resolved as pure microreboots
	RECBackoffWaits   obs.Counter     // restart actions damped by exponential backoff
	RECGiveUps        obs.Counter     // components abandoned on budget exhaustion
	RECFDRecoveries   obs.Counter     // special-case FD recoveries initiated by REC

	// RECRecovery is failure report → restart set fully ready: the
	// recoverer's end-to-end repair time for one action.
	RECRecovery *obs.Histogram

	// RECCkptRestores counts recovery actions executed as
	// checkpoint-restores (restore externalized state, then reboot).
	RECCkptRestores obs.Counter

	// Oracle v2 estimator plane.
	OracleDecisions     *obs.CounterVec // policy decisions by action kind
	OracleOutcomes      *obs.CounterVec // attempt outcomes: cured / persisted
	OracleMTTFEst       *obs.Histogram  // observed failure inter-arrivals per site
	OracleActionSeconds *obs.Histogram  // observed recovery-action durations
	OraclePredictedHarm *obs.Histogram  // predicted harm of the chosen action
}

// M is the process-wide core metrics instance. FD/REC run on a single
// dispatch context per station, so plain Inc on shard 0 is uncontended.
var M = CoreMetrics{
	FDRTT:               obs.NewHistogram(obs.DefBuckets()...),
	FDDetect:            obs.NewHistogram(obs.DefBuckets()...),
	RECRestartsByNode:   obs.NewCounterVec(),
	RECRecovery:         obs.NewHistogram(obs.DefBuckets()...),
	OracleDecisions:     obs.NewCounterVec(),
	OracleOutcomes:      obs.NewCounterVec(),
	OracleMTTFEst:       obs.NewHistogram(obs.DefBuckets()...),
	OracleActionSeconds: obs.NewHistogram(obs.DefBuckets()...),
	OraclePredictedHarm: obs.NewValueHistogram(1, 10, 100, 1e3, 1e4, 1e5, 1e6),
}

// RegisterMetrics registers the detection/recovery families with an obs
// registry under the mercury_fd_* / mercury_rec_* namespaces.
func RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("mercury_fd_pings_sent_total",
		"Liveness pings sent by the failure detector.", &M.FDPingsSent)
	r.RegisterCounter("mercury_fd_pongs_total",
		"Pongs matched to an outstanding probe.", &M.FDPongs)
	r.RegisterCounter("mercury_fd_pongs_missed_total",
		"Probes that timed out without a pong.", &M.FDPongsMissed)
	r.RegisterCounter("mercury_fd_suspicions_total",
		"Targets crossing the K-consecutive-miss threshold.", &M.FDSuspicions)
	r.RegisterCounter("mercury_fd_broker_verifications_total",
		"Out-of-band broker probes before blaming a silent target.", &M.FDVerifications)
	r.RegisterCounter("mercury_fd_reports_total",
		"Failure reports delivered to the recoverer.", &M.FDReports)
	r.RegisterCounter("mercury_fd_rec_recoveries_total",
		"Special-case REC recoveries initiated by the failure detector.", &M.FDRECRecoveries)
	r.RegisterCounter("mercury_fd_voided_rounds_total",
		"Unanswered probes the failure detector did not act on, by reason.", &M.FDVoidedLate, "reason", "late-timer")
	r.RegisterCounter("mercury_fd_voided_rounds_total",
		"Unanswered probes the failure detector did not act on, by reason.", &M.FDVoidedBus, "reason", "bus-unproven")
	r.RegisterHistogram("mercury_fd_rtt_seconds",
		"Ping-to-pong round trip for matched probes.", M.FDRTT)
	r.RegisterHistogram("mercury_fd_detect_seconds",
		"First missed probe to suspicion.", M.FDDetect)

	r.RegisterCounter("mercury_rec_restarts_total",
		"Restart actions pushed by the recoverer.", &M.RECRestarts)
	r.RegisterCounterVec("mercury_rec_restarts_by_node_total",
		"Restart actions by restart-tree node.", "node", M.RECRestartsByNode)
	r.RegisterCounter("mercury_rec_escalations_total",
		"Persisting episodes escalated past the first attempt.", &M.RECEscalations)
	r.RegisterCounter("mercury_rec_microreboots_total",
		"Recovery actions resolved as pure subcomponent microreboots.", &M.RECMicroreboots)
	r.RegisterCounter("mercury_rec_backoff_waits_total",
		"Restart actions damped by exponential backoff.", &M.RECBackoffWaits)
	r.RegisterCounter("mercury_rec_give_ups_total",
		"Components abandoned on restart-budget exhaustion.", &M.RECGiveUps)
	r.RegisterCounter("mercury_rec_fd_recoveries_total",
		"Special-case FD recoveries initiated by the recoverer.", &M.RECFDRecoveries)
	r.RegisterHistogram("mercury_rec_recovery_seconds",
		"Failure report to restart set fully ready.", M.RECRecovery)
	r.RegisterCounter("mercury_rec_ckpt_restores_total",
		"Recovery actions executed as checkpoint-restores.", &M.RECCkptRestores)

	r.RegisterCounterVec("mercury_oracle_decisions_total",
		"Oracle v2 decisions by recovery-action kind.", "action", M.OracleDecisions)
	r.RegisterCounterVec("mercury_oracle_outcomes_total",
		"Recovery-attempt outcomes observed by the estimator.", "outcome", M.OracleOutcomes)
	r.RegisterHistogram("mercury_oracle_mttf_estimate_seconds",
		"Observed failure inter-arrival times per manifest site.", M.OracleMTTFEst)
	r.RegisterHistogram("mercury_oracle_action_seconds",
		"Observed recovery-action durations.", M.OracleActionSeconds)
	r.RegisterHistogram("mercury_oracle_predicted_harm",
		"Predicted user harm of the chosen action (harm-rate-weighted seconds).", M.OraclePredictedHarm)
}
