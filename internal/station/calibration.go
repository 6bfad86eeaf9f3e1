// Package station implements the Mercury ground-station components as
// restartable actors: the satellite estimator (ses), satellite tracker
// (str), radio tuner (rtu), the monolithic front-end driver (fedrcom) and
// its split successors (fedr + pbcom).
//
// The components reproduce the failure-relevant behaviours the paper
// measures:
//
//   - startup durations calibrated near the paper's restart times,
//     stretched under whole-system restart contention;
//   - the ses↔str startup resynchronisation artifact: restarting one
//     inevitably crashes the other (f_ses ≈ f_str ≈ 0, f_{ses,str} ≈ 1);
//   - pbcom's slow serial-port negotiation (high MTTR, high MTTF) versus
//     fedr's quick restart but buggy translator (low MTTR, low MTTF);
//   - pbcom aging: every severed fedr connection ages pbcom until it
//     eventually fails — the correlated-failure tail the paper observed.
package station

import (
	"time"

	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/orbit"
	"github.com/recursive-restart/mercury/internal/proc"
)

// The station's calibration, stated once: every duration, rate and limit
// the components run on. The startups are set so the reproduced tables
// land near the paper's measurements; AnalyticParams prices restarts from
// the same values. DESIGN.md §6 lists each with what it calibrates.
const (
	// Base startup times, before contention stretch and jitter.
	MBusStartup    = 5000 * time.Millisecond
	FedrcomStartup = 20200 * time.Millisecond // serial negotiation + translator init
	FedrStartup    = 5050 * time.Millisecond
	PbcomStartup   = 20500 * time.Millisecond // dominated by serial negotiation
	SesStartup     = 3500 * time.Millisecond
	StrStartup     = 3750 * time.Millisecond
	RtuStartup     = 4900 * time.Millisecond

	// StartupJitterFrac randomises each startup by ±frac.
	StartupJitterFrac = 0.02

	// SyncSettle is the time ses/str take to finish resynchronising after
	// agreeing on a session epoch.
	SyncSettle = 1200 * time.Millisecond
	// syncRetransmit is the period at which a component in WAIT_SYNC
	// re-proposes its epoch (covers losses while mbus restarts).
	syncRetransmit = time.Second

	// connectRetransmit is fedr's reconnect retry period toward pbcom.
	connectRetransmit = time.Second

	// pbcomAgeLimit is how many severed fedr connections pbcom survives
	// before its accumulated aging kills it (paper §4.2: "multiple fedr
	// failures eventually lead to a pbcom failure").
	pbcomAgeLimit = 6

	// tuneTime is the radio synthesizer settle time per retune.
	tuneTime = 150 * time.Millisecond

	// TelemetryPeriod is how often ses publishes pointing/tuning updates
	// during a pass.
	TelemetryPeriod = 2 * time.Second

	// healthPeriod is the health-summary beacon period.
	healthPeriod = 5 * time.Second

	// The tracker's antenna: ~5.7 deg/s, a typical az/el rotator, and a
	// wide UHF yagi beam.
	antennaSlewRateRad  = 0.10
	antennaBeamwidthRad = 0.30

	// carrierHz is the downlink the rtu keeps tuned (Doppler-corrected).
	carrierHz = 437.1e6

	// Micro mode (micro.go). microrebootTime is the subcomponent re-init
	// time: drop logic, reattach to store state.
	microrebootTime = 250 * time.Millisecond
	// reattachSettle replaces SyncSettle when a restarted component adopts
	// the surviving session epoch from the store instead of handshaking
	// with its peer.
	reattachSettle = 300 * time.Millisecond
	// subFaultDetect is the in-process assertion latency: how quickly the
	// hosting container catches a crashed subcomponent and reports it.
	subFaultDetect = 200 * time.Millisecond
	// subReReport is the re-report period while a subcomponent stays
	// broken (covers report loss and REC restarts).
	subReReport = 2 * time.Second
	// sessionTTL is the store lease TTL on externalized state; components
	// renew at a third of it. Once every holder is dead for a full TTL the
	// state dies with them — the crash-only contract.
	sessionTTL = 30 * time.Second
)

// The two prices of the analytic model not read off the simulation.
const (
	// modelDetectSeconds is the model's mean detection latency. The
	// simulator's detection runs 0.4–1.3 s with the fault's phase against FD's 1 s
	// ping round: ≈ 0.6 s for a fault injected as Boot returns, ≈ 0.86 s
	// averaged over the phase. The model keeps the 0.75 s its oracle
	// goldens were scored with.
	modelDetectSeconds = 0.75
	// modelMicrorebootSeconds is the price of a microreboot rung. It is not
	// microrebootTime + reattachSettle (0.55 s): making it so would reprice
	// every micro tree, a change to the model rather than to its statement.
	modelMicrorebootSeconds = 0.6
)

// AnalyticParams returns the cost constants of the §7 analytic model, priced
// from the calibration above: a component's restart costs its startup (plus
// the resync settle for ses and str), REC's decision delay and the
// manager's contention stretch are the simulator's own.
func AnalyticParams() core.AnalyticParams {
	restart := map[string]float64{
		MBus: MBusStartup.Seconds(), Fedr: FedrStartup.Seconds(), Pbcom: PbcomStartup.Seconds(),
		SES: (SesStartup + SyncSettle).Seconds(), STR: (StrStartup + SyncSettle).Seconds(),
		RTU: RtuStartup.Seconds(), Fedrcom: FedrcomStartup.Seconds(),
	}
	// Microreboot rungs (micro-augmented trees only). Absent from classic
	// trees, so classic scores are untouched.
	for parent, subs := range MicroSubs() {
		for _, sub := range subs {
			restart[proc.SubName(parent, sub)] = modelMicrorebootSeconds
		}
	}
	return core.AnalyticParams{
		RestartSeconds:    restart,
		DetectSeconds:     modelDetectSeconds,
		DecisionSeconds:   core.DefaultRECParams().DecisionDelay.Seconds(),
		ContentionPerPeer: proc.DefaultContentionPerPeer,
	}
}

// Workload returns the tracking workload: the satellite, its elements
// anchored at epoch, and the ground station it is tracked from.
func Workload(epoch time.Time) (orbit.Elements, orbit.Station) {
	return orbit.SSOElements(epoch), orbit.StanfordStation()
}
