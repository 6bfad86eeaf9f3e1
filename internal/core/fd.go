package core

import (
	"time"

	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// FDParams configures the failure detector.
type FDParams struct {
	// PingPeriod is the per-target liveness ping interval (paper: 1 s,
	// chosen to minimise detection time without overloading mbus).
	PingPeriod time.Duration
	// PingTimeout is how long FD waits for the application-level pong.
	PingTimeout time.Duration
	// SuspectAfter is how many consecutive missed pongs a target accrues
	// before FD suspects it. The paper's detector — and the default, 1 —
	// suspects on the first miss, which melts down into restart storms on
	// a merely lossy (rather than dead) bus; raising the threshold trades
	// a little detection latency for loss tolerance.
	SuspectAfter int
}

// DefaultFDParams returns the paper's detector configuration.
func DefaultFDParams() FDParams {
	return FDParams{
		PingPeriod:   time.Second,
		PingTimeout:  200 * time.Millisecond,
		SuspectAfter: 1,
	}
}

// The windows below follow from the ping timings (DESIGN.md §16), so a
// slower detector widens them and nothing restates them by hand.

// ReReportInterval throttles FD's repeat reports for a still-failed
// target: two ping periods.
func (p FDParams) ReReportInterval() time.Duration { return 2 * p.PingPeriod }

// PersistWindow is how soon after a restarted component's ready a new
// failure report for it counts as "the failure persists" (REC escalates
// the same episode) rather than a fresh failure: two re-reports, and at
// least 5 s.
func (p FDParams) PersistWindow() time.Duration {
	return max(5*time.Second, 2*p.ReReportInterval())
}

// ReadyGrace is how long REC ignores failure reports for a component that
// is serving and became ready this recently: such reports raced with the
// recovery's completion (FD had a probe in flight), and acting on them
// would trigger a spurious second restart. One probe cycle, and at least
// 1.5 s.
func (p FDParams) ReadyGrace() time.Duration {
	return max(1500*time.Millisecond, p.PingPeriod+p.PingTimeout)
}

// FD is the failure detector: it liveness-pings every monitored component
// over mbus (and the mbus broker itself), and reports failures to REC over
// their dedicated link. Because an mbus outage makes every target look
// dead at once, FD diagnoses the broker first: while the broker is
// suspected, only the broker is reported; and a missed pong counts only
// if FD was running to see it and the bus was up to carry it (see voided).
//
// FD also watches REC over the dedicated link and, as the paper's special
// case requires, restarts REC itself when REC dies or hangs (the
// procedural knowledge for everything else lives in REC). A dead or hung
// FD does nothing at all: every loop below checks the watcher's gate.
// The components' health beacons (paper §7) are addressed to FD, which
// drops them: nothing reads them.
type FD struct {
	watcher
	params  FDParams
	targets []string // the handle's: shared by every incarnation, never modified
	broker  string

	targetSt       []targetState // by index in targets, one slab per incarnation
	brokerSt       *targetState  // the broker's, if it is a target
	lastBrokerPong time.Time
	busProvenAt    time.Time            // FDHandle.BusProven: when the host last saw the bus route again
	lastReport     map[string]time.Time // the re-report throttle, by the name reported
}

// targetState is FD's per-component suspicion bookkeeping, and its probe's
// events are the record itself under other types (probePing, probeVerify,
// brokerCheck, brokerRetry): exactly one probe per target is in flight, so
// the ping loop schedules the same pointers forever without allocating.
// The same holds for the broker verification a suspicion starts: its K
// attempts (K = SuspectAfter) end K·PingTimeout after the suspicion, and
// the target cannot be suspected again before a ping period plus K-1
// timeouts have passed — later by PingPeriod - PingTimeout. So the one
// verification's state lives here too, in brokerProbeAt and brokerAttempt.
type targetState struct {
	fd     *FD
	target string

	brokerProbeAt time.Time // when the verification's current broker probe was sent
	brokerAttempt int       // which attempt that probe is, from 1

	outstanding uint64 // nonce awaiting pong, 0 = none
	missed      int    // consecutive missed pongs (reset by any pong)
	suspected   bool
	sentAt      time.Time // when the outstanding probe was sent
	firstMissAt time.Time // send time of the miss streak's first probe
}

// A target's events: each converts the record it drives, so arming one
// allocates nothing and grows nothing.
type (
	probePing   targetState // sends the target's ping
	probeVerify targetState // judges it PingTimeout later
	brokerCheck targetState // settles a suspicion's broker verification
	brokerRetry targetState // sends that verification's next attempt
)

func (e *probePing) Fire()   { st := (*targetState)(e); st.fd.sendPing(st) }
func (e *probeVerify) Fire() { st := (*targetState)(e); st.fd.verifyPing(st) }
func (e *brokerCheck) Fire() { st := (*targetState)(e); st.fd.checkBroker(st) }

func (e *brokerRetry) Fire() {
	st := (*targetState)(e)
	if st.fd.up && st.suspected {
		st.fd.verifyBroker(st, st.brokerAttempt+1)
	}
}

// fdUp ends FD's startup: it starts the ping loops, staggered so the bus
// sees a smooth ping stream, then the watch of REC.
type fdUp FD

func (e *fdUp) Fire() {
	fd := (*FD)(e)
	fd.ready()
	for i := range fd.targetSt {
		offset := time.Duration(i) * fd.params.PingPeriod / time.Duration(len(fd.targets)+1)
		fd.ctx.Schedule(offset, (*probePing)(&fd.targetSt[i]))
	}
	fd.watch(fd.params.PingPeriod / 2)
}

// FDHandle exposes the live failure detector's view to the host (tests,
// the ops endpoints). FD state belongs to the dispatch context: callers
// off that context must wrap every accessor in rt.Dispatcher.Call.
type FDHandle struct {
	targets []string
	current *FD // the latest incarnation
}

// Targets returns the monitored component names.
func (h *FDHandle) Targets() []string {
	return append([]string(nil), h.targets...)
}

// Suspected reports the live incarnation's suspicion for a target; false
// while FD is restarting.
func (h *FDHandle) Suspected(target string) bool {
	return h.current != nil && h.current.Suspected(target)
}

// BusProven tells the live incarnation that at at, after a broker outage,
// the host saw the bus route again (every client it runs registered with
// the restarted broker): an unanswered probe sent before that proves
// nothing (see voided). Only a fabric with connections has this to say;
// nothing calls it on bus.Sim, which routes the instant mbus is ready.
func (h *FDHandle) BusProven(at time.Time) {
	if fd := h.current; fd != nil {
		fd.busProvenAt = at
	}
}

// NewFD returns a factory for FD handlers plus a handle onto the live
// incarnation. targets are the monitored components (including the broker);
// broker names the message bus; mgr hosts FD and REC, and restarts REC.
func NewFD(p FDParams, targets []string, broker string, mgr *proc.Manager) (func() proc.Handler, *FDHandle) {
	h := &FDHandle{targets: append([]string(nil), targets...)}
	factory := func() proc.Handler {
		fd := &FD{
			watcher:    newWatcher(xmlcmd.AddrFD, xmlcmd.AddrREC, mgr, p, &fdWatch),
			params:     p,
			targets:    h.targets,
			broker:     broker,
			targetSt:   make([]targetState, len(h.targets)),
			lastReport: make(map[string]time.Time),
		}
		for i, target := range h.targets {
			fd.targetSt[i].fd, fd.targetSt[i].target = fd, target
		}
		fd.brokerSt = fd.state(broker)
		h.current = fd
		return fd
	}
	return factory, h
}

// Start implements proc.Handler.
func (fd *FD) Start(ctx proc.Context) {
	fd.start(ctx, (*fdUp)(fd))
}

// state returns a target's suspicion bookkeeping, nil for a name FD does
// not monitor. A station has half a dozen targets, so a scan beats a map.
func (fd *FD) state(target string) *targetState {
	for i, t := range fd.targets {
		if t == target {
			return &fd.targetSt[i]
		}
	}
	return nil
}

// sendPing sends one liveness ping and schedules its verification; the
// verification schedules the next ping, so exactly one probe per target is
// in flight.
func (fd *FD) sendPing(st *targetState) {
	if !fd.up {
		return
	}
	ctx := fd.ctx
	fd.nonce++
	st.outstanding = fd.nonce
	st.sentAt = ctx.Now()
	fd.seq++
	M.FDPingsSent.Inc()
	ctx.Send(ctx.Pool().Ping(xmlcmd.AddrFD, st.target, fd.seq, fd.nonce))
	ctx.Schedule(fd.params.PingTimeout, (*probeVerify)(st))
}

// verifyPing runs PingTimeout after sendPing. With one probe in flight,
// outstanding is either that probe's nonce or 0 (its pong arrived).
func (fd *FD) verifyPing(st *targetState) {
	if !fd.up {
		return
	}
	ctx := fd.ctx
	if st.outstanding != 0 && !fd.voided(st.sentAt) {
		// No pong: the target is fail-silent, unreachable, or the bus
		// lost a frame.
		st.outstanding = 0
		st.missed++
		M.FDPongsMissed.Inc()
		if st.missed == 1 {
			st.firstMissAt = st.sentAt
		}
		// The K-miss threshold applies to every suspicion, not just the
		// first: a sticky suspected flag would turn one unlucky probe
		// into a hair-trigger detector for the rest of the target's life.
		if st.missed < fd.suspectAfter() {
			// Inconclusive under the K-miss threshold: re-probe at once
			// instead of waiting out the full period, so a real failure
			// costs ~K·PingTimeout, not K periods.
			ctx.Schedule(0, (*probePing)(st))
			return
		}
		st.missed = 0
		fd.suspect(st)
	}
	ctx.Schedule(fd.params.PingPeriod-fd.params.PingTimeout, (*probePing)(st))
}

// voided reports (and counts) that an unanswered probe sent at sentAt proves
// nothing about its target: its verification fired more than a PingTimeout
// late (FD's host was not running, and the pong may be queued behind the
// timer), or it was sent before the bus was last proven up (BusProven). The
// next round decides instead, so a target that died during a broker outage
// is suspected within PingPeriod + PingTimeout of the bus's return, up to a
// PingPeriod later than before. Neither happens on the deterministic
// kernel: timers fire on time and nothing calls BusProven.
func (fd *FD) voided(sentAt time.Time) bool {
	switch {
	case fd.ctx.Now().Sub(sentAt) > 2*fd.params.PingTimeout:
		M.FDVoidedLate.Inc()
	case sentAt.Before(fd.busProvenAt):
		M.FDVoidedBus.Inc()
	default:
		return false
	}
	return true
}

// suspectAfter returns the effective K-consecutive-miss threshold.
func (fd *FD) suspectAfter() int {
	if fd.params.SuspectAfter > 1 {
		return fd.params.SuspectAfter
	}
	return 1
}

// suspect marks the target failed and reports it to REC, subject to the
// broker-first rule and the re-report throttle. A silent non-broker target
// is indistinguishable from a dead bus, so before blaming the component FD
// probes the broker out of band: if the broker answers, the component is
// really down; if not, the broker is the diagnosis (paper: "mbus itself is
// monitored as well").
func (fd *FD) suspect(st *targetState) {
	ctx, target := fd.ctx, st.target
	st.suspected = true
	M.FDSuspicions.Inc()
	if !st.firstMissAt.IsZero() {
		M.FDDetect.Observe(ctx.Now().Sub(st.firstMissAt))
		st.firstMissAt = time.Time{}
	}
	if target == fd.broker {
		fd.report(ctx, target, "reported to rec")
		return
	}
	if b := fd.brokerSt; b != nil && b.suspected {
		// The bus is already the diagnosis; re-reporting will catch real
		// casualties once it recovers.
		return
	}
	fd.verifyBroker(st, 1)
}

// verifyBroker probes the broker out of band before blaming target. Under
// SuspectAfter > 1 a lost verification probe is retried up to the same K
// threshold — otherwise a lossy (but live) bus would get the broker
// blamed on a single dropped frame, and a false mbus restart is the most
// expensive mistake the detector can make.
func (fd *FD) verifyBroker(st *targetState, attempt int) {
	ctx := fd.ctx
	st.brokerProbeAt, st.brokerAttempt = ctx.Now(), attempt
	fd.nonce++
	fd.seq++
	M.FDPingsSent.Inc()
	M.FDVerifications.Inc()
	ctx.Send(ctx.Pool().Ping(xmlcmd.AddrFD, fd.broker, fd.seq, fd.nonce))
	ctx.Schedule(fd.params.PingTimeout, (*brokerCheck)(st))
}

// checkBroker runs PingTimeout after verifyBroker's probe and settles the
// blame: the target's if the broker answered the probe, the broker's once
// the attempts are used up.
func (fd *FD) checkBroker(st *targetState) {
	if !fd.up || !st.suspected {
		return // down, or the target answered a later ping meanwhile
	}
	ctx := fd.ctx
	if fd.lastBrokerPong.After(st.brokerProbeAt) {
		fd.report(ctx, st.target, "reported to rec")
		return
	}
	if fd.voided(st.brokerProbeAt) {
		return // nor is the broker blamed on such a round; the target's next miss asks again
	}
	if st.brokerAttempt < fd.suspectAfter() {
		ctx.Schedule(0, (*brokerRetry)(st))
		return
	}
	if b := fd.brokerSt; b != nil {
		b.suspected = true
		fd.report(ctx, fd.broker, "reported to rec")
	}
}

// report delivers a failure report on name over the dedicated link,
// throttled per name; detail is its trace line's.
func (fd *FD) report(ctx proc.Context, name, detail string) {
	now := ctx.Now()
	if last, ok := fd.lastReport[name]; ok && now.Sub(last) < fd.params.ReReportInterval() {
		return
	}
	fd.lastReport[name] = now
	M.FDReports.Inc()
	ctx.Log().Add(now, trace.FailureDetected, name, "", detail)
	fd.seq++
	ctx.Send(ctx.Pool().Event(xmlcmd.AddrFD, xmlcmd.AddrREC, fd.seq, "failure", name))
}

// Receive implements proc.Handler.
func (fd *FD) Receive(ctx proc.Context, m *xmlcmd.Message) {
	if fd.answer(ctx, m) {
		return
	}
	switch m.Kind() {
	case xmlcmd.KindPong:
		st := fd.state(m.From)
		if st == nil {
			return
		}
		if m.From == fd.broker {
			// Any broker pong proves bus liveness, including out-of-band
			// verification probes.
			fd.lastBrokerPong = ctx.Now()
			st.suspected = false
			st.missed = 0
		}
		if m.Pong.Nonce == st.outstanding {
			st.outstanding = 0
			st.suspected = false
			st.missed = 0
			st.firstMissAt = time.Time{}
			M.FDPongs.Inc()
			M.FDRTT.Observe(ctx.Now().Sub(st.sentAt))
		}
	case xmlcmd.KindEvent:
		// Subcomponent failures are self-reported by the hosting process:
		// the container's intact shell catches the crashed subcomponent and
		// raises a "subfault" event naming it (e.g. ses.cache). The detector
		// relays it to REC like any other failure, with the usual re-report
		// throttle — in-process assertion beats ping timeouts by an order of
		// magnitude, which is most of the microreboot MTTR win.
		if m.Event.Name == "subfault" && fd.up {
			fd.report(ctx, m.Event.Detail, "subfault reported to rec")
		}
	}
}

// Suspected reports FD's current suspicion for a target (for tests and the
// ops console).
func (fd *FD) Suspected(target string) bool {
	st := fd.state(target)
	return st != nil && st.suspected
}
