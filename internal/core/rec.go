package core

import (
	"fmt"
	"strings"
	"time"

	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// RECParams configures the recoverer.
type RECParams struct {
	// Startup is REC's own startup time when (re)started by FD.
	Startup time.Duration
	// DecisionDelay models the oracle-consultation and process-control
	// overhead before pushing a restart button.
	DecisionDelay time.Duration
	// PersistWindow is how soon after a restarted component's ready a new
	// failure report for it counts as "the failure persists" (escalate the
	// same episode) rather than a fresh failure.
	PersistWindow time.Duration
	// MaxRestarts and BudgetWindow bound restarts per component: more than
	// MaxRestarts within BudgetWindow means a hard failure that restarting
	// cannot cure, and the policy gives up (paper §2.2: "the policy also
	// keeps track of past restarts to prevent infinite restarts").
	MaxRestarts  int
	BudgetWindow time.Duration
	// RestartBackoff damps restart storms (layered *under* the budget
	// give-up above): when a component already has n restarts inside
	// BudgetWindow, the next restart action waits an extra
	// RestartBackoff × 2^(n-1), capped at RestartBackoffMax, before the
	// button is pushed. Zero disables damping — the paper's immediate
	// restarts.
	RestartBackoff    time.Duration
	RestartBackoffMax time.Duration
	// FDPingPeriod / FDFailAfter drive REC's monitoring of FD.
	FDPingPeriod time.Duration
	FDTimeout    time.Duration
	FDFailAfter  int

	// ReadyGrace ignores failure reports for a component that is serving
	// and became ready this recently: such reports raced with the
	// recovery's completion (FD had a probe in flight) and acting on them
	// would trigger a spurious second restart.
	ReadyGrace time.Duration

	// Rejuvenate enables proactive restarts (paper §7 health-summary
	// beacons + [9]'s software rejuvenation): when FD relays a component's
	// "suspect" health beacon, REC restarts that component's cell before
	// the aging turns into a failure — provided IdleCheck (if set) says
	// the downtime is cheap right now (§5.2: not during a pass).
	Rejuvenate bool
	// IdleCheck reports whether proactive downtime is acceptable now;
	// nil means always.
	IdleCheck func() bool
	// RejuvenateCooldown throttles proactive restarts per component.
	RejuvenateCooldown time.Duration

	// CkptRestore restores the externalized state of the restart set from
	// the latest checkpoint, returning the modeled restore latency the
	// action must pay before the reboot fires. Nil disables the
	// checkpoint-restore rung even if the policy asks for it.
	CkptRestore func(set []string) (time.Duration, error)
}

// DefaultRECParams returns the calibrated recoverer configuration.
func DefaultRECParams() RECParams {
	return RECParams{
		Startup:       500 * time.Millisecond,
		DecisionDelay: 50 * time.Millisecond,
		PersistWindow: 5 * time.Second,
		MaxRestarts:   6,
		BudgetWindow:  2 * time.Minute,
		FDPingPeriod:  time.Second,
		FDTimeout:     200 * time.Millisecond,
		FDFailAfter:   3,

		ReadyGrace:         1500 * time.Millisecond,
		RejuvenateCooldown: 30 * time.Second,
	}
}

// episode tracks one failure's recovery across escalation attempts.
type episode struct {
	attempt         int
	prevAct         Action    // last action taken; Node nil before the first
	proactive       bool      // prevAct was a rejuvenation restart, not a cure attempt
	awaitingVerdict bool      // restart completed; watching for persistence
	lastReadyAt     time.Time // when the restart action finished
	pendingReady    map[string]bool
	observed        bool        // cured verdict already reported to the policy
	startedAt       time.Time   // when the current attempt's report arrived
	charged         []time.Time // budget charges accrued by this episode, refunded on cure
}

// REC is the recoverer: it owns the restart tree and the policy, receives
// failure reports from FD over the dedicated link, and pushes restart-cell
// buttons via the process manager. It never decides *which* node to
// restart — that is the oracle's job; REC executes, escalates persisting
// episodes, enforces the restart budget, and (special case) monitors and
// recovers FD.
type REC struct {
	params RECParams
	tree   *Tree
	policy *Policy
	mgr    *proc.Manager

	// restartFD performs FD's recovery.
	restartFD func()

	ctx       proc.Context // this incarnation's; its timers die with it
	ready     bool
	seq       uint64
	nonce     uint64
	episodes  map[string]*episode
	inFlight  map[string]bool // component has a decision or restart running
	history   map[string][]time.Time
	abandoned map[string]bool
	lastRejuv map[string]time.Time
	readyAt   map[string]time.Time
	fdNonce   uint64 // nonce of the FD ping awaiting its pong, 0 = none
	fdMissed  int

	// The FD monitoring loop, bound once at Start.
	fdPing, fdVerify func()
}

// RECHandle lets the host read the tree, the policy and the live
// handler's give-up verdicts.
type RECHandle struct {
	tree    *Tree
	policy  *Policy
	current *REC // the latest incarnation
}

// Tree returns the active restart tree.
func (h *RECHandle) Tree() *Tree { return h.tree }

// Oracle returns the active policy.
func (h *RECHandle) Oracle() *Policy { return h.policy }

// Abandoned reports whether the policy has given up on a component.
func (h *RECHandle) Abandoned(component string) bool {
	return h.current != nil && h.current.abandoned[component]
}

// NewREC returns a factory for REC handlers plus a handle on them.
// Procedural state (episodes, budgets) is per-incarnation: a REC
// restart loses it, exactly as a process restart would. The policy is this
// REC's own (a Policy is not shareable between recoverers).
func NewREC(p RECParams, tree *Tree, policy *Policy, mgr *proc.Manager, restartFD func()) (func() proc.Handler, *RECHandle) {
	h := &RECHandle{tree: tree, policy: policy}
	// Restart-completion bookkeeping must survive handler churn, so the
	// subscriptions forward to whichever incarnation is current.
	mgr.OnReady(func(name string) {
		if h.current != nil {
			h.current.onReady(name)
		}
	})
	mgr.OnDown(func(name, reason string) {
		if h.current != nil {
			h.current.onDownEvent(name, reason)
		}
	})
	factory := func() proc.Handler {
		h.current = &REC{
			params:    p,
			tree:      tree,
			policy:    policy,
			mgr:       mgr,
			restartFD: restartFD,
			episodes:  make(map[string]*episode),
			inFlight:  make(map[string]bool),
			history:   make(map[string][]time.Time),
			abandoned: make(map[string]bool),
			lastRejuv: make(map[string]time.Time),
			readyAt:   make(map[string]time.Time),
		}
		return h.current
	}
	return factory, h
}

// Start implements proc.Handler.
func (r *REC) Start(ctx proc.Context) {
	r.ctx = ctx
	ctx.After(r.params.Startup, func() {
		r.ready = true
		ctx.Ready()
		r.fdPing = func() { r.sendFDPing(ctx) }
		r.fdVerify = func() { r.verifyFDPing(ctx) }
		ctx.After(r.params.FDPingPeriod/3, r.fdPing)
	})
}

// Receive implements proc.Handler.
func (r *REC) Receive(ctx proc.Context, m *xmlcmd.Message) {
	switch m.Kind() {
	case xmlcmd.KindEvent:
		if m.From != xmlcmd.AddrFD || !r.ready {
			return
		}
		switch m.Event.Name {
		case "failure":
			r.onFailureReport(ctx, m.Event.Detail)
		case "suspect":
			r.onSuspect(ctx, m.Event.Detail)
		}
	case xmlcmd.KindPing:
		if r.ready {
			r.seq++
			ctx.Send(ctx.Pool().Pong(xmlcmd.AddrREC, m, ctx.Incarnation()))
		}
	case xmlcmd.KindPong:
		if m.From == xmlcmd.AddrFD && m.Pong.Nonce == r.fdNonce {
			r.fdNonce = 0
			r.fdMissed = 0
		}
	}
}

// onFailureReport is the heart of the recovery loop.
func (r *REC) onFailureReport(ctx proc.Context, component string) {
	if r.abandoned[component] {
		return
	}
	if r.inFlight[component] {
		return
	}
	if par := r.mgr.Parent(component); par != "" && !r.mgr.Accepting(par) {
		// The hosting process itself is down: its own failure report
		// governs, and any process-level repair reboots the sub anyway.
		return
	}
	if st, err := r.mgr.State(component); err != nil || st == proc.Starting {
		// Unknown component, or its restart is still under way: the report
		// is stale.
		return
	}
	now := ctx.Now()
	if r.mgr.Serving(component) && now.Sub(r.readyAt[component]) < r.params.ReadyGrace {
		// The component recovered between FD's last probe and this report
		// (detection lag right after a restart completes); acting on it
		// would trigger a spurious second restart. A serving component
		// reported *outside* the grace window is trusted — the process
		// manager's view can be stale (e.g. a hung child process whose
		// supervisor still believes it healthy).
		return
	}

	// A previous episode whose persistence window passed quietly is cured:
	// settle it (verdict + budget refund) before judging the budget, so a
	// recovery that already succeeded never counts against the component.
	ep := r.episodes[component]
	if ep != nil && ep.awaitingVerdict && now.Sub(ep.lastReadyAt) > r.params.PersistWindow {
		r.resolveCured(component, ep)
	}

	// Budget: a component that keeps needing restarts has a hard failure.
	hist := r.history[component]
	cutoff := now.Add(-r.params.BudgetWindow)
	kept := hist[:0]
	for _, at := range hist {
		if at.After(cutoff) {
			kept = append(kept, at)
		}
	}
	r.history[component] = kept
	if len(kept) >= r.params.MaxRestarts {
		r.abandoned[component] = true
		M.RECGiveUps.Inc()
		ctx.Log().Add(now, trace.GiveUp, component, "",
			fmt.Sprintf("restart budget exhausted (%d in %v)", len(kept), r.params.BudgetWindow))
		return
	}

	// Episode continuation: if we just finished restarting for this
	// component and the failure is back immediately, escalate.
	if ep != nil && ep.awaitingVerdict && now.Sub(ep.lastReadyAt) <= r.params.PersistWindow {
		ep.attempt++
		ep.awaitingVerdict = false
		M.RECEscalations.Inc()
		r.observe(component, ep, false)
	} else {
		ep = &episode{attempt: 1}
		r.episodes[component] = ep
		r.policy.ObserveFailure(component, now)
	}
	ep.startedAt = now

	var prev *Action
	if ep.attempt > 1 {
		prev = &ep.prevAct
	}
	act, err := r.policy.ChooseAction(r.tree, component, prev, ep.attempt)
	if err != nil {
		ctx.Log().Add(now, trace.Note, component, "", "oracle error: "+err.Error())
		return
	}
	node := act.Node
	ep.prevAct = act
	ctx.Log().Add(now, trace.OracleGuess, component, node.Label(),
		fmt.Sprintf("policy=%s attempt=%d action=%s", r.policy.Name(), ep.attempt, act.Kind))

	delay := r.params.DecisionDelay
	if bo := r.restartBackoff(len(kept)); bo > 0 {
		delay += bo
		M.RECBackoffWaits.Inc()
		ctx.Log().Add(now, trace.Note, component, node.Label(),
			fmt.Sprintf("restart backoff %v (%d recent restarts)", bo, len(kept)))
	}
	r.inFlight[component] = true
	r.history[component] = append(r.history[component], now)
	ep.charged = append(ep.charged, now)
	ctx.After(delay, func() { r.execute(ctx, component, ep, act) })
}

// execute carries out the chosen action: a checkpoint-restore pays the
// modeled restore latency before the reboot fires (degrading to the plain
// microreboot when no checkpoint covers the set); everything else is a
// plain restart (a microreboot when the action says so: the whole set is
// subcomponents, the cheapest rung — no process is torn down).
func (r *REC) execute(ctx proc.Context, component string, ep *episode, act Action) {
	set := act.Node.Subtree()
	if act.Kind == ActCkptRestore {
		// The rung only exists at an all-sub cell, so its fallback is
		// that cell's microreboot.
		act.Kind = ActMicroreboot
		if r.params.CkptRestore != nil {
			lat, err := r.params.CkptRestore(set)
			if err == nil {
				M.RECCkptRestores.Inc()
				r.push(ctx, component, ep, act.Node, set, lat,
					fmt.Sprintf("ckpt-restore (%v) then reboot [%s]", lat, strings.Join(set, " ")))
				return
			}
			ctx.Log().Add(ctx.Now(), trace.Note, component, act.Node.Label(),
				"ckpt-restore unavailable, falling back to restart: "+err.Error())
		}
	}
	verb := "restarting ["
	if act.Kind == ActMicroreboot {
		M.RECMicroreboots.Inc()
		verb = "microrebooting ["
	}
	r.push(ctx, component, ep, act.Node, set, 0, verb+strings.Join(set, " ")+"]")
}

// push is the one place a restart button gets pressed, for cures and
// rejuvenations alike: it marks the restart set pending on the episode,
// counts the action, logs its RestartRequested line and — after wait, the
// checkpoint-restore latency — presses it.
func (r *REC) push(ctx proc.Context, component string, ep *episode, node *Node, set []string,
	wait time.Duration, detail string) {
	ep.pendingReady = make(map[string]bool, len(set))
	for _, c := range set {
		ep.pendingReady[c] = true
	}
	M.RECRestarts.Inc()
	M.RECRestartsByNode.With(node.Label()).Inc()
	ctx.Log().Add(ctx.Now(), trace.RestartRequested, component, node.Label(), detail)
	if wait > 0 {
		ctx.After(wait, func() { r.press(ctx, component, node, set) })
		return
	}
	r.press(ctx, component, node, set)
}

// press has the process manager kill and respawn the restart set. A
// button that fails clears the in-flight mark so the next failure report
// can act again.
func (r *REC) press(ctx proc.Context, component string, node *Node, set []string) {
	if err := r.mgr.Restart(set); err != nil {
		ctx.Log().Add(ctx.Now(), trace.Note, component, node.Label(), "recovery failed: "+err.Error())
		delete(r.inFlight, component)
	}
}

// restartBackoff computes the exponential damping delay before a restart
// action, given how many restarts the component already has inside the
// budget window. Deterministic (no RNG), so seeded trials stay exact.
func (r *REC) restartBackoff(recent int) time.Duration {
	return clock.Backoff(recent, r.params.RestartBackoff, r.params.RestartBackoffMax)
}

// onReady tracks restart-action completion for episode verdicts. It is
// called for every component ready event in the system.
func (r *REC) onReady(name string) {
	r.readyAt[name] = r.mgr.Clock().Now()
	for comp, ep := range r.episodes {
		if ep.pendingReady == nil || !ep.pendingReady[name] {
			continue
		}
		delete(ep.pendingReady, name)
		if len(ep.pendingReady) == 0 {
			ep.pendingReady = nil
			ep.awaitingVerdict = true
			ep.lastReadyAt = r.mgr.Clock().Now()
			if !ep.startedAt.IsZero() {
				M.RECRecovery.Observe(ep.lastReadyAt.Sub(ep.startedAt))
			}
			delete(r.inFlight, comp)
			r.scheduleVerdict(comp, ep)
		}
	}
}

// onDownEvent watches for a restart action failing outright: a component
// that dies while the action still awaits its ready never completes the
// action, so the episode is closed as a persisting failure — the next
// report escalates instead of deadlocking behind an in-flight action.
func (r *REC) onDownEvent(name, reason string) {
	if reason == proc.ReasonRestart {
		return // our own teardown preceding a respawn
	}
	for comp, ep := range r.episodes {
		if ep.pendingReady == nil || !ep.pendingReady[name] {
			continue
		}
		ep.pendingReady = nil
		ep.awaitingVerdict = true
		ep.lastReadyAt = r.mgr.Clock().Now()
		delete(r.inFlight, comp)
	}
}

// scheduleVerdict settles the episode as cured once the persistence window
// passes without the failure re-manifesting: the policy gets its verdict
// and the restart budget is refunded. A killed REC settles nothing.
func (r *REC) scheduleVerdict(comp string, ep *episode) {
	r.ctx.After(r.params.PersistWindow+100*time.Millisecond, func() {
		if r.episodes[comp] == ep && ep.awaitingVerdict {
			r.resolveCured(comp, ep)
		}
	})
}

// resolveCured closes an episode whose recovery held: beyond the oracle
// verdict, the restart charges the episode accrued are refunded from the
// component's budget. A recovery that succeeded — at any level of the
// ladder, a microreboot included — must leave the process-level restart
// budget untouched; without the refund, a string of independently cured
// cheap failures would eventually trip the give-up threshold that is meant
// for hard failures restarting cannot cure. Idempotent: settling the same
// episode twice (verdict timer + quiet-resolution path) is harmless.
func (r *REC) resolveCured(comp string, ep *episode) {
	if !ep.observed {
		r.observe(comp, ep, true)
	}
	if len(ep.charged) == 0 {
		return
	}
	hist := r.history[comp]
	kept := hist[:0]
	ci := 0
	for _, at := range hist {
		if ci < len(ep.charged) && at.Equal(ep.charged[ci]) {
			ci++
			continue
		}
		kept = append(kept, at)
	}
	r.history[comp] = kept
	ep.charged = nil
}

// observe reports the previous attempt's outcome to the policy, once per
// attempt, with the action taken and its measured report→ready duration —
// the estimator's MTTR feed. A rejuvenation restart was not a cure attempt
// and feeds nothing; if the failure follows it anyway, the episode carries
// on as an ordinary one.
func (r *REC) observe(comp string, ep *episode, cured bool) {
	if !ep.proactive {
		var elapsed time.Duration
		if ep.lastReadyAt.After(ep.startedAt) {
			elapsed = ep.lastReadyAt.Sub(ep.startedAt)
		}
		r.policy.ObserveAction(comp, ep.prevAct, elapsed, cured)
	}
	ep.proactive = false
	ep.observed = cured // a persisted failure re-opens observation
}

// onSuspect handles a relayed health-beacon warning: the component is
// aging but has not failed yet. If rejuvenation is enabled and downtime is
// currently cheap, restart the component's cell proactively — bounded
// software rejuvenation, the MTTF-raising half of recursive restartability.
func (r *REC) onSuspect(ctx proc.Context, component string) {
	if !r.params.Rejuvenate || r.inFlight[component] || r.abandoned[component] {
		return
	}
	if r.params.IdleCheck != nil && !r.params.IdleCheck() {
		return
	}
	now := ctx.Now()
	if last, ok := r.lastRejuv[component]; ok && now.Sub(last) < r.params.RejuvenateCooldown {
		return
	}
	if !r.mgr.Serving(component) {
		return // a real failure is (about to be) handled by the main path
	}
	node, err := r.tree.CellOf(component)
	if err != nil {
		return
	}
	r.lastRejuv[component] = now
	r.inFlight[component] = true
	M.RECRejuvenations.Inc()
	ctx.Log().Add(now, trace.Note, component, node.Label(), "proactive rejuvenation restart")
	ctx.After(r.params.DecisionDelay, func() {
		set := node.Subtree()
		ep := &episode{attempt: 1, prevAct: actionAt(node), proactive: true, startedAt: now}
		r.episodes[component] = ep
		r.push(ctx, component, ep, node, set, 0,
			"rejuvenation restart of ["+strings.Join(set, " ")+"]")
	})
}

// sendFDPing monitors FD over the dedicated link; REC performs FD's
// recovery (the paper's other special case). One ping is in flight at a
// time: its verification schedules the next.
func (r *REC) sendFDPing(ctx proc.Context) {
	r.nonce++
	r.fdNonce = r.nonce
	r.seq++
	ctx.Send(ctx.Pool().Ping(xmlcmd.AddrREC, xmlcmd.AddrFD, r.seq, r.nonce))
	ctx.After(r.params.FDTimeout, r.fdVerify)
}

// verifyFDPing: fdNonce is still set only if the pong never arrived.
func (r *REC) verifyFDPing(ctx proc.Context) {
	if r.fdNonce != 0 {
		r.fdMissed++
		if r.fdMissed >= r.params.FDFailAfter {
			r.fdMissed = 0
			M.RECFDRecoveries.Inc()
			ctx.Log().Add(ctx.Now(), trace.FailureDetected, xmlcmd.AddrFD, "",
				"rec initiating fd recovery")
			if r.restartFD != nil {
				r.restartFD()
			}
		}
	}
	ctx.After(r.params.FDPingPeriod-r.params.FDTimeout, r.fdPing)
}
