package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// RECParams configures the recoverer.
type RECParams struct {
	// DecisionDelay models the oracle-consultation and process-control
	// overhead before pushing a restart button.
	DecisionDelay time.Duration
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

	// CkptRestore restores the externalized state of the restart set from
	// the latest checkpoint, returning the modeled restore latency the
	// action must pay before the reboot fires. Nil disables the
	// checkpoint-restore rung even if the policy asks for it.
	CkptRestore func(set []string) (time.Duration, error)
}

// DefaultRECParams returns the calibrated recoverer configuration.
func DefaultRECParams() RECParams {
	return RECParams{
		DecisionDelay: 50 * time.Millisecond,
		MaxRestarts:   6,
		BudgetWindow:  2 * time.Minute,
	}
}

// phase is where an episode's current attempt stands (DESIGN.md §15).
// An attempt only moves forward, and each gets one verdict: cured or
// persisted. Escalation starts the next attempt at deciding.
type phase uint8

const (
	deciding   phase = iota // action chosen, button not pushed yet
	restarting              // button pushed, restart set not yet all ready
	verdict                 // set ready, PersistWindow not yet passed
	cured                   // the window passed quietly; the episode ends
	persisted               // the failure came back in the window, or the set died before it was ready
)

// episode is one failure's recovery across escalation attempts.
type episode struct {
	phase     phase
	attempt   int
	act       Action          // the current attempt's action
	startedAt time.Time       // when the current attempt's report arrived
	settledAt time.Time       // verdict: when the set was ready; persisted: when it was known
	waiting   map[string]bool // restarting: set members not yet ready since the press
	charged   []time.Time     // budget charges of this episode, refunded on cure
}

// REC is the recoverer: it owns the restart tree and the policy, receives
// failure reports from FD over the dedicated link, and pushes restart-cell
// buttons via the process manager. It never decides *which* node to
// restart — that is the oracle's job; REC executes, escalates persisting
// episodes, enforces the restart budget, and (special case) watches and
// recovers FD. A dead or hung recoverer does nothing: it settles no
// episode, pushes no button and blames FD for nothing.
type REC struct {
	watcher        // its mgr hosts the station
	params         RECParams
	persist, grace time.Duration // FDParams.PersistWindow and ReadyGrace
	tree           *Tree
	policy         *Policy

	ctx       proc.Context // this incarnation's; its timers die with it
	episodes  map[string]*episode
	history   map[string][]time.Time
	abandoned map[string]bool
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
// REC's own (a Policy is not shareable between recoverers). REC watches FD
// on fd's ping timings, and its persist window and ready grace follow
// them.
func NewREC(p RECParams, fd FDParams, tree *Tree, policy *Policy, mgr *proc.Manager) (func() proc.Handler, *RECHandle) {
	h := &RECHandle{tree: tree, policy: policy}
	// Restart-completion bookkeeping must survive handler churn, so the
	// subscriptions forward to whichever incarnation is current, while it
	// is up: a dead or hung recoverer settles nothing.
	mgr.OnReady(func(name string) {
		if r := h.current; r != nil && r.up {
			r.onReady(name)
		}
	})
	mgr.OnDown(func(name, reason string) {
		if r := h.current; r != nil && r.up {
			r.onDownEvent(name, reason)
		}
	})
	factory := func() proc.Handler {
		h.current = &REC{
			watcher:   newWatcher(xmlcmd.AddrREC, xmlcmd.AddrFD, mgr, fd, &recWatch),
			params:    p,
			persist:   fd.PersistWindow(),
			grace:     fd.ReadyGrace(),
			tree:      tree,
			policy:    policy,
			episodes:  make(map[string]*episode),
			history:   make(map[string][]time.Time),
			abandoned: make(map[string]bool),
		}
		return h.current
	}
	return factory, h
}

// Start implements proc.Handler.
func (r *REC) Start(ctx proc.Context) {
	r.ctx = ctx
	r.start(ctx, r.period/3, nil)
}

// after runs fn after d if this incarnation is still up then. proc drops
// a dead incarnation's timers, but a hung one's still fire (a silenced
// process must still be able to finish starting), so REC's own gate is
// here, once, for every episode timer.
func (r *REC) after(d time.Duration, fn func()) {
	r.ctx.After(d, func() {
		if r.up {
			fn()
		}
	})
}

// Receive implements proc.Handler.
func (r *REC) Receive(ctx proc.Context, m *xmlcmd.Message) {
	if !r.answer(ctx, m) && m.Kind() == xmlcmd.KindEvent &&
		m.From == xmlcmd.AddrFD && r.up && m.Event.Name == "failure" {
		r.onFailureReport(ctx, m.Event.Detail)
	}
}

// move is the one writer of an episode's phase. It takes the current
// attempt one step forward along the table in DESIGN.md §15 and does what
// arriving there entails: a verdict is given exactly once, when the
// attempt reaches cured or persisted. Any other move is a no-op and
// returns false, and so is a cure before the set has been ready for a
// whole PersistWindow.
func (r *REC) move(comp string, ep *episode, to phase) bool {
	now := r.mgr.Clock().Now()
	from := ep.phase
	switch {
	case from == deciding && to == restarting,
		from == restarting && (to == verdict || to == persisted),
		from == verdict && to == persisted,
		from == verdict && to == cured && now.Sub(ep.settledAt) > r.persist,
		from == persisted && to == deciding:
	default:
		return false
	}
	ep.phase = to
	switch to {
	case deciding: // escalation: the next attempt
		ep.attempt++
		M.RECEscalations.Inc()
	case verdict:
		ep.settledAt = now
		M.RECRecovery.Observe(now.Sub(ep.startedAt))
		r.after(r.persist+100*time.Millisecond, func() { r.move(comp, ep, cured) })
	case cured:
		r.policy.ObserveAction(comp, ep.act, ep.settledAt.Sub(ep.startedAt), true)
		r.refund(comp, ep)
	case persisted:
		// Only an attempt whose whole set came up measured a repair time:
		// one that reached its verdict, or one whose last awaited member
		// came up and went down at once (onDownEvent).
		var elapsed time.Duration
		switch {
		case from == verdict:
			elapsed = ep.settledAt.Sub(ep.startedAt)
		case len(ep.waiting) == 0:
			elapsed = now.Sub(ep.startedAt)
		}
		ep.settledAt = now
		r.policy.ObserveAction(comp, ep.act, elapsed, false)
	}
	return true
}

// onFailureReport is the heart of the recovery loop.
func (r *REC) onFailureReport(ctx proc.Context, component string) {
	if r.abandoned[component] {
		return
	}
	ep := r.episodes[component]
	if ep != nil && ep.phase < verdict {
		return // the current attempt is still deciding or restarting
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
	if readyAt, _ := r.mgr.ReadyAt(component); r.mgr.Serving(component) && now.Sub(readyAt) < r.grace {
		// The component recovered between FD's last probe and this report
		// (detection lag right after a restart completes); acting on it
		// would trigger a spurious second restart. A serving component
		// reported *outside* the grace window is trusted — the process
		// manager's view can be stale (e.g. a hung child process whose
		// supervisor still believes it healthy).
		return
	}

	// The report settles an attempt under watch: cured if its window
	// passed quietly (refunded before the budget is judged, so a recovery
	// that already succeeded never counts against the component),
	// persisted if the failure is back inside it.
	if ep != nil && ep.phase == verdict && !r.move(component, ep, cured) {
		r.move(component, ep, persisted)
	}

	// Budget: a component that keeps needing restarts has a hard failure.
	cutoff := now.Add(-r.params.BudgetWindow)
	kept := slices.DeleteFunc(r.history[component], func(at time.Time) bool { return !at.After(cutoff) })
	r.history[component] = kept
	if len(kept) >= r.params.MaxRestarts {
		r.abandoned[component] = true
		M.RECGiveUps.Inc()
		ctx.Log().Add(now, trace.GiveUp, component, "",
			fmt.Sprintf("restart budget exhausted (%d in %v)", len(kept), r.params.BudgetWindow))
		return
	}

	// A failure back within the window of a persisted attempt escalates
	// the episode; anything else opens a new one.
	if ep != nil && ep.phase == persisted && now.Sub(ep.settledAt) <= r.persist {
		r.move(component, ep, deciding)
	} else {
		ep = &episode{attempt: 1}
		r.episodes[component] = ep
		r.policy.ObserveFailure(component, now)
	}
	ep.startedAt = now

	var prev *Action
	if ep.attempt > 1 {
		prev = &ep.act
	}
	act, err := r.policy.ChooseAction(r.tree, component, prev, ep.attempt)
	if err != nil {
		ctx.Log().Add(now, trace.Note, component, "", "oracle error: "+err.Error())
		delete(r.episodes, component) // nothing was tried: the episode ends here
		return
	}
	node := act.Node
	ep.act = act
	ctx.Log().Add(now, trace.OracleGuess, component, node.Label(),
		fmt.Sprintf("policy=%s attempt=%d action=%s", r.policy.Name(), ep.attempt, act.Kind))

	delay := r.params.DecisionDelay
	if bo := r.restartBackoff(len(kept)); bo > 0 {
		delay += bo
		M.RECBackoffWaits.Inc()
		ctx.Log().Add(now, trace.Note, component, node.Label(),
			fmt.Sprintf("restart backoff %v (%d recent restarts)", bo, len(kept)))
	}
	r.history[component] = append(r.history[component], now)
	ep.charged = append(ep.charged, now)
	r.after(delay, func() { r.execute(ctx, component, ep, act) })
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

// push is the one place a restart button gets pressed: it moves the
// attempt to restarting, counts the action, logs its RestartRequested
// line and — after wait, the checkpoint-restore latency — presses it.
func (r *REC) push(ctx proc.Context, component string, ep *episode, node *Node, set []string,
	wait time.Duration, detail string) {
	ep.waiting = nil // an earlier attempt's; the press fills it
	r.move(component, ep, restarting)
	M.RECRestarts.Inc()
	M.RECRestartsByNode.With(node.Label()).Inc()
	ctx.Log().Add(ctx.Now(), trace.RestartRequested, component, node.Label(), detail)
	if wait > 0 {
		r.after(wait, func() { r.press(ctx, component, ep, node, set) })
		return
	}
	r.press(ctx, component, ep, node, set)
}

// press has the process manager kill and respawn the restart set, whose
// members the attempt then awaits: every incarnation it watches began at
// the press. A button that fails restarted nothing to judge: an attempt
// still waiting on it ends its episode without a verdict, keeping its
// charge, so the next failure report opens a new one.
func (r *REC) press(ctx proc.Context, component string, ep *episode, node *Node, set []string) {
	ep.waiting = make(map[string]bool, len(set))
	for _, c := range set {
		ep.waiting[c] = true
	}
	if err := r.mgr.Restart(set); err != nil {
		ctx.Log().Add(ctx.Now(), trace.Note, component, node.Label(), "recovery failed: "+err.Error())
		if r.episodes[component] == ep && ep.phase == restarting {
			delete(r.episodes, component)
		}
	}
}

// restartBackoff computes the exponential damping delay before a restart
// action, given how many restarts the component already has inside the
// budget window. Deterministic (no RNG), so seeded trials stay exact.
func (r *REC) restartBackoff(recent int) time.Duration {
	return clock.Backoff(recent, r.params.RestartBackoff, r.params.RestartBackoffMax)
}

// onReady is called for every component ready event in the system: an
// attempt whose whole restart set is ready goes to its verdict.
func (r *REC) onReady(name string) {
	for comp, ep := range r.episodes {
		if ep.phase != restarting || !ep.waiting[name] {
			continue
		}
		delete(ep.waiting, name)
		if len(ep.waiting) == 0 {
			r.move(comp, ep, verdict)
		}
	}
}

// onDownEvent catches a restart cut short: when a set member goes down
// while the attempt still awaits it — a second fault, not REC's own
// teardown — the attempt persisted, there and then, however late FD
// reports the component again. A member whose incarnation did come up
// was ready, though REC has not heard it yet: a fault still active
// silences it inside the same ready fan-out. Its ready counts, so an
// attempt whose whole set came up keeps its duration sample.
func (r *REC) onDownEvent(name, reason string) {
	if reason == proc.ReasonRestart {
		return
	}
	startedAt, _ := r.mgr.StartedAt(name)
	readyAt, _ := r.mgr.ReadyAt(name)
	for comp, ep := range r.episodes {
		if ep.phase != restarting || !ep.waiting[name] {
			continue
		}
		if readyAt.After(startedAt) {
			delete(ep.waiting, name)
		}
		r.move(comp, ep, persisted)
	}
}

// refund returns a cured episode's restart charges to the component's
// budget. A recovery that succeeded — at any level of the ladder, a
// microreboot included — must leave the process-level restart budget
// untouched; without the refund, a string of independently cured cheap
// failures would eventually trip the give-up threshold that is meant for
// hard failures restarting cannot cure. A charge already aged out of the
// window is simply not found.
func (r *REC) refund(comp string, ep *episode) {
	r.history[comp] = slices.DeleteFunc(r.history[comp], func(at time.Time) bool {
		return slices.ContainsFunc(ep.charged, at.Equal)
	})
	ep.charged = nil
}
