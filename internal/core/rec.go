package core

import (
	"slices"
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

// episode is one failure's recovery across escalation attempts. Its
// record is reused: a component's next episode opens in the record of its
// last. gen tells the attempts a record has carried apart: every attempt
// begins with a new one, and a timer acts only if the record still carries
// the attempt it was armed for (see recTimer).
type episode struct {
	phase     phase
	gen       uint32
	attempt   int
	act       Action      // the current attempt's action
	startedAt time.Time   // when the current attempt's report arrived
	settledAt time.Time   // verdict: when the set was ready; persisted: when it was known
	waiting   uint64      // restarting: set members (by index in the action's subtree) not yet ready since the press
	charged   []time.Time // budget charges of this episode, refunded on cure
}

// recTimer is one pending episode timer: what it does, to which record,
// for which attempt. Several of one kind can be pending on one record —
// an attempt's verdict window can outlast the attempt — so each arming
// has its own node, recycled through REC's free list.
type recTimer struct {
	r    *REC
	ep   *episode
	comp string
	gen  uint32
	kind timerKind
	next *recTimer // on the free list
}

type timerKind uint8

const (
	execTimer  timerKind = iota // the decision delay ends: carry out the action
	pressTimer                  // the checkpoint restore ends: press the button
	cureTimer                   // the verdict window passed quietly
)

// Fire implements clock.Event. proc drops a dead incarnation's timers, but
// a hung one's still fire (a silenced process must still be able to finish
// starting), so REC's own gate is here, once, for every episode timer,
// beside the attempt check.
func (t *recTimer) Fire() {
	r, ep, comp, kind := t.r, t.ep, t.comp, t.kind
	fire := r.up && ep.gen == t.gen
	t.ep, t.next, r.free = nil, r.free, t
	if !fire {
		return
	}
	switch kind {
	case execTimer:
		r.execute(comp, ep)
	case pressTimer:
		r.press(comp, ep)
	case cureTimer:
		r.move(comp, ep, cured)
	}
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

	episodes  map[string]*episode
	free      *recTimer // the free list of episode timers
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
			watcher:  newWatcher(xmlcmd.AddrREC, xmlcmd.AddrFD, mgr, fd, &recWatch),
			params:   p,
			persist:  fd.PersistWindow(),
			grace:    fd.ReadyGrace(),
			tree:     tree,
			policy:   policy,
			episodes: make(map[string]*episode),
			history:  make(map[string][]time.Time),
		}
		return h.current
	}
	return factory, h
}

// Start implements proc.Handler.
func (r *REC) Start(ctx proc.Context) {
	r.start(ctx, (*recUp)(r))
}

// recUp ends REC's startup: it starts the watch of FD.
type recUp REC

func (e *recUp) Fire() {
	r := (*REC)(e)
	r.ready()
	r.watch(r.period / 3)
}

// after arms a timer of kind for the current attempt of comp's episode ep,
// due after d.
func (r *REC) after(d time.Duration, comp string, ep *episode, kind timerKind) {
	t := r.free
	if t != nil {
		r.free = t.next
	} else {
		t = &recTimer{r: r}
	}
	t.ep, t.comp, t.gen, t.kind = ep, comp, ep.gen, kind
	r.ctx.Schedule(d, t)
}

// open begins a new episode of comp at attempt 1, in the record of comp's
// last episode if it has one.
func (r *REC) open(comp string) *episode {
	ep := r.episodes[comp]
	if ep == nil {
		ep = &episode{}
		r.episodes[comp] = ep
	}
	ep.gen, ep.phase, ep.attempt = ep.gen+1, deciding, 1
	ep.waiting, ep.charged = 0, ep.charged[:0]
	return ep
}

// end closes comp's episode ep without a verdict. Its record is dropped,
// and its timers are void.
func (r *REC) end(comp string, ep *episode) {
	delete(r.episodes, comp)
	ep.gen++
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
// returns false. A cure is the verdict window's: its timer, or a report
// that finds the window passed (onFailureReport).
func (r *REC) move(comp string, ep *episode, to phase) bool {
	now := r.mgr.Clock().Now()
	from := ep.phase
	switch {
	case from == deciding && to == restarting,
		from == restarting && (to == verdict || to == persisted),
		from == verdict && (to == cured || to == persisted),
		from == persisted && to == deciding:
	default:
		return false
	}
	ep.phase = to
	switch to {
	case deciding: // escalation: the next attempt
		ep.attempt++
		ep.gen++
		M.RECEscalations.Inc()
	case verdict:
		ep.settledAt = now
		M.RECRecovery.Observe(now.Sub(ep.startedAt))
		r.after(r.persist+100*time.Millisecond, comp, ep, cureTimer)
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
		case ep.waiting == 0:
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
	if ep != nil && ep.phase == verdict {
		if now.Sub(ep.settledAt) > r.persist {
			r.move(component, ep, cured)
		} else {
			r.move(component, ep, persisted)
		}
	}

	// Budget: a component that keeps needing restarts has a hard failure.
	cutoff := now.Add(-r.params.BudgetWindow)
	kept := slices.DeleteFunc(r.history[component], func(at time.Time) bool { return !at.After(cutoff) })
	r.history[component] = kept
	if len(kept) >= r.params.MaxRestarts {
		if r.abandoned == nil {
			r.abandoned = make(map[string]bool)
		}
		r.abandoned[component] = true
		M.RECGiveUps.Inc()
		ctx.Log().Append(trace.Event{At: now, Kind: trace.GiveUp, Component: component,
			Count: int32(len(kept)), Dur: r.params.BudgetWindow})
		return
	}

	// A failure back within the window of a persisted attempt escalates
	// the episode; anything else opens a new one.
	if ep != nil && ep.phase == persisted && now.Sub(ep.settledAt) <= r.persist {
		r.move(component, ep, deciding)
	} else {
		ep = r.open(component)
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
		r.end(component, ep) // nothing was tried: the episode ends here
		return
	}
	node := act.Node
	ep.act = act
	ctx.Log().Append(trace.Event{At: now, Kind: trace.OracleGuess, Component: component, Node: node.Label(),
		Detail: r.policy.Name(), Count: int32(ep.attempt), Action: act.Kind})

	delay := r.params.DecisionDelay
	if bo := r.restartBackoff(len(kept)); bo > 0 {
		delay += bo
		M.RECBackoffWaits.Inc()
		ctx.Log().Append(trace.Event{At: now, Kind: trace.Note, Component: component, Node: node.Label(),
			Dur: bo, Count: int32(len(kept))})
	}
	r.history[component] = append(r.history[component], now)
	ep.charged = append(ep.charged, now)
	r.after(delay, component, ep, execTimer)
}

// execute carries out the attempt's chosen action: a checkpoint-restore
// pays the modeled restore latency before the reboot fires (degrading to
// the plain microreboot when no checkpoint covers the set); everything
// else is a plain restart (a microreboot when the action says so: the
// whole set is subcomponents, the cheapest rung — no process is torn
// down).
func (r *REC) execute(component string, ep *episode) {
	kind := ep.act.Kind
	if kind == ActCkptRestore {
		// The rung only exists at an all-sub cell, so its fallback is
		// that cell's microreboot.
		kind = ActMicroreboot
		if r.params.CkptRestore != nil {
			lat, err := r.params.CkptRestore(ep.act.Node.subtree())
			if err == nil {
				M.RECCkptRestores.Inc()
				r.push(component, ep, ActCkptRestore, lat)
				return
			}
			r.ctx.Log().Add(r.ctx.Now(), trace.Note, component, ep.act.Node.Label(),
				"ckpt-restore unavailable, falling back to restart: "+err.Error())
		}
	}
	if kind == ActMicroreboot {
		M.RECMicroreboots.Inc()
	}
	r.push(component, ep, kind, 0)
}

// push is the one place a restart button gets pressed: it moves the
// attempt to restarting, counts the action, logs its RestartRequested
// line, which carries out kind, and — after wait, the checkpoint-restore
// latency — presses it.
func (r *REC) push(component string, ep *episode, kind ActionKind, wait time.Duration) {
	node := ep.act.Node
	label := node.Label()
	ep.waiting = 0 // an earlier attempt's; the press fills it
	r.move(component, ep, restarting)
	M.RECRestarts.Inc()
	M.RECRestartsByNode.With(label).Inc()
	r.ctx.Log().Append(trace.Event{At: r.ctx.Now(), Kind: trace.RestartRequested, Component: component, Node: label,
		Action: kind, Dur: wait, Set: node.set()})
	if wait > 0 {
		r.after(wait, component, ep, pressTimer)
		return
	}
	r.press(component, ep)
}

// press has the process manager kill and respawn the restart set — the
// action's subtree, the tree's own slice, which nobody modifies — whose
// members the attempt then awaits: every incarnation it watches began at
// the press. A button that fails restarted nothing to judge: an attempt
// still waiting on it ends its episode without a verdict, keeping its
// charge, so the next failure report opens a new one.
func (r *REC) press(component string, ep *episode) {
	set := ep.act.Node.subtree() // a station's: far fewer than 64 names
	ep.waiting = 1<<len(set) - 1
	if err := r.mgr.Restart(set); err != nil {
		r.ctx.Log().Add(r.ctx.Now(), trace.Note, component, ep.act.Node.Label(), "recovery failed: "+err.Error())
		if r.episodes[component] == ep && ep.phase == restarting {
			r.end(component, ep)
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
		bit := ep.awaits(name)
		if bit == 0 {
			continue
		}
		ep.waiting &^= bit
		if ep.waiting == 0 {
			r.move(comp, ep, verdict)
		}
	}
}

// awaits returns name's bit in waiting if the attempt is restarting and
// still awaits it, 0 if not.
func (ep *episode) awaits(name string) uint64 {
	if ep.phase != restarting || ep.waiting == 0 {
		return 0
	}
	if i := slices.Index(ep.act.Node.subtree(), name); i >= 0 {
		return ep.waiting & (1 << i)
	}
	return 0
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
		bit := ep.awaits(name)
		if bit == 0 {
			continue
		}
		if readyAt.After(startedAt) {
			ep.waiting &^= bit
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
	ep.charged = ep.charged[:0]
}
