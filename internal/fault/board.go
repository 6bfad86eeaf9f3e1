package fault

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/trace"
)

// Fault is one injectable failure.
type Fault struct {
	// ID labels the fault in traces; the board assigns one if empty.
	ID string
	// Manifest is the component where the failure manifests: it becomes
	// fail-silent (A_cure: all failures are detectable and curable).
	Manifest string
	// Cure is the minimal set of components that must be restarted
	// together to cure the fault. Nil means {Manifest}.
	Cure []string
	// Hard marks a failure no restart can cure, used to exercise the
	// restart policy's give-up budget.
	Hard bool
	// Hang delivers the failure as a hang (the process stays up but stops
	// responding — a spin/livelock/deadlock) instead of a crash. Both are
	// fail-silent to the detector; both are curable by restart.
	Hang bool
	// StateKey marks a state-corruption fault: the component's externalized
	// state under this store key is poisoned at injection time. Restarting
	// the manifest alone reattaches to the corrupt state (the fault
	// persists); the fault is cured either by a restart batch covering the
	// full Cure set (rebuilding the state from scratch) or by a
	// checkpoint-restore of StateKey from a snapshot taken *before*
	// injection followed by a restart of the manifest.
	StateKey string
}

// CureList returns the normalised cure set, sorted.
func (f Fault) CureList() []string { return f.appendCure(nil) }

// appendCure appends the normalised cure set to dst: Cure sorted and
// without repeats, or Manifest alone when Cure is empty.
func (f Fault) appendCure(dst []string) []string {
	if len(f.Cure) == 0 {
		return append(dst, f.Manifest)
	}
	n := len(dst)
	dst = append(dst, f.Cure...)
	slices.Sort(dst[n:])
	return slices.Compact(dst)
}

// Board tracks active faults and applies the cure semantics. It watches
// the manager's restart batches: a batch whose component set covers a
// fault's cure set cures it; a batch that restarts the manifesting
// component without covering the cure set brings the component up still
// broken — the board silences it as soon as it reports ready, so the
// failure persists observably.
type Board struct {
	clk clock.Clock
	mgr *proc.Manager
	log *trace.Log

	seq int
	// active holds the uncured faults in injection order, the order in
	// which one restart batch cures them and the oracle consults them.
	// A cured entry goes to spare for the next Inject to reuse. Nothing
	// but the board holds an entry, and nothing is scheduled on one, so a
	// reused entry needs no generation.
	active []*activeFault
	spare  []*activeFault

	// counters
	injected int
	cured    int

	// cureSubs are notified on every cure — the online tree optimizer's
	// episode feed (an experimental device like MinimalCure: the fault's
	// true cure set is the injection plane's knowledge, not the
	// recoverer's).
	cureSubs []func(ev CureEvent)
}

// CureEvent describes one fault cure: the fault, the restart batch that
// cured it, and the injection/cure instants.
type CureEvent struct {
	Fault      Fault
	Batch      []string
	InjectedAt time.Time
	CuredAt    time.Time
}

// activeFault is one live fault plus its board-side bookkeeping: its cure
// list, when it was injected and whether a pre-injection checkpoint has
// since been restored over its StateKey.
type activeFault struct {
	Fault
	cure       []string // Fault.CureList, in a backing the entry keeps
	injectedAt time.Time
	restored   bool
}

// NewBoard creates a board and hooks it into the manager's batch and ready
// notifications. Create the board before the recoverer so its listeners
// run first.
func NewBoard(clk clock.Clock, mgr *proc.Manager, log *trace.Log) *Board {
	b := &Board{clk: clk, mgr: mgr, log: log}
	mgr.OnBatch(b.onBatch)
	mgr.OnReady(b.onReady)
	return b
}

// Inject activates a fault: the manifesting component is killed now
// (fail-silent) and the fault stays active until a restart action covers
// its cure set.
func (b *Board) Inject(f Fault) error {
	if f.Manifest == "" {
		return fmt.Errorf("fault: fault with no manifest component")
	}
	var reason string // the kill's; an assigned ID is its tail
	if f.ID == "" {
		b.seq++
		reason = killReason("", b.seq)
		f.ID = reason[len("fault "):]
	}
	for _, a := range b.active {
		if a.ID == f.ID {
			return fmt.Errorf("fault: duplicate fault id %q", f.ID)
		}
	}
	var a *activeFault
	if n := len(b.spare); n > 0 {
		a, b.spare = b.spare[n-1], b.spare[:n-1]
	} else {
		a = &activeFault{}
	}
	*a = activeFault{Fault: f, cure: f.appendCure(a.cure[:0]), injectedAt: b.clk.Now()}
	b.active = append(b.active, a)
	b.injected++
	// The line's cure set is its own string, never a.cure's backing,
	// which the entry's next fault reuses.
	set := a.cure[0]
	if len(a.cure) > 1 {
		set = strings.Join(a.cure, " ")
	}
	b.log.Append(trace.Event{At: a.injectedAt, Kind: trace.FaultInjected, Component: f.Manifest,
		Fault: f.ID, Hang: f.Hang, Hard: f.Hard, Detail: f.StateKey, Set: set})
	if f.Hang {
		return b.mgr.Silence(f.Manifest)
	}
	if reason == "" {
		reason = killReason(f.ID, 0)
	}
	return b.mgr.Kill(f.Manifest, reason)
}

// killReason is "fault " and the fault's ID: id, or "f<seq>" for an
// assigned one, built in a stack buffer: one allocation.
func killReason(id string, seq int) string {
	var buf [32]byte
	b := append(buf[:0], "fault "...)
	if id == "" {
		b = strconv.AppendInt(append(b, 'f'), int64(seq), 10)
	}
	return string(append(b, id...))
}

// coveredBy reports whether a batch restarting names covers the cure set.
func (f Fault) coveredBy(names []string) bool {
	if len(f.Cure) == 0 {
		return slices.Contains(names, f.Manifest)
	}
	for _, c := range f.Cure {
		if !slices.Contains(names, c) {
			return false
		}
	}
	return true
}

// onBatch applies cure semantics when a restart action begins. A fault is
// cured when the batch covers its cure set, or — for state faults whose
// pre-injection checkpoint has been restored — when the batch merely
// restarts the manifesting component over the now-clean state. Faults one
// batch cures are cured in injection order. names is the manager's (see
// proc.Manager.OnBatch): a cure event gets a copy.
func (b *Board) onBatch(names []string) {
	for i := 0; i < len(b.active); {
		f := b.active[i]
		if f.Hard || !f.coveredBy(names) && !(f.restored && slices.Contains(names, f.Manifest)) {
			i++
			continue
		}
		b.active = slices.Delete(b.active, i, i+1)
		b.spare = append(b.spare, f)
		b.cured++
		b.log.Append(trace.Event{At: b.clk.Now(), Kind: trace.FaultCured, Component: f.Manifest, Fault: f.ID})
		for _, fn := range b.cureSubs {
			fn(CureEvent{Fault: f.Fault, Batch: slices.Clone(names), InjectedAt: f.injectedAt, CuredAt: b.clk.Now()})
		}
	}
}

// OnCure subscribes to fault cures.
func (b *Board) OnCure(fn func(ev CureEvent)) {
	b.cureSubs = append(b.cureSubs, fn)
}

// NoteRestore tells the board that the given store keys were reverted to a
// snapshot taken at takenAt. Active state faults whose StateKey was
// reverted to a pre-injection snapshot are marked restored: the next
// restart of just their manifest cures them. A snapshot taken *after*
// injection is itself corrupt — restoring it changes nothing, which is the
// staleness risk the oracle's success-probability estimate learns.
func (b *Board) NoteRestore(keys []string, takenAt time.Time) {
	for _, f := range b.active {
		if f.StateKey != "" && slices.Contains(keys, f.StateKey) && takenAt.Before(f.injectedAt) {
			f.restored = true
		}
	}
}

// onReady re-manifests uncured faults: a component that comes up while a
// fault manifesting in it is still active is immediately silenced.
func (b *Board) onReady(name string) {
	for _, f := range b.active {
		if f.Manifest == name {
			_ = b.mgr.Silence(name)
			return
		}
	}
}

// ActiveCount reports the number of uncured faults.
func (b *Board) ActiveCount() int { return len(b.active) }

// Injected reports the total number of injected faults.
func (b *Board) Injected() int { return b.injected }

// Cured reports the total number of cured faults.
func (b *Board) Cured() int { return b.cured }

// MinimalCure returns the cure set of the earliest active fault
// manifesting at the component, if any. The perfect oracle consults this —
// the experimental device the paper uses in §4.4. The set is lent: the
// board reuses it once the fault is cured, so a caller must neither keep
// nor modify it.
func (b *Board) MinimalCure(component string) ([]string, bool) {
	for _, f := range b.active {
		if f.Manifest == component {
			return f.cure, true
		}
	}
	return nil, false
}

// Clear drops all active faults without curing them (between experiment
// trials).
func (b *Board) Clear() {
	b.spare = append(b.spare, b.active...)
	b.active = b.active[:0]
}

// Injector drives organic failures: for each component with a configured
// law, it samples a time-to-failure each time the component becomes ready
// and injects a fault when it elapses. It also records the achieved
// time-to-failure samples, from which Table 1's MTTFs are measured.
type Injector struct {
	clk   clock.Clock
	mgr   *proc.Manager
	board *Board

	laws map[string]Law
	// CureFor, if set, decides the cure set of organically injected faults;
	// nil means each fault is cured by restarting the component alone.
	CureFor func(component string) []string

	enabled bool
	ttf     map[string][]time.Duration
}

// NewInjector builds an injector over the board. Call Enable to arm it.
func NewInjector(clk clock.Clock, mgr *proc.Manager, board *Board) *Injector {
	inj := &Injector{clk: clk, mgr: mgr, board: board} // its maps are made on first write
	mgr.OnReady(inj.onReady)
	return inj
}

// SetLaw configures the failure law for a component.
func (inj *Injector) SetLaw(component string, law Law) {
	if inj.laws == nil {
		inj.laws = make(map[string]Law)
	}
	inj.laws[component] = law
}

// Enable arms the injector; components already running get their first
// failure scheduled on their next ready transition.
func (inj *Injector) Enable() { inj.enabled = true }

// Disable stops scheduling new failures; already-scheduled ones are
// suppressed at fire time.
func (inj *Injector) Disable() { inj.enabled = false }

// onReady schedules the next organic failure for the component.
func (inj *Injector) onReady(name string) {
	if !inj.enabled {
		return
	}
	law, ok := inj.laws[name]
	if !ok {
		return
	}
	gen, err := inj.mgr.Incarnation(name)
	if err != nil {
		return
	}
	ttf := law.Sample(inj.mgr.Rand())
	inj.clk.Schedule(ttf, &organicFault{inj: inj, name: name, gen: gen, ttf: ttf})
}

// organicFault is one sampled failure of one incarnation, due ttf after
// that incarnation became ready.
type organicFault struct {
	inj  *Injector
	name string
	gen  int
	ttf  time.Duration
}

// Fire injects the fault if the injector is still enabled and the
// incarnation it was drawn for is still the serving one.
func (e *organicFault) Fire() {
	inj := e.inj
	if !inj.enabled {
		return
	}
	g, err := inj.mgr.Incarnation(e.name)
	if err != nil || g != e.gen || !inj.mgr.Serving(e.name) {
		return
	}
	if inj.ttf == nil {
		inj.ttf = make(map[string][]time.Duration)
	}
	inj.ttf[e.name] = append(inj.ttf[e.name], e.ttf)
	var cure []string
	if inj.CureFor != nil {
		cure = inj.CureFor(e.name)
	}
	_ = inj.board.Inject(Fault{Manifest: e.name, Cure: cure})
}

// Arm sets each component's law, enables the injector, and schedules the
// first organic failure of every component already serving — the OnReady
// hook only catches future ready transitions. Laws are set and primed in
// sorted component order: priming draws from the manager's RNG, so map
// order would make the failure schedule nondeterministic.
func (inj *Injector) Arm(laws map[string]Law) {
	comps := make([]string, 0, len(laws))
	for c := range laws {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	for _, c := range comps {
		inj.SetLaw(c, laws[c])
	}
	inj.Enable()
	for _, c := range comps {
		inj.onReady(c)
	}
}

// TTFSamples returns the achieved time-to-failure samples for a component.
func (inj *Injector) TTFSamples(component string) []time.Duration {
	out := make([]time.Duration, len(inj.ttf[component]))
	copy(out, inj.ttf[component])
	return out
}
