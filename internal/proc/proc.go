// Package proc manages the lifecycle of Mercury's software components.
//
// The paper's components are independently operating JVM processes with
// autonomous loci of control; here each is a Handler hosted by a Manager.
// The Manager provides the strong fault-isolation the paper relies on:
// components can be SIGKILL-ed (hard, fail-silent), silenced (alive but
// unresponsive), and restarted with completely fresh state. Restarting a
// batch of components concurrently applies a resource-contention stretch to
// their startup times — the effect the paper observes when a whole-system
// restart is slower than the slowest individual component restart.
//
// The Manager is not internally synchronised: all calls must come from a
// single logical dispatch context. Under simulation this is the event
// kernel; under the real-time runtime it is the dispatcher goroutine.
package proc

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// State is a component process state.
type State int

// Process states.
const (
	// Stopped means never started: a record's zero state.
	Stopped State = iota
	// Starting means the startup sequence is running; the component may
	// exchange protocol messages (e.g. ses/str resync) but is not ready.
	Starting
	// Running means the component logged "functionally ready".
	Running
	// Dead means killed or crashed: fail-silent, consuming nothing.
	Dead
)

var stateNames = map[State]string{
	Stopped:  "stopped",
	Starting: "starting",
	Running:  "running",
	Dead:     "dead",
}

// String names the state.
func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Errors returned by Manager operations.
var (
	ErrUnknownProcess = errors.New("proc: unknown process")
	ErrAlreadyExists  = errors.New("proc: process already registered")
	ErrNotRunnable    = errors.New("proc: process already starting or running")
)

// The down-reasons OnDown listeners tell apart from a failure: the teardown
// a restart action performs before it respawns, and a silencing (alive but
// fail-silent).
const (
	ReasonRestart  = "restart action"
	ReasonSilenced = "silenced"
)

// Handler is a component implementation. A fresh Handler is created for
// every incarnation, so restart unequivocally returns the component to its
// start state — restart property (a) in the paper.
type Handler interface {
	// Start begins the startup sequence. The handler must eventually call
	// ctx.Ready() unless it is killed or fails first.
	Start(ctx Context)
	// Receive handles a message delivered from the bus. It is called only
	// while the process is Starting or Running.
	Receive(ctx Context, m *xmlcmd.Message)
}

// Downer is implemented by a handler that holds something outside the
// manager — a listener, a child process — that must not outlive its
// incarnation. Down runs when the incarnation goes down, after the OnDown
// listeners, with the same reason they get: ReasonSilenced when it is
// silenced, the death's reason when it dies. A silenced incarnation that
// later dies hears both.
type Downer interface {
	Handler
	Down(reason string)
}

// Transport sends a message into the message fabric. It is implemented by
// internal/bus; proc stays transport-agnostic.
type Transport interface {
	Send(m *xmlcmd.Message)
}

// Context is the capability set handed to a Handler. It is scoped to one
// incarnation: after the process is killed or restarted, calls on an old
// context become no-ops, which models the OS discarding a killed process's
// pending work.
//
// Message lifetime: the *xmlcmd.Message passed to Receive is valid for that
// one delivery. Nobody may retain it — or its body pointer — past the
// return of Receive: under the simulated fabric it goes back to its pool
// the moment the handler returns and is overwritten by the next send.
// Strings read out of it are immutable and may be kept. The same holds for
// a message handed to Send: the fabric owns it from that call on.
type Context interface {
	// Name is the process's bus address.
	Name() string
	// Incarnation is the restart generation, starting at 1.
	Incarnation() int
	// Now returns the current time.
	Now() time.Time
	// Schedule runs ev.Fire on the dispatch context after d; ev is dropped
	// if this incarnation has ended by then. It is fire-and-forget: there
	// is no handle, a pending event dies with the incarnation and with
	// nothing else. It is the scheduling form: a loop embeds its event in
	// the state it drives and passes the same pointer every tick, so it
	// schedules without allocating.
	Schedule(d time.Duration, ev clock.Event)
	// After is the adapter for a one-shot closure: Schedule of fn as an
	// event. The closure is the caller's allocation; wrapping it costs
	// nothing more.
	After(d time.Duration, fn func())
	// Rand is the deterministic random source.
	Rand() *rand.Rand
	// Send emits a message via the bus.
	Send(m *xmlcmd.Message)
	// Pool mints the messages this process sends. It is the manager's one
	// recycled envelope pool, shared by every process on the dispatch
	// context; see xmlcmd.Pool for the lifetime rule.
	Pool() *xmlcmd.Pool
	// Ready declares the component functionally ready and logs the
	// timestamped ready message recovery time is measured against.
	Ready()
	// Fail crashes the component (fail-silent) with the given reason.
	Fail(reason string)
	// Stretch is the resource-contention multiplier (>= 1) in effect for
	// this startup; components multiply their base startup time by it.
	Stretch() float64
	// Log is the shared trace log for Note-level annotations.
	Log() *trace.Log
}

// Process is one managed component, or one microrebootable subcomponent
// of it (see micro.go): a sub has a parent and no handler of its own.
type Process struct {
	name        string
	factory     func() Handler
	mgr         *Manager
	state       State
	gen         int
	handler     Handler
	ctx         *procCtx // this incarnation's context, shared by all deliveries
	silenced    bool
	stretch     float64
	startedAt   time.Time
	readyAt     time.Time
	restarts    int
	everStarted bool

	parent *Process   // hosting process of a subcomponent; nil for a process
	short  string     // a sub's name within its parent, e.g. "cache"
	subs   []*Process // a process's subcomponents, in registration order
}

// live reports whether the current incarnation is Starting or Running.
func (p *Process) live() bool { return p.state == Starting || p.state == Running }

// serving reports Running and responsive; a sub also needs its parent to
// be (spelled out, not recursive, so the per-message checks inline it).
func (p *Process) serving() bool {
	return p.state == Running && !p.silenced &&
		(p.parent == nil || p.parent.state == Running && !p.parent.silenced)
}

// accepting reports whether a message for p reaches a handler.
func (p *Process) accepting() bool { return p.parent == nil && p.live() && !p.silenced }

// Manager hosts and controls a set of processes.
type Manager struct {
	clk       clock.Clock
	rng       *rand.Rand
	log       *trace.Log
	transport Transport

	procs    map[string]*Process // processes and subcomponents
	order    []string            // process names
	subOrder []string            // subcomponent names

	// records and ctxs are what is left of the current chunks that
	// Register's process records and each start's context come from.
	records []Process
	ctxs    []procCtx

	// ContentionPerPeer is the per-extra-component startup stretch: a batch
	// of k components starts with multiplier 1 + ContentionPerPeer*(k-1).
	// NewManager sets DefaultContentionPerPeer.
	ContentionPerPeer float64

	onReady []func(name string)
	onDown  []func(name, reason string)
	onBatch []func(names []string)
	batch   []string // what the OnBatch listeners are lent, reused

	// timers is the free list of Context.Schedule nodes, and msgs the message
	// pool behind Context.Pool. Both are per manager — one per dispatch
	// context, never process-wide: the trial runner and the fleet run many
	// kernels in parallel.
	timers []*timerNode
	msgs   xmlcmd.Pool
}

// The manager is sized by a station's shape, never beyond it: a fleet
// holds thousands of managers. maxProcs covers the processes one station
// registers (nine on a split station, which would grow order to 16
// anyway), the batch a restart starts, and the starts of a Table-4 trial
// (about 11) that one chunk of contexts serves; recordChunk is how many
// process records are minted at once — ten fill the 2 KiB size class that
// a split station's nine (six components, ops, FD, REC) take anyway, so a
// classic station pays one allocation for its records and no extra
// memory, and a micro station (14 with its subcomponents) two.
const (
	maxProcs    = 16
	recordChunk = 10
)

// DefaultContentionPerPeer is the startup stretch each extra component of
// a batch adds, calibrated so a 5-component whole-system restart shows the
// paper's tree-I slowdown.
const DefaultContentionPerPeer = 0.048

// NewManager returns an empty manager.
func NewManager(clk clock.Clock, rng *rand.Rand, log *trace.Log) *Manager {
	return &Manager{
		clk:               clk,
		rng:               rng,
		log:               log,
		procs:             make(map[string]*Process),
		order:             make([]string, 0, maxProcs),
		ContentionPerPeer: DefaultContentionPerPeer,
	}
}

// SetTransport wires the bus in after construction (the bus needs the
// manager to deliver, so the two are created in sequence).
func (m *Manager) SetTransport(t Transport) { m.transport = t }

// Clock returns the manager's clock.
func (m *Manager) Clock() clock.Clock { return m.clk }

// Rand returns the deterministic random source.
func (m *Manager) Rand() *rand.Rand { return m.rng }

// Log returns the shared trace log.
func (m *Manager) Log() *trace.Log { return m.log }

// Pool returns the manager's message pool for senders that are not hosted
// processes (the load engine); handlers reach it through their Context.
func (m *Manager) Pool() *xmlcmd.Pool { return &m.msgs }

// Register adds a process under the given bus address. The factory is
// invoked once per incarnation.
func (m *Manager) Register(name string, factory func() Handler) error {
	if _, ok := m.procs[name]; ok {
		return fmt.Errorf("%w: %s", ErrAlreadyExists, name)
	}
	p := m.record()
	p.name, p.factory = name, factory
	m.procs[name] = p
	m.order = append(m.order, name)
	return nil
}

// record hands out a fresh process record from the manager's current
// chunk. Records are never freed (a Ref may hold one for the manager's
// life), so a chunk is simply used up.
func (m *Manager) record() *Process {
	if len(m.records) == 0 {
		m.records = make([]Process, recordChunk)
	}
	p := &m.records[0]
	m.records = m.records[1:]
	p.mgr = m
	return p
}

// newCtx hands out the context of a fresh incarnation of p, from a chunk
// like record's: an old incarnation's handler may keep its context, so
// one is never reused.
func (m *Manager) newCtx(p *Process) *procCtx {
	if len(m.ctxs) == 0 {
		m.ctxs = make([]procCtx, maxProcs)
	}
	c := &m.ctxs[0]
	m.ctxs = m.ctxs[1:]
	c.p, c.gen = p, p.gen
	return c
}

// Ref is a stable handle to one registered process. Process records are
// created once at Register and mutated in place ever after, so a Ref lets
// per-message hot paths (the bus's broker-serving check) test state without
// a map lookup. The zero Ref reports not serving.
type Ref struct{ p *Process }

// Ref resolves a handle for name (zero Ref if not registered).
func (m *Manager) Ref(name string) Ref { return Ref{p: m.procs[name]} }

// Valid reports whether the handle points at a registered process.
func (r Ref) Valid() bool { return r.p != nil }

// Serving mirrors Manager.Serving for the referenced process.
func (r Ref) Serving() bool { return r.p != nil && r.p.serving() }

// Names returns registered process names in registration order.
func (m *Manager) Names() []string {
	out := make([]string, len(m.order))
	copy(out, m.order)
	return out
}

// OnReady registers fn to run whenever a process becomes Running.
// Listeners run synchronously in registration order.
func (m *Manager) OnReady(fn func(name string)) { m.onReady = append(m.onReady, fn) }

// OnDown registers fn to run whenever a process or subcomponent goes
// down: with the death's reason when it dies (kill, crash, restart
// teardown), with ReasonSilenced when it is silenced.
func (m *Manager) OnDown(fn func(name, reason string)) { m.onDown = append(m.onDown, fn) }

// OnBatch registers fn to run at the start of every restart batch with the
// set of component names being restarted together, subcomponents included.
// The fault board uses this to decide whether a restart action covers a
// fault's minimal cure. names is lent for the call only: every listener
// sees the same slice, which the manager reuses for the next batch, so fn
// must neither keep nor modify it, nor start a batch itself.
func (m *Manager) OnBatch(fn func(names []string)) { m.onBatch = append(m.onBatch, fn) }

// lend hands batch, built in m.batch's backing, to the OnBatch listeners.
func (m *Manager) lend(batch []string) {
	m.batch = batch
	for _, fn := range m.onBatch {
		fn(batch)
	}
}

// proc resolves a process or subcomponent record.
func (m *Manager) proc(name string) (*Process, error) {
	p, ok := m.procs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownProcess, name)
	}
	return p, nil
}

// top resolves a process; a subcomponent name is unknown here.
func (m *Manager) top(name string) (*Process, error) {
	if p := m.procs[name]; p != nil && p.parent == nil {
		return p, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrUnknownProcess, name)
}

// Start launches a single process with no contention.
func (m *Manager) Start(name string) error {
	return m.StartBatch([]string{name})
}

// StartStretched launches a single process with an explicit contention
// stretch. It is used when the contention arises outside this manager —
// e.g. a multi-process batch restart where each child process hosts a
// one-component manager but shares the machine with its siblings.
func (m *Manager) StartStretched(name string, stretch float64) error {
	if stretch < 1 {
		stretch = 1
	}
	return m.startAll([]string{name}, stretch)
}

// StartBatch launches the named processes concurrently, applying the
// resource-contention stretch to each startup.
func (m *Manager) StartBatch(names []string) error {
	stretch := 1.0
	if len(names) > 1 {
		stretch = 1 + m.ContentionPerPeer*float64(len(names)-1)
	}
	return m.startAll(names, stretch)
}

// startAll validates and launches processes at the given stretch.
func (m *Manager) startAll(names []string, stretch float64) error {
	// Validate first so a batch is all-or-nothing.
	var room [maxProcs]*Process
	procs := room[:0]
	for _, name := range names {
		p, err := m.top(name)
		if err != nil {
			return err
		}
		if p.live() {
			return fmt.Errorf("%w: %s is %s", ErrNotRunnable, name, p.state)
		}
		procs = append(procs, p)
	}
	// The listeners see the batch widened with the subcomponents of every
	// process in it: restarting ses also repairs ses.cache and ses.est,
	// and cure-coverage checks must see that.
	batch := append(m.batch[:0], names...)
	for _, p := range procs {
		for _, s := range p.subs {
			batch = append(batch, s.name)
		}
	}
	m.lend(batch)
	for _, p := range procs {
		p.start(stretch)
	}
	return nil
}

// Restart hard-kills then relaunches the named processes as one action.
// Already-dead members are simply relaunched. This is the "push the restart
// cell's button" primitive the recoverer uses. Subcomponent names in the
// set become microreboots: a sub whose parent is also named rides the
// process restart for free, while a lone sub set is repaired in place
// without touching the hosting process.
func (m *Manager) Restart(names []string) error {
	var room [maxProcs]string
	procs := room[:0]
	for _, name := range names {
		p, err := m.proc(name)
		if err != nil {
			return err
		}
		if p.parent == nil {
			procs = append(procs, name)
		}
	}
	for _, name := range procs {
		m.procs[name].move(evDown, trace.Event{Kind: trace.ComponentKilled, Detail: ReasonRestart})
	}
	if len(procs) > 0 {
		if err := m.StartBatch(procs); err != nil {
			return err
		}
	}
	// A sub whose parent restarts rides along; the rest are microrebooted.
	for _, name := range names {
		if s := m.procs[name]; s.parent != nil && !slices.Contains(procs, s.parent.name) {
			if err := m.Microreboot(name); err != nil {
				return err
			}
		}
	}
	return nil
}

// Kill delivers a SIGKILL-equivalent: the process becomes fail-silent
// immediately. Killing a Stopped or Dead process is a no-op.
func (m *Manager) Kill(name, reason string) error {
	p, err := m.proc(name)
	if err != nil {
		return err
	}
	if p.parent != nil {
		return p.subKill(reason)
	}
	p.move(evDown, trace.Event{Kind: trace.ComponentDown, Detail: reason})
	return nil
}

// Silence makes a running process fail-silent without terminating it: it
// stops receiving and replying but still counts as Running internally. The
// fault board uses this to model failures that a restart did not cure.
// A silenced subcomponent is a killed one.
func (m *Manager) Silence(name string) error {
	const detail = "silenced (failure persists)"
	p, err := m.proc(name)
	if err != nil {
		return err
	}
	if p.parent != nil {
		return p.subKill(detail)
	}
	p.move(evSilence, trace.Event{Kind: trace.ComponentDown, Detail: detail})
	return nil
}

// State reports a process's state.
func (m *Manager) State(name string) (State, error) {
	p, err := m.proc(name)
	if err != nil {
		return 0, err
	}
	return p.state, nil
}

// Incarnation reports a process's restart generation.
func (m *Manager) Incarnation(name string) (int, error) {
	p, err := m.proc(name)
	if err != nil {
		return 0, err
	}
	return p.gen, nil
}

// Serving reports whether the process is Running and responsive; a
// subcomponent serves while it is attached inside a serving parent.
func (m *Manager) Serving(name string) bool {
	p, ok := m.procs[name]
	return ok && p.serving()
}

// Accepting reports whether the process can receive messages (Starting or
// Running, not silenced). Components exchange startup-protocol messages
// before they are ready, so this is broader than Serving. A subcomponent
// has no handler and accepts nothing.
func (m *Manager) Accepting(name string) bool {
	p, ok := m.procs[name]
	return ok && p.accepting()
}

// AllServing reports whether every process whose name is in names is
// serving. With no names it checks every registered process.
func (m *Manager) AllServing(names ...string) bool {
	if len(names) == 0 {
		names = m.order
	}
	for _, name := range names {
		if !m.Serving(name) {
			return false
		}
	}
	return true
}

// Deliver routes a message to its destination handler. It reports whether
// the message was consumed; dead or silenced destinations silently drop it
// (fail-silent semantics).
func (m *Manager) Deliver(msg *xmlcmd.Message) bool {
	// Accepting inlined: Deliver is the fabric's per-message hot path, and
	// one map lookup is half the cost of two.
	p, ok := m.procs[msg.To]
	if !ok || !p.accepting() {
		return false
	}
	p.handler.Receive(p.ctx, msg)
	return true
}

// Restarts reports how many times the process has been (re)started beyond
// its first launch. A subcomponent's restarts are its microreboots: when
// it comes back with its parent, the restart is the parent's.
func (m *Manager) Restarts(name string) (int, error) {
	p, err := m.proc(name)
	if err != nil {
		return 0, err
	}
	return p.restarts, nil
}

// StartedAt reports when the process's current incarnation was launched
// (zero if never started).
func (m *Manager) StartedAt(name string) (time.Time, error) {
	p, err := m.proc(name)
	if err != nil {
		return time.Time{}, err
	}
	return p.startedAt, nil
}

// ReadyAt reports when the process last became functionally ready (zero if
// never ready).
func (m *Manager) ReadyAt(name string) (time.Time, error) {
	p, err := m.proc(name)
	if err != nil {
		return time.Time{}, err
	}
	return p.readyAt, nil
}

// start launches a fresh incarnation.
func (p *Process) start(stretch float64) {
	if p.everStarted {
		p.restarts++
	}
	M.Starts.Inc()
	p.stretch = stretch
	p.move(evBegin, trace.Event{Kind: trace.ComponentStarting, Count: int32(p.gen + 1), Stretch: stretch})
	p.handler = p.factory()
	p.ctx = p.mgr.newCtx(p)
	p.handler.Start(p.ctx)
}

// event is one row of the lifecycle table; see move.
type event int

const (
	evBegin   event = iota + 1 // a new incarnation: any state → Starting
	evReady                    // Starting → Running
	evDown                     // Starting or Running → Dead
	evSilence                  // live and responsive → silenced, state kept
)

// move is the lifecycle's one transition function and the only writer of
// state and silenced. Within an incarnation a process only moves forward:
//
//	evBegin    any                  → Starting, incarnation+1, silenced cleared
//	evReady    Starting             → Running
//	evDown     Starting, Running    → Dead
//	evSilence  live, not silenced   → silenced
//
// Any other move is a no-op and reports false. An applied move writes its
// trace line, stamped with the instant and p's name (kind 0 writes none: a
// sub carried along by its process), tells the OnReady or OnDown listeners
// — a silencing's reason is ReasonSilenced, a death's is the line's Detail
// — and then a Downer handler. A process's subcomponents follow it through
// begin, ready and down, after it; a sub killed while its process starts
// stays Dead at the ready mark.
func (p *Process) move(ev event, line trace.Event) bool {
	now := p.mgr.clk.Now()
	h := p.handler
	switch ev {
	case evBegin:
		p.gen++
		p.state, p.silenced = Starting, false
		p.startedAt = now
	case evReady:
		if p.state != Starting {
			return false
		}
		p.state = Running
		p.readyAt = now
	case evDown:
		if !p.live() {
			return false
		}
		p.state = Dead
		p.handler = nil
		if p.parent == nil {
			M.Deaths.Inc()
		}
	case evSilence:
		if !p.live() || p.silenced {
			return false
		}
		p.silenced = true
	}
	if line.Kind != 0 {
		line.At, line.Component = now, p.name
		p.mgr.log.Append(line)
	}
	switch ev {
	case evReady:
		for _, fn := range p.mgr.onReady {
			fn(p.name)
		}
	case evDown, evSilence:
		reason := line.Detail
		if ev == evSilence {
			reason = ReasonSilenced
		}
		for _, fn := range p.mgr.onDown {
			fn(p.name, reason)
		}
		if d, ok := h.(Downer); ok {
			d.Down(reason)
		}
		if ev == evSilence {
			return true // a sub of a silenced process stays as it is
		}
	}
	for _, s := range p.subs {
		s.move(ev, trace.Event{Detail: line.Detail})
	}
	return true
}

// current reports whether incarnation gen is p's, and live.
func (p *Process) current(gen int) bool { return p.gen == gen && p.live() }

// procCtx is the incarnation-scoped Context implementation.
type procCtx struct {
	p   *Process
	gen int
}

var _ Context = (*procCtx)(nil)

func (c *procCtx) valid() bool { return c.p.current(c.gen) }

func (c *procCtx) Name() string       { return c.p.name }
func (c *procCtx) Incarnation() int   { return c.gen }
func (c *procCtx) Now() time.Time     { return c.p.mgr.clk.Now() }
func (c *procCtx) Rand() *rand.Rand   { return c.p.mgr.rng }
func (c *procCtx) Stretch() float64   { return c.p.stretch }
func (c *procCtx) Log() *trace.Log    { return c.p.mgr.log }
func (c *procCtx) Pool() *xmlcmd.Pool { return &c.p.mgr.msgs }

// timerNode is one pending event of an incarnation — a Context.Schedule,
// or the end of a microreboot — as a clock.Event carrying the incarnation
// it was armed by, recycled through the manager's free list so arming
// costs no allocation. The incarnation check runs when it fires; a node
// armed by an incarnation that has since ended still fires — and still
// counts as an executed kernel event — but runs nothing.
type timerNode struct {
	mgr *Manager
	p   *Process
	gen int
	ev  clock.Event
}

var _ clock.Event = (*timerNode)(nil)

// Fire implements clock.Event. The node is back on the free list before ev
// fires, so ev re-arming itself reuses it.
func (n *timerNode) Fire() {
	p, gen, ev := n.p, n.gen, n.ev
	n.p, n.ev = nil, nil
	n.mgr.timers = append(n.mgr.timers, n)
	if p.current(gen) {
		ev.Fire()
	}
}

// funcEvent adapts a closure to clock.Event. A func value is
// pointer-shaped, so converting one to the interface allocates nothing.
type funcEvent func()

func (f funcEvent) Fire() { f() }

// timerChunk is how many timer nodes are minted at once: a station keeps
// 15 to 25 pending, so it pays for one or two chunks instead of a node each.
const timerChunk = 16

// schedule fires ev after d if incarnation gen of p is still current then.
func (p *Process) schedule(gen int, d time.Duration, ev clock.Event) {
	m := p.mgr
	if len(m.timers) == 0 {
		chunk := make([]timerNode, timerChunk)
		if m.timers == nil {
			// Room for both chunks, so a node coming back never grows it.
			m.timers = make([]*timerNode, 0, 2*timerChunk)
		}
		for i := range chunk {
			chunk[i].mgr = m
			m.timers = append(m.timers, &chunk[i])
		}
	}
	k := len(m.timers) - 1
	n := m.timers[k]
	m.timers = m.timers[:k]
	n.p, n.gen, n.ev = p, gen, ev
	m.clk.Schedule(d, n)
}

func (c *procCtx) Schedule(d time.Duration, ev clock.Event) { c.p.schedule(c.gen, d, ev) }
func (c *procCtx) After(d time.Duration, fn func())         { c.p.schedule(c.gen, d, funcEvent(fn)) }

func (c *procCtx) Send(m *xmlcmd.Message) {
	if !c.valid() || c.p.silenced {
		return
	}
	if c.p.mgr.transport == nil {
		return
	}
	c.p.mgr.transport.Send(m)
}

func (c *procCtx) Ready() {
	if !c.valid() {
		return
	}
	p := c.p
	p.everStarted = true
	startup := p.mgr.clk.Now().Sub(p.startedAt)
	if p.move(evReady, trace.Event{Kind: trace.ComponentReady, Count: int32(p.gen), Dur: startup}) {
		M.Startup.Observe(startup)
	}
}

func (c *procCtx) Fail(reason string) {
	if c.valid() {
		c.p.move(evDown, trace.Event{Kind: trace.ComponentDown, Detail: reason})
	}
}
