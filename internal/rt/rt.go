// Package rt is the real-time runtime: it hosts the same component
// handlers the simulator runs (station components, FD, REC) on wall-clock
// time with the real TCP message bus. All actor activity is serialised
// through a single dispatcher goroutine, giving handlers the same
// single-threaded execution model the simulation kernel provides, so one
// component codebase serves both runtimes.
//
// An optional time-scale factor compresses the calibrated "paper seconds"
// (a 21 s pbcom restart) into a live demo that takes a tenth of the time.
package rt

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/ckpt"
	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/store"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// Dispatcher serialises all actor work onto one goroutine. Work arrives as
// typed posts — a function, an inbound bus message, a fired clock event —
// on one bounded queue the loop drains a batch at a time: it swaps the
// whole queue out under the lock and runs it in arrival order, so a burst
// of n posts costs the loop one lock round trip, not n, and a message or a
// timer is posted without a closure.
type Dispatcher struct {
	mu       sync.Mutex
	notEmpty *sync.Cond // the loop waits here for work
	notFull  *sync.Cond // producers wait here for room
	queue    []post
	stopped  bool
	deliver  func(*xmlcmd.Message) bool

	quit chan struct{} // closed by Stop: releases Call
	done chan struct{} // closed when the loop has exited
}

// post is one unit of dispatcher work; exactly one field is set.
type post struct {
	fn func()
	m  *xmlcmd.Message
	ev clock.Event
}

// queueCap bounds the posts waiting for the loop. Producers — bus read
// loops, runtime timers — block when it is full, which is the
// back-pressure that keeps a flooded node from buffering without bound.
const queueCap = 1024

// NewDispatcher starts the dispatch loop.
func NewDispatcher() *Dispatcher {
	d := &Dispatcher{
		queue: make([]post, 0, queueCap),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	d.notEmpty = sync.NewCond(&d.mu)
	d.notFull = sync.NewCond(&d.mu)
	go d.loop()
	return d
}

// DeliverTo sets where PostMessage's messages go (a proc.Manager's
// Deliver). Call it before the first bus client is dialled.
func (d *Dispatcher) DeliverTo(deliver func(*xmlcmd.Message) bool) {
	d.mu.Lock()
	d.deliver = deliver
	d.mu.Unlock()
}

func (d *Dispatcher) loop() {
	defer close(d.done)
	batch := make([]post, 0, queueCap)
	d.mu.Lock()
	for {
		for len(d.queue) == 0 && !d.stopped {
			d.notEmpty.Wait()
		}
		if d.stopped {
			d.mu.Unlock()
			return
		}
		batch, d.queue = d.queue, batch[:0]
		deliver := d.deliver
		d.notFull.Broadcast()
		d.mu.Unlock()
		for i := range batch {
			p := &batch[i]
			switch {
			case p.m != nil:
				deliver(p.m)
				// The delivery is over and no handler keeps a message past
				// its Receive: the envelope goes back to the connection
				// that decoded it.
				if p.m.Owner != nil {
					p.m.Owner.RecycleMessage(p.m)
				}
			case p.ev != nil:
				p.ev.Fire()
			default:
				p.fn()
			}
			*p = post{}
		}
		d.mu.Lock()
	}
}

// enqueue appends one post, waiting for room while the queue is full.
// Posts after Stop are silently dropped (late timers during shutdown).
func (d *Dispatcher) enqueue(p post) {
	d.mu.Lock()
	for len(d.queue) >= queueCap && !d.stopped {
		d.notFull.Wait()
	}
	if !d.stopped {
		d.queue = append(d.queue, p)
		if len(d.queue) == 1 {
			d.notEmpty.Signal()
		}
	}
	d.mu.Unlock()
}

// Post enqueues fn on the dispatch goroutine.
func (d *Dispatcher) Post(fn func()) { d.enqueue(post{fn: fn}) }

// PostMessage enqueues the delivery of an inbound bus message, in order
// with every other post, and hands the envelope back to its Owner once the
// delivery returns. It is the onMsg of every bus client this runtime dials.
func (d *Dispatcher) PostMessage(m *xmlcmd.Message) { d.enqueue(post{m: m}) }

// Call runs fn on the dispatch goroutine and waits for it. After Stop it
// returns immediately without running fn.
func (d *Dispatcher) Call(fn func()) {
	done := make(chan struct{})
	d.Post(func() {
		defer close(done)
		fn()
	})
	select {
	case <-done:
	case <-d.quit:
	}
}

// Stop terminates the dispatcher once the batch it is running is done and
// releases blocked producers; posts still queued are dropped.
func (d *Dispatcher) Stop() {
	d.mu.Lock()
	if !d.stopped {
		d.stopped = true
		close(d.quit)
		d.notEmpty.Broadcast()
		d.notFull.Broadcast()
	}
	d.mu.Unlock()
	<-d.done
}

// Clock is a wall clock whose callbacks run on the dispatcher, with
// durations compressed by Scale. Now reports *calibrated* time (wall time
// elapsed since Epoch, stretched back up by Scale): handlers compare
// Now() deltas against calibrated durations (re-report throttles, budget
// windows, grace periods), so timestamps must live in the same timebase
// the durations do — wall-clock Now would silently stretch every such
// window by Scale.
type Clock struct {
	D     *Dispatcher
	Scale float64
	// Epoch anchors calibrated time; zero means "process start".
	Epoch time.Time
}

var _ clock.Clock = Clock{}

// processEpoch anchors Clocks constructed without an explicit Epoch.
var processEpoch = time.Now()

// Now returns calibrated time: Epoch + Scale × elapsed wall time.
func (c Clock) Now() time.Time {
	epoch := c.Epoch
	if epoch.IsZero() {
		epoch = processEpoch
	}
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	return epoch.Add(time.Duration(float64(time.Since(epoch)) * s))
}

// AfterFunc schedules fn on the dispatcher after d/Scale.
func (c Clock) AfterFunc(d time.Duration, fn func()) clock.Timer {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	t := time.AfterFunc(time.Duration(float64(d)/s), func() {
		c.D.Post(fn) // dropped silently if the dispatcher has stopped
	})
	return rtTimer{t}
}

// Schedule emulates the kernel's fast path: ev itself is posted to the
// dispatcher after d/Scale, so a handler timer costs the runtime timer and
// one closure.
func (c Clock) Schedule(d time.Duration, ev clock.Event) {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	time.AfterFunc(time.Duration(float64(d)/s), func() {
		c.D.enqueue(post{ev: ev})
	})
}

type rtTimer struct{ t *time.Timer }

func (r rtTimer) Stop() bool { return r.t.Stop() }

// FDParamsForScale adapts the failure detector to time compression. The
// calibrated 200 ms pong timeout becomes only a few milliseconds of wall
// time at high scale — too tight for real TCP and scheduling jitter — so
// the timeout is floored at ~25 ms of wall time and the ping period is
// stretched to keep at least half the cycle free.
func FDParamsForScale(scale float64) core.FDParams {
	p := core.DefaultFDParams()
	if scale <= 1 {
		return p
	}
	floor := time.Duration(float64(25*time.Millisecond) * scale)
	if p.PingTimeout < floor {
		p.PingTimeout = floor
	}
	if p.PingPeriod < 2*p.PingTimeout {
		p.PingPeriod = 2 * p.PingTimeout
	}
	if p.ReReportInterval < 2*p.PingPeriod {
		p.ReReportInterval = 2 * p.PingPeriod
	}
	return p
}

// RECParamsForScale applies the same wall-time floors to the recoverer's
// FD-monitoring link and widens the persistence/grace windows to cover the
// slower detection.
func RECParamsForScale(scale float64) core.RECParams {
	p := core.DefaultRECParams()
	if scale <= 1 {
		return p
	}
	fd := FDParamsForScale(scale)
	p.FDTimeout = fd.PingTimeout
	if p.FDPingPeriod < 2*p.FDTimeout {
		p.FDPingPeriod = 2 * p.FDTimeout
	}
	if p.PersistWindow < 2*fd.ReReportInterval {
		p.PersistWindow = 2 * fd.ReReportInterval
	}
	if p.ReadyGrace < fd.PingPeriod+fd.PingTimeout {
		p.ReadyGrace = fd.PingPeriod + fd.PingTimeout
	}
	return p
}

// NodeConfig parameterises a live node.
type NodeConfig struct {
	// ListenAddr is the broker's TCP address ("127.0.0.1:0" for ephemeral).
	ListenAddr string
	// Scale compresses calibrated durations (10 = ten times faster).
	Scale float64
	// TreeName selects the restart tree (same names as the simulation).
	TreeName string
	// Seed drives the deterministic parts (jitter, epochs).
	Seed int64
	// BusShards is the broker-shard count for the mbus fabric; 0 or 1
	// runs the classic single broker.
	BusShards int
	// Micro enables the microrebootable decomposition on a crash-only
	// store (implied by the m-variant tree names "IIIm"/"IVm"); requires a
	// split-layout tree.
	Micro bool
	// OracleName selects the restart policy by its core.PolicyByName
	// name: "" or "escalating", "costaware" (alias "v2"), "fixed-micro",
	// "fixed-process", "fixed-ckpt", … The checkpoint-backed policies
	// need micro mode.
	OracleName string
	// CkptInterval is the checkpoint snapshot period; zero = the ckpt
	// package default. A non-zero value forces the checkpoint plane on
	// (micro mode only).
	CkptInterval time.Duration
	// EstimatorWindow is the cost-aware oracle's EWMA window in samples;
	// zero = the estimator default.
	EstimatorWindow int
}

// Node hosts a live Mercury station: TCP broker, components, FD and REC.
type Node struct {
	Disp  *Dispatcher
	Mgr   *proc.Manager
	Board *fault.Board
	Log   *trace.Log
	Tree  *core.Tree
	// FD and REC reach the live detector/recoverer incarnations (for the
	// ops endpoints). Their accessors touch dispatcher-owned state: wrap
	// every use in Disp.Call.
	FD  *core.FDHandle
	REC *core.RECHandle
	// Store is the crash-only state store; nil unless micro mode is on.
	Store *store.Store
	// Ckpt is the checkpoint plane; nil unless a checkpoint-backed oracle
	// or an explicit CkptInterval asked for it.
	Ckpt *ckpt.Manager

	cfg     NodeConfig
	scale   float64
	comps   []string
	clients map[string]bus.Conn
	broker  *BrokerControl
	mu      sync.Mutex
	stopped bool
}

// Components returns the station component list (excluding FD/REC).
func (n *Node) Components() []string {
	return append([]string(nil), n.comps...)
}

// TreeName returns the configured restart-tree name.
func (n *Node) TreeName() string { return n.cfg.TreeName }

// BrokerControl ties the mbus process lifecycle to the real TCP fabric:
// while the process is down every shard's listener is closed and frames
// are lost. It is shared by the in-process runtime (Node) and the
// multi-process supervisor (internal/mp). With shards > 1 the mbus cell
// owns a sharded fabric; its death still takes the whole fabric down
// (mbus is one cell in the restart tree), while individual shard
// kill/recover is driven externally (rrbench shardchaos, tests) against
// the fabric handle.
type BrokerControl struct {
	addr   string
	shards int
	mu     sync.Mutex
	fabric *bus.ShardedBroker
	addrs  []string // pinned after the first Open, stable across restarts
}

func (bc *BrokerControl) Open() error {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if bc.fabric != nil {
		return nil
	}
	n := bc.shards
	if n < 1 {
		n = 1
	}
	var (
		sb  *bus.ShardedBroker
		err error
	)
	if bc.addrs != nil {
		sb, err = bus.ListenShardedAddrs(bc.addrs, brokerDefaults())
	} else {
		sb, err = bus.ListenSharded(bc.addr, n, brokerDefaults())
	}
	if err != nil {
		return err
	}
	bc.addrs = sb.Addrs() // pin ephemeral ports for restarts
	bc.fabric = sb
	return nil
}

// brokerDefaults is the live fabric's per-connection tuning: drop on
// back-pressure (a stalled component must not wedge the bus cell).
func brokerDefaults() bus.BrokerConfig {
	return bus.BrokerConfig{Batch: bus.BatchConfig{Policy: bus.DropNewest}}
}

func (bc *BrokerControl) CloseBroker() {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if bc.fabric != nil {
		_ = bc.fabric.Close()
		bc.fabric = nil
	}
}

// Address returns the fabric's address spec: a single "host:port" for one
// shard, a comma-separated list for a sharded fabric. bus.DialAuto
// accepts either, so the spec flows through -bus flags unchanged.
func (bc *BrokerControl) Address() string {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if bc.addrs != nil {
		return strings.Join(bc.addrs, ",")
	}
	return bc.addr
}

// Fabric returns the live sharded fabric, or nil while mbus is down (for
// shard-level chaos drivers).
func (bc *BrokerControl) Fabric() *bus.ShardedBroker {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.fabric
}

// NumShards returns the fabric width the controller manages.
func (bc *BrokerControl) NumShards() int {
	n := bc.shards
	if n < 1 {
		n = 1
	}
	return n
}

// KillShard stops one broker shard of the live fabric. A no-op while the
// whole mbus cell is down. Serialised with Open/CloseBroker so a shard
// fault cannot race the mbus cell's own restart (which rebinds every
// pinned shard port).
func (bc *BrokerControl) KillShard(i int) error {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if bc.fabric == nil {
		return nil
	}
	return bc.fabric.KillShard(i)
}

// RestartShard revives one broker shard on its pinned address. A no-op
// while the whole mbus cell is down — the cell's next Open rebinds every
// shard anyway.
func (bc *BrokerControl) RestartShard(i int) error {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if bc.fabric == nil {
		return nil
	}
	return bc.fabric.RestartShard(i)
}

// NewBrokerControl returns a controller for a single-shard broker on addr.
func NewBrokerControl(addr string) *BrokerControl {
	return &BrokerControl{addr: addr, shards: 1}
}

// NewShardedBrokerControl returns a controller for an n-shard fabric
// listening at addr (each shard on its own port).
func NewShardedBrokerControl(addr string, n int) *BrokerControl {
	return &BrokerControl{addr: addr, shards: n}
}

// NewLiveBrokerHandler returns the mbus component for real-time runtimes:
// its startup opens the TCP listener, its death closes it (via the
// manager's OnDown hook calling ctl.CloseBroker).
func NewLiveBrokerHandler(startup time.Duration, ctl *BrokerControl) func() proc.Handler {
	return func() proc.Handler { return &rtBrokerHandler{startup: startup, ctl: ctl} }
}

// rtBrokerHandler is the mbus component in real-time mode: its startup
// opens the TCP listener, its death closes it.
type rtBrokerHandler struct {
	startup time.Duration
	ctl     *BrokerControl
	ready   bool
}

func (h *rtBrokerHandler) Start(ctx proc.Context) {
	d := time.Duration(float64(h.startup) * ctx.Stretch())
	ctx.After(d, func() {
		if err := h.ctl.Open(); err != nil {
			ctx.Fail("broker listen: " + err.Error())
			return
		}
		h.ready = true
		ctx.Ready()
	})
}

func (h *rtBrokerHandler) Receive(ctx proc.Context, m *xmlcmd.Message) {
	if m.Kind() == xmlcmd.KindPing && h.ready {
		ctx.Send(ctx.Pool().Pong(ctx.Name(), m, ctx.Incarnation()))
	}
}

// transport sends each component's traffic through its own TCP client,
// except the FD↔REC dedicated link which is delivered in-process. Either
// way the fabric is done with the message when Send returns — the client
// has encoded the frame into its send or reconnect queue, the inline
// delivery has run — so a pooled mint goes straight back to the manager's
// pool (which ignores messages it did not mint).
type transport struct {
	node *Node
}

func (t transport) Send(m *xmlcmd.Message) {
	if (m.From == xmlcmd.AddrFD || m.From == xmlcmd.AddrREC) &&
		(m.To == xmlcmd.AddrFD || m.To == xmlcmd.AddrREC) {
		// Dedicated link: does not transit mbus.
		t.node.Mgr.Deliver(m)
	} else if c := t.node.clients[m.From]; c != nil {
		// clients is complete before the first handler runs and never
		// written again, so the dispatcher reads it without a lock.
		c.Send(m)
	}
	t.node.Mgr.Pool().RecycleMessage(m)
}

// StartNode builds and boots a live station.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.TreeName == "" {
		cfg.TreeName = "IV"
	}

	disp := NewDispatcher()
	clk := Clock{D: disp, Scale: cfg.Scale}
	log := trace.NewLog()
	rng := rand.New(rand.NewSource(cfg.Seed))
	mgr := proc.NewManager(clk, rng, log)
	disp.DeliverTo(mgr.Deliver)

	node := &Node{
		Disp:    disp,
		Mgr:     mgr,
		Log:     log,
		cfg:     cfg,
		scale:   cfg.Scale,
		clients: make(map[string]bus.Conn),
		broker:  NewShardedBrokerControl(cfg.ListenAddr, cfg.BusShards),
	}
	mgr.SetTransport(transport{node: node})
	node.Board = fault.NewBoard(clk, mgr, log)

	params := station.DefaultParams(time.Now())
	trees, err := core.MercuryTrees(station.MonolithicComponents(), station.SplitComponents())
	if err != nil {
		return nil, err
	}
	if cfg.Micro || strings.HasSuffix(cfg.TreeName, "m") {
		node.Store = store.New(clk, store.Options{SweepPeriod: 5 * time.Second})
		params.Micro = station.DefaultMicroParams(node.Store)
		for _, base := range []string{"III", "IV"} {
			mt, err := core.SubAugment(trees[base], base+"m", station.MicroSubs())
			if err != nil {
				return nil, fmt.Errorf("rt: tree %sm: %w", base, err)
			}
			trees[base+"m"] = mt
		}
	}
	tree, ok := trees[cfg.TreeName]
	if !ok {
		return nil, fmt.Errorf("rt: unknown tree %q", cfg.TreeName)
	}
	node.Tree = tree
	layout := station.Split
	if cfg.TreeName == "I" || cfg.TreeName == "II" {
		layout = station.Monolithic
	}

	// Register the station, swapping the broker handler for the real one.
	comps, err := registerStation(mgr, params, layout, node)
	if err != nil {
		return nil, err
	}

	// Checkpoint plane: built when a checkpoint-backed oracle or an
	// explicit interval asks for it (micro mode only — the store holds the
	// state the snapshots cover).
	needCkpt := core.PolicyNeedsCkpt(cfg.OracleName) || cfg.CkptInterval > 0
	if node.Store != nil && needCkpt {
		node.Ckpt = ckpt.New(clk, node.Store, ckpt.Options{
			Interval: cfg.CkptInterval,
			Keys:     station.MicroCheckpointKeys(),
		})
		node.Ckpt.OnRestore(node.Board.NoteRestore)
	}

	oracle, err := core.PolicyByName(cfg.OracleName, core.PolicyDeps{
		Advisor: node.Board,
		Rng:     rng,
		Ckpt:    node.Ckpt,
		Window:  cfg.EstimatorWindow,
	})
	if err != nil {
		return nil, fmt.Errorf("rt: %w", err)
	}
	restartFD := func() {
		if st, _ := mgr.State(xmlcmd.AddrFD); st != proc.Starting {
			_ = mgr.Restart([]string{xmlcmd.AddrFD})
		}
	}
	restartREC := func() {
		if st, _ := mgr.State(xmlcmd.AddrREC); st != proc.Starting {
			_ = mgr.Restart([]string{xmlcmd.AddrREC})
		}
	}
	recParams := RECParamsForScale(cfg.Scale)
	if node.Ckpt != nil {
		recParams.CkptRestore = node.Ckpt.RestoreSet
	}
	recFactory, recHandle := core.NewREC(recParams, tree, oracle, mgr, restartFD)
	node.REC = recHandle
	if err := mgr.Register(xmlcmd.AddrREC, recFactory); err != nil {
		return nil, err
	}
	fdFactory, fdHandle := core.NewFDWithHandle(FDParamsForScale(cfg.Scale), comps, station.MBus, restartREC)
	node.FD = fdHandle
	if err := mgr.Register(xmlcmd.AddrFD, fdFactory); err != nil {
		return nil, err
	}
	node.comps = append([]string(nil), comps...)

	// Open bus clients for every component (FD included; REC uses only the
	// dedicated link).
	if err := node.broker.Open(); err != nil {
		return nil, err
	}
	for _, name := range append(append([]string(nil), comps...), xmlcmd.AddrFD) {
		client, err := bus.DialAuto(node.broker.Address(), name, disp.PostMessage)
		if err != nil {
			return nil, err
		}
		node.clients[name] = client
	}

	// Boot: station first, then FD/REC.
	var bootErr error
	disp.Call(func() { bootErr = mgr.StartBatch(comps) })
	if bootErr != nil {
		return nil, bootErr
	}
	deadline := time.Now().Add(scaled(90*time.Second, cfg.Scale) + 5*time.Second)
	for {
		var ok bool
		disp.Call(func() { ok = mgr.AllServing(comps...) })
		if ok {
			break
		}
		if time.Now().After(deadline) {
			node.Stop()
			return nil, errors.New("rt: station did not boot in time")
		}
		time.Sleep(20 * time.Millisecond)
	}
	disp.Call(func() { bootErr = mgr.StartBatch([]string{xmlcmd.AddrFD, xmlcmd.AddrREC}) })
	if bootErr != nil {
		node.Stop()
		return nil, bootErr
	}
	return node, nil
}

// registerStation mirrors station.Register but substitutes the live broker
// handler for mbus (the simulated one has no listener to manage).
func registerStation(mgr *proc.Manager, p station.Params, layout station.Layout, node *Node) ([]string, error) {
	names, err := layout.Components()
	if err != nil {
		return nil, err
	}
	if err := mgr.Register(station.MBus, func() proc.Handler {
		return &rtBrokerHandler{startup: p.MBusStartup, ctl: node.broker}
	}); err != nil {
		return nil, err
	}
	switch layout {
	case station.Monolithic:
		if err := mgr.Register(station.Fedrcom, station.NewFedrcom(p)); err != nil {
			return nil, err
		}
		if err := mgr.Register(station.RTU, station.NewRTU(p, station.Fedrcom)); err != nil {
			return nil, err
		}
	case station.Split:
		if err := mgr.Register(station.Fedr, station.NewFedr(p)); err != nil {
			return nil, err
		}
		if err := mgr.Register(station.Pbcom, station.NewPbcom(p)); err != nil {
			return nil, err
		}
		if err := mgr.Register(station.RTU, station.NewRTU(p, station.Fedr)); err != nil {
			return nil, err
		}
	}
	if err := mgr.Register(station.SES, station.NewSES(p)); err != nil {
		return nil, err
	}
	if err := mgr.Register(station.STR, station.NewSTR(p)); err != nil {
		return nil, err
	}
	if p.Micro != nil {
		if layout != station.Split {
			return nil, fmt.Errorf("rt: micro mode requires the split layout, got %s", layout)
		}
		if err := station.RegisterSubs(mgr); err != nil {
			return nil, err
		}
	}

	// The broker process's death must close the real listener.
	mgr.OnDown(func(name, _ string) {
		if name == station.MBus {
			node.broker.CloseBroker()
		}
	})
	return names, nil
}

// scaled converts a calibrated duration to wall time.
func scaled(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) / scale)
}

// Inject delivers a fault into the live station.
func (n *Node) Inject(f fault.Fault) error {
	var err error
	n.Disp.Call(func() { err = n.Board.Inject(f) })
	return err
}

// AllServing reports whether the station components all serve.
func (n *Node) AllServing() bool {
	var ok bool
	n.Disp.Call(func() {
		comps := []string{station.MBus, station.SES, station.STR, station.RTU}
		if n.cfg.TreeName == "I" || n.cfg.TreeName == "II" {
			comps = append(comps, station.Fedrcom)
		} else {
			comps = append(comps, station.Fedr, station.Pbcom)
		}
		ok = n.Mgr.AllServing(comps...) && n.Mgr.AllSubsServing() && n.Board.ActiveCount() == 0
	})
	return ok
}

// WaitRecovered polls until the station recovers or the wall deadline
// passes.
func (n *Node) WaitRecovered(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if n.AllServing() {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return errors.New("rt: no recovery before deadline")
}

// BusAddr returns the live broker address (for faultgen and external
// clients).
func (n *Node) BusAddr() string { return n.broker.Address() }

// Stop tears the node down.
func (n *Node) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	n.mu.Unlock()
	// Stop the dispatcher first so no handler can reopen the broker or
	// touch clients while they are torn down.
	n.Disp.Stop()
	if n.Ckpt != nil {
		n.Ckpt.Close()
	}
	for _, c := range n.clients {
		c.Close()
	}
	n.broker.CloseBroker()
}
