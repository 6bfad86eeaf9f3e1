package rt

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"github.com/recursive-restart/mercury/internal/assemble"
	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// Host is the wall-clock half the two live runtimes share: a dispatcher, a
// scaled clock, a process manager on the TCP fabric with the FD↔REC link
// delivered in-process, the hold that parks outside commands through a
// restart or microreboot (hold.go), the assembled station, and its
// lifecycle — boot, inject, wait for recovery, tear down. rt.Node is a
// Host, and mp.Supervisor embeds one.
type Host struct {
	Disp *Dispatcher
	Mgr  *proc.Manager
	Log  *trace.Log
	// Scale is the time compression in force.
	Scale float64
	// Station is the assembled station. Its board and FD/REC handles touch
	// dispatcher-owned state: wrap every use in Disp.Call.
	assemble.Station

	listen   string
	shards   int
	fabric   *bus.ShardedBroker  // opened once by Boot; the mbus cell closes and reopens it
	clients  map[string]bus.Conn // complete before the first handler runs
	hold     hold                // outside commands waiting out a restart (hold.go)
	stopOnce sync.Once
}

// NewHost starts a dispatcher and assembles the station cfg describes on
// it. st carries what a runtime or a test overrides — component handlers,
// a policy, REC parameters; its Mgr, FDParams, Params, TreeName,
// PolicyName and CkptInterval are the host's to fill from cfg, and the
// mbus handler is always the live one that owns the TCP listeners
// (st.Handler is asked about every other component). Nothing runs until
// Boot. On error nothing is left behind.
func NewHost(cfg NodeConfig, st assemble.Config) (*Host, error) {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	h := &Host{
		Disp:    NewDispatcher(),
		Log:     trace.NewLog(),
		Scale:   cfg.Scale,
		listen:  cfg.ListenAddr,
		shards:  max(cfg.BusShards, 1),
		clients: make(map[string]bus.Conn),
	}
	h.Mgr = proc.NewManager(Clock{D: h.Disp, Scale: cfg.Scale}, rand.New(rand.NewSource(cfg.Seed)), h.Log)
	h.Mgr.SetTransport(transport{h})

	st.Mgr = h.Mgr
	st.FDParams = FDParamsForScale(cfg.Scale)
	st.TreeName, st.PolicyName, st.CkptInterval = cfg.TreeName, cfg.OracleName, cfg.CkptInterval
	patience, others := st.FDParams.PingTimeout, st.Handler
	st.Handler = func(name string) func() proc.Handler {
		if name == station.MBus {
			return func() proc.Handler { return &rtBrokerHandler{host: h, patience: patience} }
		}
		if others != nil {
			return others(name)
		}
		return nil
	}
	var err error
	if h.Station, err = assemble.Assemble(st); err != nil {
		h.Stop()
		return nil, err
	}
	h.hold.init(h.Mgr, h.Disp.Post)
	h.Disp.DeliverTo(h.hold.deliver)
	return h, nil
}

// rtBrokerHandler is the mbus component in real-time mode: it owns the
// fabric Boot opened. Its startup reopens every shard on its pinned
// address, and its incarnation going down, by death or silencing, closes
// them all.
// Ready means the bus routes: the listeners are open and every client this
// host runs has registered with them again. A client that stays away does
// not hold the cell down for more than patience, one FD pong timeout.
type rtBrokerHandler struct {
	host     *Host
	patience time.Duration
	ready    bool
}

// readyPolls is how many looks at the clients one patience is cut into.
const readyPolls = 8

func (h *rtBrokerHandler) Start(ctx proc.Context) {
	d := time.Duration(float64(station.MBusStartup) * ctx.Stretch())
	ctx.After(d, func() {
		fabric := h.host.fabric
		for i := range fabric.Addrs() {
			if err := fabric.RestartShard(i); err != nil {
				ctx.Fail("broker listen: " + err.Error())
				return
			}
		}
		h.awaitClients(ctx, readyPolls)
	})
}

// awaitClients signals ready once no client is disconnected or the polls
// are used up, and tells the failure detector since when the bus is proven:
// what it sent earlier may have met a broker its target had not rejoined.
func (h *rtBrokerHandler) awaitClients(ctx proc.Context, polls int) {
	for _, c := range h.host.clients {
		// Both of bus.DialAuto's clients say; bus.Conn itself does not ask it.
		if c, ok := c.(interface{ Disconnected() bool }); ok && polls > 0 && c.Disconnected() {
			ctx.After(h.patience/readyPolls, func() { h.awaitClients(ctx, polls-1) })
			return
		}
	}
	h.ready = true
	ctx.Ready()
	if fd := h.host.FD; fd != nil {
		fd.BusProven(ctx.Now())
	}
}

// Down closes every shard; the next incarnation's Start reopens them.
func (h *rtBrokerHandler) Down(string) { _ = h.host.fabric.Close() }

func (h *rtBrokerHandler) Receive(ctx proc.Context, m *xmlcmd.Message) {
	if m.Kind() == xmlcmd.KindPing && h.ready {
		ctx.Send(ctx.Pool().Pong(ctx.Name(), m, ctx.Incarnation()))
	}
}

// transport sends each hosted process's traffic through its own TCP client,
// except the FD↔REC dedicated link which is delivered in-process. Either
// way the fabric is done with the message when Send returns — the client
// has encoded the frame into its send or reconnect queue, the inline
// delivery has run — so a pooled mint goes straight back to the manager's
// pool (which ignores messages it did not mint).
type transport struct {
	h *Host
}

func (t transport) Send(m *xmlcmd.Message) {
	if xmlcmd.Dedicated(m.From, m.To) {
		t.h.Mgr.Deliver(m)
	} else if c := t.h.clients[m.From]; c != nil {
		// clients is never written once Boot has dialled it, so the
		// dispatcher reads it without a lock.
		c.Send(m)
	}
	t.h.Mgr.Pool().RecycleMessage(m)
}

// bootPoll is how often Boot and WaitRecovered look at the station.
const bootPoll = 20 * time.Millisecond

// Boot opens the fabric, dials one bus client per name in clients (the
// processes this host sends for), starts the station batch, polls until
// every component serves — for at most the calibrated 90 s plus slack of
// wall time — then starts FD and REC. Any failure tears the host down.
func (h *Host) Boot(clients []string, slack time.Duration) (err error) {
	defer func() {
		if err != nil {
			h.Stop()
		}
	}()
	if h.fabric, err = bus.ListenSharded(h.listen, h.shards, bus.BrokerConfig{}); err != nil {
		return err
	}
	for _, name := range clients {
		c, err := bus.DialAuto(h.fabric.AddrList(), name, h.Disp.PostMessage)
		if err != nil {
			return err
		}
		h.clients[name] = c
	}
	h.Disp.Call(func() { err = h.Mgr.StartBatch(h.Comps) })
	if err != nil {
		return err
	}
	deadline := time.Now().Add(time.Duration(float64(90*time.Second)/h.Scale) + slack)
	for {
		var ok bool
		h.Disp.Call(func() { ok = h.Mgr.AllServing(h.Comps...) })
		if ok {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("rt: station did not boot in time")
		}
		time.Sleep(bootPoll)
	}
	h.Disp.Call(func() { err = h.Mgr.StartBatch([]string{xmlcmd.AddrFD, xmlcmd.AddrREC}) })
	return err
}

// Client returns the bus client Boot dialled for name, nil if none.
func (h *Host) Client(name string) bus.Conn { return h.clients[name] }

// Inject delivers a fault into the live station.
func (h *Host) Inject(f fault.Fault) error {
	var err error
	h.Disp.Call(func() { err = h.Board.Inject(f) })
	return err
}

// AllServing reports whether the station is whole (assemble.Station.Whole).
func (h *Host) AllServing() bool {
	var ok bool
	h.Disp.Call(func() { ok = h.Whole() })
	return ok
}

// WaitRecovered polls until the station recovers or the wall deadline
// passes.
func (h *Host) WaitRecovered(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if h.AllServing() {
			return nil
		}
		time.Sleep(bootPoll)
	}
	return errors.New("rt: no recovery before deadline")
}

// BusAddr returns the live broker address spec (for faultgen and external
// clients): a single "host:port" for one shard, a comma-separated list for
// a sharded fabric. bus.DialAuto accepts either.
func (h *Host) BusAddr() string { return h.fabric.AddrList() }

// Stop tears the host down; safe to call more than once.
func (h *Host) Stop() {
	h.stopOnce.Do(func() {
		// Stop the dispatcher first so no handler can reopen the broker or
		// touch clients while they are torn down.
		h.Disp.Stop()
		if h.Ckpt != nil {
			h.Ckpt.Close()
		}
		for _, c := range h.clients {
			c.Close()
		}
		if h.fabric != nil {
			_ = h.fabric.Close()
		}
	})
}

// Node is the in-process live runtime: a Host whose station components all
// run on its one dispatcher, each behind its own bus client.
type Node = Host

// StartNode builds and boots a live station.
func StartNode(cfg NodeConfig) (*Node, error) {
	h, err := NewHost(cfg, assemble.Config{})
	if err != nil {
		return nil, err
	}
	// A bus client for every component and for FD; REC uses only the
	// dedicated link.
	if err := h.Boot(append(h.Components(), xmlcmd.AddrFD), 5*time.Second); err != nil {
		return nil, err
	}
	return h, nil
}
