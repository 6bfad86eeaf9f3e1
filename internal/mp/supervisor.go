package mp

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/rt"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// SpawnFunc launches one component child process. The default re-executes
// the current binary with the spec in the environment (see SpecFromEnv).
type SpawnFunc func(spec ChildConfig) (*exec.Cmd, error)

// DefaultSpawn re-executes the running binary as a component child.
func DefaultSpawn(spec ChildConfig) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("mp: locate executable: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), spec.Env()...)
	return cmd, nil
}

// SupervisorConfig parameterises the parent process.
type SupervisorConfig struct {
	// ListenAddr is the broker address ("127.0.0.1:0" for ephemeral).
	ListenAddr string
	// Scale compresses calibrated durations.
	Scale float64
	// TreeName selects the restart tree ("I" … "V").
	TreeName string
	// Seed drives the deterministic pieces.
	Seed int64
	// Spawn launches children; nil uses DefaultSpawn.
	Spawn SpawnFunc
	// Policy is the oracle; nil = escalating.
	Policy *core.Policy
	// RECParams overrides the recoverer configuration (already adjusted
	// for Scale); nil uses rt.RECParamsForScale.
	RECParams *core.RECParams
}

// managedChild tracks one live child process.
type managedChild struct {
	cmd *exec.Cmd
	gen int
}

// Supervisor is the parent process of a multi-process Mercury: it hosts
// the bus broker, the failure detector and the recoverer, and supervises
// one OS process per station component. Restart-cell buttons SIGKILL the
// children in the cell and spawn fresh processes with the appropriate
// contention stretch.
type Supervisor struct {
	Disp  *rt.Dispatcher
	Mgr   *proc.Manager
	Board *fault.Board
	Log   *trace.Log
	Tree  *core.Tree
	FD    *core.FDHandle
	REC   *core.RECHandle

	cfg      SupervisorConfig
	layout   station.Layout
	comps    []string
	broker   *rt.BrokerControl
	spawn    SpawnFunc
	seq      uint64
	fdClient bus.Conn
	mbusCli  bus.Conn
	ctl      bus.Conn

	mu       sync.Mutex
	children map[string]*managedChild
	stopped  bool
}

// supTransport carries the parent-resident endpoints' traffic: FD and the
// mbus broker handler use their TCP clients; FD↔REC ride the dedicated
// in-process link; component proxies never send (their children do).
type supTransport struct {
	s *Supervisor
}

func (t supTransport) Send(m *xmlcmd.Message) {
	if (m.From == xmlcmd.AddrFD || m.From == xmlcmd.AddrREC) &&
		(m.To == xmlcmd.AddrFD || m.To == xmlcmd.AddrREC) {
		t.s.Mgr.Deliver(m)
		return
	}
	switch m.From {
	case xmlcmd.AddrFD:
		t.s.fdClient.Send(m)
	case station.MBus:
		t.s.mbusCli.Send(m)
	}
}

// proxyHandler is the parent-side stand-in for a component child: its
// lifecycle IS the child process's lifecycle.
type proxyHandler struct {
	sup       *Supervisor
	component string
}

func (h *proxyHandler) Start(ctx proc.Context) {
	spec := ChildConfig{
		Component:   h.component,
		BusAddr:     h.sup.broker.Address(),
		Scale:       h.sup.cfg.Scale,
		Stretch:     ctx.Stretch(),
		Seed:        h.sup.cfg.Seed + nameSeed(h.component) + int64(ctx.Incarnation())*7919,
		Layout:      h.sup.layout.String(),
		Incarnation: ctx.Incarnation(),
	}
	// Process I/O happens off the dispatcher; state changes come back via
	// posts guarded by the incarnation-scoped context.
	go h.sup.spawnChild(spec, ctx)
}

func (h *proxyHandler) Receive(proc.Context, *xmlcmd.Message) {
	// Children receive their own bus traffic; nothing arrives here.
}

// spawnChild launches a component process and watches it.
func (s *Supervisor) spawnChild(spec ChildConfig, ctx proc.Context) {
	cmd, err := s.spawn(spec)
	if err != nil {
		M.SpawnFailures.Inc()
		s.Disp.Post(func() { ctx.Fail("spawn: " + err.Error()) })
		return
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		M.SpawnFailures.Inc()
		s.Disp.Post(func() { ctx.Fail("stdout pipe: " + err.Error()) })
		return
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		M.SpawnFailures.Inc()
		s.Disp.Post(func() { ctx.Fail("start child: " + err.Error()) })
		return
	}
	M.ChildSpawns.Inc()

	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return
	}
	s.children[spec.Component] = &managedChild{cmd: cmd, gen: spec.Incarnation}
	s.mu.Unlock()

	// Scan the child's stdout for the readiness announcement.
	go func() {
		scanner := bufio.NewScanner(stdout)
		for scanner.Scan() {
			line := scanner.Text()
			if strings.HasPrefix(line, readyPrefix) {
				s.Disp.Post(ctx.Ready)
			}
		}
	}()

	// Reap the child; an unexpected exit is a component failure.
	go func() {
		_ = cmd.Wait()
		M.ChildExits.Inc()
		s.Disp.Post(func() {
			s.mu.Lock()
			cur := s.children[spec.Component]
			if cur != nil && cur.cmd == cmd {
				delete(s.children, spec.Component)
			}
			s.mu.Unlock()
			// Only this incarnation's death matters; a restart already
			// superseded older processes.
			if inc, err := s.Mgr.Incarnation(spec.Component); err == nil && inc == spec.Incarnation {
				if st, _ := s.Mgr.State(spec.Component); st == proc.Starting || st == proc.Running {
					_ = s.Mgr.Kill(spec.Component, "child process exited")
				}
			}
		})
	}()
}

// killChild SIGKILLs a component's current child process, if any.
func (s *Supervisor) killChild(component string) {
	s.mu.Lock()
	c := s.children[component]
	delete(s.children, component)
	s.mu.Unlock()
	if c != nil && c.cmd.Process != nil {
		M.ChildKills.Inc()
		_ = c.cmd.Process.Kill()
	}
}

// ChildPID reports the live child's OS pid (0 if none).
func (s *Supervisor) ChildPID(component string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.children[component]; c != nil && c.cmd.Process != nil {
		return c.cmd.Process.Pid
	}
	return 0
}

// StartSupervisor boots a multi-process Mercury.
func StartSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.TreeName == "" {
		cfg.TreeName = "IV"
	}
	spawn := cfg.Spawn
	if spawn == nil {
		spawn = DefaultSpawn
	}

	disp := rt.NewDispatcher()
	clk := rt.Clock{D: disp, Scale: cfg.Scale}
	log := trace.NewLog()
	mgr := proc.NewManager(clk, rand.New(rand.NewSource(cfg.Seed)), log)
	disp.DeliverTo(mgr.Deliver)

	trees, err := core.MercuryTrees(station.MonolithicComponents(), station.SplitComponents())
	if err != nil {
		return nil, err
	}
	tree, ok := trees[cfg.TreeName]
	if !ok {
		return nil, fmt.Errorf("mp: unknown tree %q", cfg.TreeName)
	}
	layout := station.Split
	if cfg.TreeName == "I" || cfg.TreeName == "II" {
		layout = station.Monolithic
	}
	comps, err := layout.Components()
	if err != nil {
		return nil, err
	}

	s := &Supervisor{
		Disp:     disp,
		Mgr:      mgr,
		Log:      log,
		Tree:     tree,
		cfg:      cfg,
		layout:   layout,
		comps:    comps,
		broker:   rt.NewBrokerControl(cfg.ListenAddr),
		spawn:    spawn,
		children: make(map[string]*managedChild),
	}
	mgr.SetTransport(supTransport{s: s})
	s.Board = fault.NewBoard(clk, mgr, log)

	// The broker must be reachable before children are told its address.
	if err := s.broker.Open(); err != nil {
		return nil, err
	}

	params := station.DefaultParams(time.Now())
	if err := mgr.Register(station.MBus, rt.NewLiveBrokerHandler(params.MBusStartup, s.broker)); err != nil {
		return nil, err
	}
	for _, comp := range comps {
		if comp == station.MBus {
			continue
		}
		comp := comp
		if err := mgr.Register(comp, func() proc.Handler {
			return &proxyHandler{sup: s, component: comp}
		}); err != nil {
			return nil, err
		}
	}

	oracle := cfg.Policy
	if oracle == nil {
		var err error
		if oracle, err = core.PolicyByName("escalating", core.PolicyDeps{}); err != nil {
			return nil, err
		}
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
	recParams := rt.RECParamsForScale(cfg.Scale)
	if cfg.RECParams != nil {
		recParams = *cfg.RECParams
	}
	recFactory, recHandle := core.NewREC(recParams, tree, oracle, mgr, restartFD)
	s.REC = recHandle
	if err := mgr.Register(xmlcmd.AddrREC, recFactory); err != nil {
		return nil, err
	}
	fdFactory, fdHandle := core.NewFDWithHandle(rt.FDParamsForScale(cfg.Scale), comps, station.MBus, restartREC)
	s.FD = fdHandle
	if err := mgr.Register(xmlcmd.AddrFD, fdFactory); err != nil {
		return nil, err
	}

	// Lifecycle hooks: broker death closes the listener; component death
	// ends the child process; an injected hang is forwarded to the child.
	mgr.OnDown(func(name, reason string) {
		switch {
		case name == station.MBus:
			s.broker.CloseBroker()
		case name == xmlcmd.AddrFD || name == xmlcmd.AddrREC:
			// in-parent infrastructure; nothing external to clean up
		case reason == "silenced":
			if s.ctl != nil {
				s.seq++
				s.ctl.Send(xmlcmd.NewCommand("supervisor", name, s.seq, hangCommand))
			}
		default:
			s.killChild(name)
		}
	})

	// Parent-resident bus clients. Inbound messages are the dispatcher's
	// from the read loop's hand-off until the delivery returns, when their
	// envelopes go back to the connection that decoded them.
	addr := s.broker.Address()
	s.fdClient, err = bus.DialAuto(addr, xmlcmd.AddrFD, disp.PostMessage)
	if err != nil {
		s.Stop()
		return nil, err
	}
	s.mbusCli, err = bus.DialAuto(addr, station.MBus, disp.PostMessage)
	if err != nil {
		s.Stop()
		return nil, err
	}
	s.ctl, err = bus.DialAuto(addr, "supervisor", nil)
	if err != nil {
		s.Stop()
		return nil, err
	}

	// Boot: the station batch (spawning all children), then FD and REC.
	var bootErr error
	disp.Call(func() { bootErr = mgr.StartBatch(comps) })
	if bootErr != nil {
		s.Stop()
		return nil, bootErr
	}
	deadline := time.Now().Add(scaledDur(90*time.Second, cfg.Scale) + 20*time.Second)
	for {
		var ok bool
		disp.Call(func() { ok = mgr.AllServing(comps...) })
		if ok {
			break
		}
		if time.Now().After(deadline) {
			s.Stop()
			return nil, errors.New("mp: children did not boot in time")
		}
		time.Sleep(20 * time.Millisecond)
	}
	disp.Call(func() { bootErr = mgr.StartBatch([]string{xmlcmd.AddrFD, xmlcmd.AddrREC}) })
	if bootErr != nil {
		s.Stop()
		return nil, bootErr
	}
	return s, nil
}

func scaledDur(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) / scale)
}

// nameSeed derives a per-component seed offset (FNV-1a), so sibling
// children draw distinct random streams.
func nameSeed(name string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int64(h % 1000003)
}

// Inject delivers a fault (crash or hang) into the running system.
func (s *Supervisor) Inject(f fault.Fault) error {
	var err error
	s.Disp.Call(func() { err = s.Board.Inject(f) })
	return err
}

// AllServing reports whether every station component serves and no fault
// is active.
func (s *Supervisor) AllServing() bool {
	var ok bool
	s.Disp.Call(func() {
		ok = s.Mgr.AllServing(s.comps...) && s.Board.ActiveCount() == 0
	})
	return ok
}

// WaitRecovered polls until recovery or the wall-clock deadline.
func (s *Supervisor) WaitRecovered(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if s.AllServing() {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return errors.New("mp: no recovery before deadline")
}

// BusAddr returns the broker address.
func (s *Supervisor) BusAddr() string { return s.broker.Address() }

// Components returns the station component list.
func (s *Supervisor) Components() []string {
	out := make([]string, len(s.comps))
	copy(out, s.comps)
	return out
}

// Stop tears everything down, SIGKILLing all children.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	children := s.children
	s.children = map[string]*managedChild{}
	s.mu.Unlock()

	s.Disp.Stop()
	for _, c := range children {
		if c.cmd.Process != nil {
			// The per-child reaper goroutines collect the exits.
			_ = c.cmd.Process.Kill()
		}
	}
	if s.fdClient != nil {
		s.fdClient.Close()
	}
	if s.mbusCli != nil {
		s.mbusCli.Close()
	}
	if s.ctl != nil {
		s.ctl.Close()
	}
	s.broker.CloseBroker()
}
