package mp

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"github.com/recursive-restart/mercury/internal/assemble"
	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/rt"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// spawn prepares one component child process: the running binary,
// re-executed with the spec in its environment (see SpecFromEnv).
func spawn(spec ChildConfig) (*exec.Cmd, error) {
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

// Supervisor is the parent process of a multi-process Mercury: an rt.Host
// (bus broker, failure detector, recoverer) whose station components are
// proxies for one OS process each. Restart-cell buttons SIGKILL the
// children in the cell and spawn fresh processes with the appropriate
// contention stretch.
type Supervisor struct {
	*rt.Host

	seed int64
	seq  uint64

	mu       sync.Mutex
	children map[string]*managedChild
	stopped  bool
}

// ctlName is the supervisor's own bus client: it carries the hang command
// to a child.
const ctlName = "supervisor"

// proxyHandler is the parent-side stand-in for a component child: its
// lifecycle IS the child process's lifecycle.
type proxyHandler struct {
	sup       *Supervisor
	component string
}

func (h *proxyHandler) Start(ctx proc.Context) {
	spec := ChildConfig{
		Component:   h.component,
		BusAddr:     h.sup.BusAddr(),
		Scale:       h.sup.Scale,
		Stretch:     ctx.Stretch(),
		Seed:        h.sup.seed + nameSeed(h.component) + int64(ctx.Incarnation())*7919,
		Layout:      h.sup.Layout.String(),
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
	cmd, err := spawn(spec)
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

	// Spawns run off the dispatcher, so two incarnations' spawns can land in
	// either order, and the kill that ended the older one may have run
	// before it was tracked: whichever lands second ends the older process.
	s.mu.Lock()
	old := s.children[spec.Component]
	if s.stopped || (old != nil && old.gen > spec.Incarnation) {
		s.mu.Unlock()
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return
	}
	s.children[spec.Component] = &managedChild{cmd: cmd, gen: spec.Incarnation}
	s.mu.Unlock()
	if old != nil {
		_ = old.cmd.Process.Kill()
	}

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
	if strings.HasSuffix(cfg.TreeName, "m") {
		// A child process hosts a whole component; the microrebootable
		// subcomponents need the in-process runtime.
		return nil, fmt.Errorf("mp: unknown tree %q", cfg.TreeName)
	}
	s := &Supervisor{
		seed:     cfg.Seed,
		children: make(map[string]*managedChild),
	}
	host, err := rt.NewHost(rt.HostConfig{
		ListenAddr: cfg.ListenAddr,
		Scale:      cfg.Scale,
		Seed:       cfg.Seed,
		REC:        cfg.RECParams,
	}, assemble.Config{
		TreeName: cfg.TreeName,
		Policy:   cfg.Policy,
		Handler: func(component string) func() proc.Handler {
			return func() proc.Handler { return &proxyHandler{sup: s, component: component} }
		},
	})
	if err != nil {
		return nil, err
	}
	s.Host = host

	// Component death ends the child process; an injected hang is
	// forwarded to the child. mbus, FD and REC live in the parent and have
	// nothing external to clean up here.
	s.Mgr.OnDown(func(name, reason string) {
		switch {
		case name == station.MBus || name == xmlcmd.AddrFD || name == xmlcmd.AddrREC:
		case reason == "silenced":
			s.seq++
			s.Client(ctlName).Send(xmlcmd.NewCommand(ctlName, name, s.seq, hangCommand))
		default:
			s.killChild(name)
		}
	})

	// The parent sends for FD and for the mbus handler; the station batch
	// spawns every child, which takes longer than an in-process start.
	if err := s.Boot([]string{xmlcmd.AddrFD, station.MBus, ctlName}, 20*time.Second); err != nil {
		s.Stop()
		return nil, err
	}
	return s, nil
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

// Stop tears everything down, SIGKILLing all children.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	s.stopped = true
	children := s.children
	s.children = map[string]*managedChild{}
	s.mu.Unlock()

	s.Host.Stop()
	for _, c := range children {
		if c.cmd.Process != nil {
			// The per-child reaper goroutines collect the exits.
			_ = c.cmd.Process.Kill()
		}
	}
}
