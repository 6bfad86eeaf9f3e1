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
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/rt"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// spawn prepares one component child process: the running binary,
// re-executed with the spec in its environment (see SpecFromEnv). On Linux
// the child dies with the supervisor (dieWithParent).
func spawn(spec ChildConfig) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("mp: locate executable: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), spec.Env()...)
	dieWithParent(cmd)
	return cmd, nil
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

	mu      sync.Mutex
	current map[string]*proxyHandler // each component's latest incarnation
}

// ctlName is the supervisor's own bus client: it carries the hang command
// to a child.
const ctlName = "supervisor"

// proxyHandler is the parent-side stand-in for a component child: its
// lifecycle IS the child process's lifecycle. One handler is one
// incarnation, and it owns the child spawned for it: a spawn that lands
// after its incarnation ended kills itself.
type proxyHandler struct {
	sup       *Supervisor
	component string
	cmd       *exec.Cmd // guarded by sup.mu; nil until the spawn lands
	ended     bool      // guarded by sup.mu
}

func (h *proxyHandler) Start(ctx proc.Context) {
	h.sup.mu.Lock()
	h.sup.current[h.component] = h
	h.sup.mu.Unlock()
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
	go h.spawnChild(spec, ctx)
}

func (h *proxyHandler) Receive(proc.Context, *xmlcmd.Message) {
	// Children receive their own bus traffic; nothing arrives here.
}

// Down ends the child with its incarnation. A silencing is forwarded
// instead: the child silences its own process, so a hang means in a child
// what it means in-process.
func (h *proxyHandler) Down(reason string) {
	s := h.sup
	if reason == proc.ReasonSilenced {
		s.seq++
		s.Client(ctlName).Send(xmlcmd.NewCommand(ctlName, h.component, s.seq, hangCommand))
		return
	}
	s.mu.Lock()
	if s.current[h.component] == h {
		delete(s.current, h.component)
	}
	h.end()
	s.mu.Unlock()
}

// spawnChild launches this incarnation's component process and watches it.
func (h *proxyHandler) spawnChild(spec ChildConfig, ctx proc.Context) {
	s := h.sup
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

	s.mu.Lock()
	ended := h.ended
	if !ended {
		h.cmd = cmd
	}
	s.mu.Unlock()
	if ended {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return
	}

	// Scan the child's stdout for the readiness announcement.
	go func() {
		scanner := bufio.NewScanner(stdout)
		for scanner.Scan() {
			if strings.HasPrefix(scanner.Text(), readyPrefix) {
				s.Disp.Post(ctx.Ready)
			}
		}
	}()

	// Reap the child; an exit this incarnation did not ask for is its
	// failure (the context ignores it once the incarnation has ended).
	go func() {
		_ = cmd.Wait()
		M.ChildExits.Inc()
		s.Disp.Post(func() { ctx.Fail("child process exited") })
	}()
}

// end closes an incarnation: it SIGKILLs the child, if one landed, and
// keeps a spawn still in flight from running one. Called with sup.mu held.
func (h *proxyHandler) end() {
	h.ended = true
	if h.cmd != nil {
		M.ChildKills.Inc()
		_ = h.cmd.Process.Kill()
	}
}

// ChildPID reports the live child's OS pid (0 if none).
func (s *Supervisor) ChildPID(component string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h := s.current[component]; h != nil && h.cmd != nil {
		return h.cmd.Process.Pid
	}
	return 0
}

// StartSupervisor boots a multi-process Mercury from the same config as
// rt.StartNode. A child process hosts a whole component, so the m-variant
// trees, whose subcomponents share the store living in the host, are
// refused.
func StartSupervisor(cfg rt.NodeConfig) (*Supervisor, error) {
	return startSupervisorWith(cfg, assemble.Config{})
}

// startSupervisorWith is StartSupervisor with the assembly overrides (a
// policy, REC parameters) the package's tests reach in with.
func startSupervisorWith(cfg rt.NodeConfig, st assemble.Config) (*Supervisor, error) {
	s := &Supervisor{
		seed:    cfg.Seed,
		current: make(map[string]*proxyHandler),
	}
	st.Handler = func(component string) func() proc.Handler {
		return func() proc.Handler { return &proxyHandler{sup: s, component: component} }
	}
	host, err := rt.NewHost(cfg, st)
	if err != nil {
		return nil, err
	}
	if host.Store != nil {
		host.Stop()
		return nil, fmt.Errorf("mp: tree %q: micro mode needs the in-process runtime", cfg.TreeName)
	}
	s.Host = host

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

// Stop tears everything down, SIGKILLing all children. The dispatcher
// stops first, so no incarnation starts after its sweep; the per-child
// reaper goroutines collect the exits.
func (s *Supervisor) Stop() {
	s.Host.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, h := range s.current {
		delete(s.current, name)
		h.end()
	}
}
