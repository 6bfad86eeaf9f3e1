package proc

import (
	"fmt"
	"time"

	"github.com/recursive-restart/mercury/internal/trace"
)

// Microrebootable is implemented by handlers that host microrebootable
// subcomponents. The process is the container: its protocol shell (pings,
// bus traffic, health beacons) keeps running while an individual
// subcomponent's logic is crashed, and a microreboot repairs just that
// subcomponent by discarding its logic state and reattaching to the
// externalized state in the crash-only store.
type Microrebootable interface {
	Handler
	// SubFail crashes the named subcomponent's logic (short name, without
	// the parent prefix). The container is expected to notice and
	// self-report the failure after its assertion latency.
	SubFail(sub string)
	// SubMicroreboot discards the subcomponent's logic state and begins
	// reattaching it to externalized state, returning the re-init delay
	// after which the subcomponent is functional again.
	SubMicroreboot(sub string) time.Duration
}

// subState tracks one registered subcomponent. Subcomponents have no
// handler of their own — their logic lives inside the parent's Handler —
// but they are first-class restart-tree citizens: they appear in cure
// sets, fire OnDown/OnReady events, and occupy the cheapest rung of the
// escalation ladder.
type subState struct {
	parent       string
	short        string // name within the parent, e.g. "cache"
	state        State
	gen          int // bumped on every microreboot and parent (re)start
	microreboots int
}

// SubName joins a parent component and a subcomponent short name into the
// dotted full name used across trees, cure sets and trace events.
func SubName(parent, short string) string { return parent + "." + short }

// RegisterSub registers a subcomponent of an existing process under the
// dotted name parent.short. The parent's handler must implement
// Microrebootable by the time a fault or microreboot reaches the sub.
func (m *Manager) RegisterSub(parent, short string) error {
	if _, err := m.proc(parent); err != nil {
		return err
	}
	full := SubName(parent, short)
	if m.subs == nil {
		m.subs = make(map[string]*subState)
	}
	if _, ok := m.subs[full]; ok {
		return fmt.Errorf("%w: %s", ErrAlreadyExists, full)
	}
	if _, ok := m.procs[full]; ok {
		return fmt.Errorf("%w: %s", ErrAlreadyExists, full)
	}
	m.subs[full] = &subState{parent: parent, short: short, state: Stopped}
	m.subOrder = append(m.subOrder, full)
	return nil
}

// IsSub reports whether name is a registered subcomponent.
func (m *Manager) IsSub(name string) bool {
	_, ok := m.subs[name]
	return ok
}

// SubParent returns the hosting process of a subcomponent.
func (m *Manager) SubParent(name string) (string, error) {
	s, ok := m.subs[name]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownProcess, name)
	}
	return s.parent, nil
}

// Subs returns the full names of parent's subcomponents in registration
// order.
func (m *Manager) Subs(parent string) []string {
	var out []string
	for _, full := range m.subOrder {
		if m.subs[full].parent == parent {
			out = append(out, full)
		}
	}
	return out
}

// SubNames returns every registered subcomponent in registration order.
func (m *Manager) SubNames() []string {
	return append([]string(nil), m.subOrder...)
}

// SubState reports a subcomponent's state: it follows the parent while the
// parent is down or starting, and is otherwise the sub's own state
// (Dead = logic crashed inside a live container, Starting = microreboot
// in progress, Running = attached and functional).
func (m *Manager) SubState(name string) (State, error) {
	s, ok := m.subs[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownProcess, name)
	}
	p := m.procs[s.parent]
	if p.state != Running && p.state != Starting {
		return p.state, nil
	}
	return s.state, nil
}

// SubServing reports whether the subcomponent is functional: parent
// serving and sub attached.
func (m *Manager) SubServing(name string) bool {
	s, ok := m.subs[name]
	return ok && m.Serving(s.parent) && s.state == Running
}

// AllSubsServing reports whether every registered subcomponent is
// functional. True when no subs are registered.
func (m *Manager) AllSubsServing() bool {
	for _, full := range m.subOrder {
		if !m.SubServing(full) {
			return false
		}
	}
	return true
}

// SubMicroreboots reports how many microreboots the subcomponent has
// absorbed (process restarts not included).
func (m *Manager) SubMicroreboots(name string) (int, error) {
	s, ok := m.subs[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownProcess, name)
	}
	return s.microreboots, nil
}

// Microreboot repairs a single subcomponent in place: the cheapest rung of
// the restart ladder. The parent process must be Running — if it is not,
// the failure belongs to the process level and callers should escalate.
// The sub's logic state is discarded and reattached to the store via the
// handler's SubMicroreboot; after the returned re-init delay the sub is
// functional and OnReady fires for its dotted name.
func (m *Manager) Microreboot(name string) error {
	s, ok := m.subs[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownProcess, name)
	}
	p := m.procs[s.parent]
	if p.state != Running {
		return fmt.Errorf("proc: cannot microreboot %s: parent %s is %s", name, s.parent, p.state)
	}
	h, ok := p.handler.(Microrebootable)
	if !ok {
		return fmt.Errorf("proc: %s does not host microrebootable subcomponents", s.parent)
	}
	for _, fn := range m.onBatch {
		fn([]string{name})
	}
	s.gen++
	s.state = Starting
	s.microreboots++
	M.Microreboots.Inc()
	d := h.SubMicroreboot(s.short)
	m.log.Add(m.clk.Now(), trace.ComponentStarting, name, "",
		fmt.Sprintf("microreboot=%d reinit=%.2fs", s.microreboots, d.Seconds()))
	gen, pgen := s.gen, p.gen
	m.clk.AfterFunc(d, func() {
		// A parent restart or a newer microreboot supersedes this one.
		if s.gen != gen || p.gen != pgen || p.state != Running {
			return
		}
		s.state = Running
		m.log.Add(m.clk.Now(), trace.ComponentReady, name, "",
			fmt.Sprintf("microreboot=%d reattached", s.microreboots))
		for _, fn := range m.onReady {
			fn(name)
		}
	})
	return nil
}

// subKill crashes a subcomponent's logic inside a live container. With the
// parent itself down the kill is a no-op — the process-level failure
// already covers it.
func (m *Manager) subKill(name, reason string, kind trace.Kind) error {
	s := m.subs[name]
	p := m.procs[s.parent]
	if p.state != Running && p.state != Starting || p.silenced {
		return nil
	}
	if s.state == Dead {
		return nil
	}
	h, ok := p.handler.(Microrebootable)
	if !ok {
		return fmt.Errorf("proc: %s does not host microrebootable subcomponents", s.parent)
	}
	s.gen++
	s.state = Dead
	h.SubFail(s.short)
	m.log.Add(m.clk.Now(), kind, name, "", reason)
	for _, fn := range m.onDown {
		fn(name, reason)
	}
	return nil
}

// subsOnParentStart resets subcomponents to Starting when their container
// launches a fresh incarnation; they come up with it.
func (m *Manager) subsOnParentStart(parent string) {
	for _, full := range m.subOrder {
		if s := m.subs[full]; s.parent == parent {
			s.gen++
			s.state = Starting
		}
	}
}

// subsOnParentReady marks subcomponents attached when their container
// becomes ready, firing OnReady for each dotted name so recovery actions
// that named them observe completion.
func (m *Manager) subsOnParentReady(parent string) {
	for _, full := range m.subOrder {
		s := m.subs[full]
		if s.parent != parent {
			continue
		}
		s.state = Running
		for _, fn := range m.onReady {
			fn(full)
		}
	}
}

// subsOnParentDown marks subcomponents dead with their container, firing
// OnDown for each dotted name.
func (m *Manager) subsOnParentDown(parent, reason string) {
	for _, full := range m.subOrder {
		s := m.subs[full]
		if s.parent != parent || s.state == Dead || s.state == Stopped {
			continue
		}
		s.gen++
		s.state = Dead
		for _, fn := range m.onDown {
			fn(full, reason)
		}
	}
}

// expandBatch widens a restart batch with the subcomponents of every named
// parent: a batch that restarts ses also repairs ses.cache and ses.est,
// and cure-coverage checks must see that.
func (m *Manager) expandBatch(names []string) []string {
	if len(m.subOrder) == 0 {
		return names
	}
	out := append([]string(nil), names...)
	for _, name := range names {
		out = append(out, m.Subs(name)...)
	}
	return out
}

// splitRestartSet partitions a recovery set into process names and the
// subcomponents needing an individual microreboot (subs whose parent is
// already being restarted ride along for free).
func (m *Manager) splitRestartSet(names []string) (procs, micro []string, err error) {
	inProcs := make(map[string]bool, len(names))
	for _, name := range names {
		if m.IsSub(name) {
			continue
		}
		if _, err := m.proc(name); err != nil {
			return nil, nil, err
		}
		inProcs[name] = true
		procs = append(procs, name)
	}
	for _, name := range names {
		if s, ok := m.subs[name]; ok && !inProcs[s.parent] {
			micro = append(micro, name)
		}
	}
	return procs, micro, nil
}
