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

// SubName joins a parent component and a subcomponent short name into the
// dotted full name used across trees, cure sets and trace events.
func SubName(parent, short string) string { return parent + "." + short }

// RegisterSub registers a subcomponent of an existing process under the
// dotted name parent.short. A subcomponent is a Process with a parent and
// no handler — its logic lives inside the parent's Handler, which must
// implement Microrebootable by the time a fault or microreboot reaches it —
// but it is a first-class restart-tree citizen: it appears in cure sets,
// fires OnDown/OnReady events, occupies the cheapest rung of the escalation
// ladder, and answers State, Serving, Incarnation, Restarts, StartedAt,
// ReadyAt, Kill and Silence under its dotted name. It follows its parent
// down and up; while the parent lives, Dead means its logic crashed inside
// the container and Starting a microreboot in progress.
func (m *Manager) RegisterSub(parent, short string) error {
	p, err := m.top(parent)
	if err != nil {
		return err
	}
	full := SubName(parent, short)
	if _, ok := m.procs[full]; ok {
		return fmt.Errorf("%w: %s", ErrAlreadyExists, full)
	}
	s := m.record()
	s.name, s.short, s.parent = full, short, p
	m.procs[full] = s
	p.subs = append(p.subs, s)
	m.subOrder = append(m.subOrder, full)
	return nil
}

// Parent returns the process hosting the subcomponent name, or "" if name
// is not a registered subcomponent.
func (m *Manager) Parent(name string) string {
	if p := m.procs[name]; p != nil && p.parent != nil {
		return p.parent.name
	}
	return ""
}

// SubNames returns every registered subcomponent in registration order.
func (m *Manager) SubNames() []string {
	return append([]string(nil), m.subOrder...)
}

// SubMicroreboots is Restarts: a subcomponent restarts only by microreboot.
func (m *Manager) SubMicroreboots(name string) (int, error) { return m.Restarts(name) }

// Microreboot repairs a single subcomponent in place: the cheapest rung of
// the restart ladder. The parent process must be Running — if it is not,
// the failure belongs to the process level and callers should escalate.
// The sub's logic state is discarded and reattached to the store via the
// handler's SubMicroreboot; after the returned re-init delay the sub is
// functional and OnReady fires for its dotted name.
func (m *Manager) Microreboot(name string) error {
	s := m.procs[name]
	if s == nil || s.parent == nil {
		return fmt.Errorf("%w: %s", ErrUnknownProcess, name)
	}
	p := s.parent
	if p.state != Running {
		return fmt.Errorf("proc: cannot microreboot %s: parent %s is %s", name, p.name, p.state)
	}
	h, ok := p.handler.(Microrebootable)
	if !ok {
		return fmt.Errorf("proc: %s does not host microrebootable subcomponents", p.name)
	}
	m.lend(append(m.batch[:0], name))
	d := h.SubMicroreboot(s.short)
	s.restarts++
	M.Microreboots.Inc()
	s.move(evBegin, trace.Event{Kind: trace.ComponentStarting, Action: trace.Microreboot, Count: int32(s.restarts), Dur: d})
	// A kill, a process restart or a newer microreboot ends this
	// incarnation of the sub, and with it the reattach.
	s.schedule(s.gen, d, (*reattachEvent)(s))
	return nil
}

// reattachEvent ends a microreboot of the sub it converts from: the sub's
// logic is functional again. It is the record under another type, so
// arming it allocates nothing and grows nothing.
type reattachEvent Process

func (e *reattachEvent) Fire() {
	s := (*Process)(e)
	s.move(evReady, trace.Event{Kind: trace.ComponentReady, Action: trace.Microreboot, Count: int32(s.restarts)})
}

// subKill crashes a subcomponent's logic inside a live container. With the
// parent itself down or silenced the kill is a no-op — the process-level
// failure already covers it.
func (s *Process) subKill(reason string) error {
	p := s.parent
	if !p.live() || p.silenced || !s.live() {
		return nil
	}
	h, ok := p.handler.(Microrebootable)
	if !ok {
		return fmt.Errorf("proc: %s does not host microrebootable subcomponents", p.name)
	}
	h.SubFail(s.short)
	s.move(evDown, trace.Event{Kind: trace.ComponentDown, Detail: reason})
	return nil
}
