package core

// This file implements a slice of the paper's §7 "recursively recoverable
// systems" generalisation: restart is just one example of a recovery
// procedure. A component may register a custom procedure — power-cycling a
// wedged serial port before respawning the process, replaying a journal,
// re-negotiating a session — and the recoverer invokes it in place of the
// plain restart whenever a restart action targets exactly that component.
// Escalated (multi-component) restarts remain plain restarts: custom
// procedures compose upward through the same tree.

// Recovery is a custom recovery procedure. Execute must leave the
// components (re)starting so that their eventual ready events complete the
// recovery action, exactly as a plain restart would.
type Recovery interface {
	// Name labels the procedure in traces.
	Name() string
	// Execute initiates recovery of the given components.
	Execute(set []string) error
}

// FuncRecovery adapts a closure to Recovery.
type FuncRecovery struct {
	Label string
	Fn    func(set []string) error
}

var _ Recovery = FuncRecovery{}

// Name implements Recovery.
func (f FuncRecovery) Name() string { return f.Label }

// Execute implements Recovery.
func (f FuncRecovery) Execute(set []string) error { return f.Fn(set) }
