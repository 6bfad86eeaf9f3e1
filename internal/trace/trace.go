// Package trace records the structured event log that experiments measure
// recovery time from. The paper defines recovery time as the interval from
// the instant a failure occurs (the SIGKILL, not its detection) until the
// component logs a timestamped "functionally ready" message; this package
// is that log.
//
// The trace is the record of what happened: every runtime (simulator, live
// node, multi-process supervisor) appends the same lifecycle events to a
// Log and subscribers (experiments, the mercuryd live stream) see each one
// as it is appended; the Log itself keeps none. Outages is how an outage
// is read from that record: the one fold every availability, downtime and
// time-to-recover figure comes from. internal/obs is the other half of observation — aggregate
// instruments for scraping, which count and time but do not say what
// happened.
package trace

import (
	"fmt"
	"sync"
	"time"
)

// Kind classifies a trace event.
type Kind int

// Trace event kinds.
const (
	// FaultInjected marks the instant a fault is delivered to a component.
	// Downtime starts here (paper §3.2).
	FaultInjected Kind = iota + 1
	// ComponentDown marks the instant a component actually stops serving.
	ComponentDown
	// FailureDetected marks FD reporting a failed component to REC.
	FailureDetected
	// RestartRequested marks REC deciding to push a restart-cell button.
	RestartRequested
	// ComponentKilled marks a component being torn down as part of a
	// restart action.
	ComponentKilled
	// ComponentStarting marks the beginning of a component's startup.
	ComponentStarting
	// ComponentReady marks the component's "functionally ready" log line.
	ComponentReady
	// FaultCured marks a fault's minimal cure set having been restarted.
	FaultCured
	// SystemRecovered marks all components ready with no active fault.
	SystemRecovered
	// OracleGuess records which node the oracle recommended.
	OracleGuess
	// GiveUp marks the restart policy abandoning a "hard" failure after
	// exhausting its restart budget.
	GiveUp
	// Note is free-form annotation.
	Note
)

var kindNames = map[Kind]string{
	FaultInjected:     "fault-injected",
	ComponentDown:     "component-down",
	FailureDetected:   "failure-detected",
	RestartRequested:  "restart-requested",
	ComponentKilled:   "component-killed",
	ComponentStarting: "component-starting",
	ComponentReady:    "component-ready",
	FaultCured:        "fault-cured",
	SystemRecovered:   "system-recovered",
	OracleGuess:       "oracle-guess",
	GiveUp:            "give-up",
	Note:              "note",
}

// String names the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one timestamped record.
type Event struct {
	At        time.Time
	Kind      Kind
	Component string // affected component, if any
	Node      string // restart-tree node, if any
	Detail    string
}

// String renders one log line.
func (e Event) String() string {
	s := fmt.Sprintf("%s %-18s", e.At.Format("15:04:05.000"), e.Kind)
	if e.Component != "" {
		s += " comp=" + e.Component
	}
	if e.Node != "" {
		s += " node=" + e.Node
	}
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// Log is the event stream, safe for concurrent use so it serves both the
// single-threaded simulator and the real-time runtime. It keeps no
// history: every event goes to the subscribers as it is appended, and a
// reader that wants past events (a test, say) subscribes before they
// happen.
type Log struct {
	mu   sync.Mutex
	subs []func(Event)
}

// NewLog returns a log with no subscribers.
func NewLog() *Log { return &Log{} }

// Append fans an event out to the subscribers.
func (l *Log) Append(e Event) {
	l.mu.Lock()
	subs := l.subs
	l.mu.Unlock()
	for _, fn := range subs {
		fn(e)
	}
}

// Add is shorthand for Append with the common fields.
func (l *Log) Add(at time.Time, k Kind, component, node, detail string) {
	l.Append(Event{At: at, Kind: k, Component: component, Node: node, Detail: detail})
}

// Subscribe registers fn to be called for every future event. Subscribers
// run on the appender's context and must be fast and non-blocking.
func (l *Log) Subscribe(fn func(Event)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.subs = append(l.subs, fn)
}

// Reset does nothing: the log keeps no events to discard. It remains
// because the benchmark's append probe calls it.
func (l *Log) Reset() {}

// Outages folds a trace into the station's outage history under A_entire:
// the station is down from the first ComponentDown or ComponentKilled until
// the next SystemRecovered, however many components go down in between.
// Feed it every event in order, from a log subscriber; the zero value is an
// empty history, and a fold attached mid-run ignores an outage it did not
// see open.
type Outages struct {
	Down       bool          // an outage is open
	Since      time.Time     // when it opened, or was last charged by CloseAt
	Downtime   time.Duration // closed outages, plus what CloseAt charged
	Recoveries int           // closed outages
	GiveUps    int           // restart-policy abandonments

	injected   bool
	injectedAt time.Time
	recovered  bool
	recovery   time.Duration
}

// Observe folds one event in. When the event closes an outage it reports
// that outage's length.
func (o *Outages) Observe(e Event) (closed time.Duration, ok bool) {
	switch e.Kind {
	case FaultInjected:
		o.injected, o.injectedAt = true, e.At
	case ComponentDown, ComponentKilled:
		if !o.Down {
			o.Down, o.Since = true, e.At
		}
	case SystemRecovered:
		if o.injected {
			o.injected = false
			o.recovered, o.recovery = true, e.At.Sub(o.injectedAt)
		}
		if o.Down {
			o.Down = false
			closed = e.At.Sub(o.Since)
			o.Downtime += closed
			o.Recoveries++
			return closed, true
		}
	case GiveUp:
		o.GiveUps++
	}
	return 0, false
}

// CloseAt charges an open outage's time up to t — a campaign's horizon or a
// phase boundary — to Downtime. It stays open and is no recovery.
func (o *Outages) CloseAt(t time.Time) {
	if o.Down {
		o.Downtime += t.Sub(o.Since)
		o.Since = t
	}
}

// Recovery returns the paper's time-to-recover of the most recent fault
// that has recovered: from its FaultInjected (the failure instant, not its
// detection) to the first SystemRecovered after it, if there is one yet.
func (o *Outages) Recovery() (d time.Duration, ok bool) {
	return o.recovery, o.recovered
}
