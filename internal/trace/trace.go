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
//
// An event carries its numbers as data, and AppendText is the one place a
// line's text is made. The fields each kind sets, and how its detail (the
// text after comp= and node=) reads:
//
//	FaultInjected      Fault, Hang, Hard, Set; Detail a state fault's key
//	                   id=<Fault> mode=crash|hang[ state=<Detail>] cure=[<Set>] hard=<Hard>
//	FaultCured         Fault: id=<Fault>
//	ComponentStarting  Count, Stretch: incarnation=<Count> stretch=<Stretch to 3 places>
//	                   Action Microreboot, Count, Dur: microreboot=<Count> reinit=<Dur>
//	ComponentReady     Count, Dur: incarnation=<Count> startup=<Dur>
//	                   Action Microreboot, Count: microreboot=<Count> reattached
//	OracleGuess        Count, Action; Detail the policy's name
//	                   policy=<Detail> attempt=<Count> action=<Action>
//	RestartRequested   Action, Set; Dur a checkpoint restore's latency
//	                   restarting|microrebooting [<Set>], ckpt-restore (<Dur>) then reboot [<Set>]
//	GiveUp             Count, Dur: restart budget exhausted (<Count> in <Dur>)
//	Note               Dur, Count: restart backoff <Dur> (<Count> recent restarts)
//
// A startup or re-init Dur reads in seconds to 2 places ("4.92s"), any
// other as time.Duration prints it. A line without those fields (no Fault,
// Count, Action or Dur where the table has one) and every other kind
// render Detail as it is: a note, a reason.
package trace

import (
	"strconv"
	"sync"
	"time"
)

// Kind classifies a trace event.
type Kind uint8

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

var kindNames = [...]string{
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

// String names the kind; an unknown one is "kind(N)".
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// Action is a recovery action: what an OracleGuess chose and a
// RestartRequested carries out. Microreboot also marks a microreboot's
// lifecycle lines. core names them ActRestart, ActMicroreboot and
// ActCkptRestore.
type Action uint8

// Recovery actions, cheapest-first on a typical ladder.
const (
	Restart Action = iota + 1
	Microreboot
	CkptRestore
)

var actionNames = [...]string{Restart: "restart", Microreboot: "microreboot", CkptRestore: "ckpt-restore"}

// String names the action for traces and metric labels.
func (a Action) String() string {
	if int(a) < len(actionNames) && actionNames[a] != "" {
		return actionNames[a]
	}
	return "unknown"
}

// Event is one timestamped record. It is comparable, and small enough to
// hand every subscriber by value, with its one-byte fields packed at the
// end. The package doc's table says which fields each kind sets.
type Event struct {
	At        time.Time
	Component string // affected component, if any
	Node      string // restart-tree node, if any
	// Detail is free text: a note or a reason, or the one name a line
	// carries beyond its component and node.
	Detail  string
	Fault   string        // the fault's ID
	Set     string        // a restart or cure set, its names joined by spaces
	Dur     time.Duration // a startup, re-init, backoff or restore latency, or a budget window
	Stretch float64       // the restart-contention factor a start is slowed by
	Count   int32         // an incarnation, microreboot, attempt or (recent) restart count
	Kind    Kind
	Action  Action
	Hang    bool // the fault is a hang, not a crash
	Hard    bool // no restart cures the fault
}

// String renders one log line.
func (e Event) String() string { return string(e.AppendText(nil)) }

// AppendText appends the log line to dst: the time of day to the
// millisecond, the kind padded to 18 columns, comp= and node= when set,
// then the detail.
func (e Event) AppendText(dst []byte) []byte {
	dst = append(e.At.AppendFormat(dst, "15:04:05.000"), ' ')
	n := len(dst)
	dst = append(dst, e.Kind.String()...)
	for len(dst)-n < 18 {
		dst = append(dst, ' ')
	}
	if e.Component != "" {
		dst = append(append(dst, " comp="...), e.Component...)
	}
	if e.Node != "" {
		dst = append(append(dst, " node="...), e.Node...)
	}
	n = len(dst)
	if dst = e.AppendDetail(append(dst, ' ')); len(dst) == n+1 {
		dst = dst[:n]
	}
	return dst
}

// AppendDetail appends the line's detail, the text after comp= and node=,
// to dst: the package doc's table.
func (e *Event) AppendDetail(dst []byte) []byte {
	switch {
	case e.Kind == FaultInjected && e.Fault != "":
		mode := " mode=crash"
		if e.Hang {
			mode = " mode=hang"
		}
		dst = append(append(append(dst, "id="...), e.Fault...), mode...)
		if e.Detail != "" {
			dst = append(append(dst, " state="...), e.Detail...)
		}
		dst = append(append(append(dst, " cure=["...), e.Set...), "] hard="...)
		return strconv.AppendBool(dst, e.Hard)
	case e.Kind == FaultCured && e.Fault != "":
		return append(append(dst, "id="...), e.Fault...)
	case (e.Kind == ComponentStarting || e.Kind == ComponentReady) && e.Count != 0:
		if e.Action == Microreboot {
			dst = strconv.AppendInt(append(dst, "microreboot="...), int64(e.Count), 10)
			if e.Kind == ComponentReady {
				return append(dst, " reattached"...)
			}
			return appendSeconds(append(dst, " reinit="...), e.Dur)
		}
		dst = strconv.AppendInt(append(dst, "incarnation="...), int64(e.Count), 10)
		if e.Kind == ComponentReady {
			return appendSeconds(append(dst, " startup="...), e.Dur)
		}
		return strconv.AppendFloat(append(dst, " stretch="...), e.Stretch, 'f', 3, 64)
	case e.Kind == OracleGuess && e.Count != 0:
		dst = append(append(dst, "policy="...), e.Detail...)
		dst = strconv.AppendInt(append(dst, " attempt="...), int64(e.Count), 10)
		return append(append(dst, " action="...), e.Action.String()...)
	case e.Kind == RestartRequested && e.Action != 0:
		switch e.Action {
		case Microreboot:
			dst = append(dst, "microrebooting "...)
		case CkptRestore:
			dst = append(append(append(dst, "ckpt-restore ("...), e.Dur.String()...), ") then reboot "...)
		default:
			dst = append(dst, "restarting "...)
		}
		return append(append(append(dst, '['), e.Set...), ']')
	case e.Kind == GiveUp && e.Dur != 0:
		dst = strconv.AppendInt(append(dst, "restart budget exhausted ("...), int64(e.Count), 10)
		return append(append(append(dst, " in "...), e.Dur.String()...), ')')
	case e.Kind == Note && e.Dur != 0:
		dst = append(append(dst, "restart backoff "...), e.Dur.String()...)
		dst = strconv.AppendInt(append(dst, " ("...), int64(e.Count), 10)
		return append(dst, " recent restarts)"...)
	}
	return append(dst, e.Detail...)
}

// appendSeconds appends d in seconds to two places, then "s".
func appendSeconds(dst []byte, d time.Duration) []byte {
	return append(strconv.AppendFloat(dst, d.Seconds(), 'f', 2, 64), 's')
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
