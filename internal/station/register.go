package station

import (
	"fmt"
	"time"

	"github.com/recursive-restart/mercury/internal/antenna"
	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/orbit"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/store"
)

// Component bus addresses re-exported for convenience.
const (
	MBus    = "mbus"
	Fedrcom = "fedrcom"
	Fedr    = "fedr"
	Pbcom   = "pbcom"
	SES     = "ses"
	STR     = "str"
	RTU     = "rtu"
)

// Layout selects which component decomposition to build.
type Layout int

// Layouts.
const (
	// Monolithic is the original station: fedrcom as one process
	// (trees I and II).
	Monolithic Layout = iota + 1
	// Split is the station after the fedrcom split into fedr + pbcom
	// (trees III, IV and V).
	Split
)

// String names the layout.
func (l Layout) String() string {
	switch l {
	case Monolithic:
		return "monolithic"
	case Split:
		return "split"
	default:
		return fmt.Sprintf("layout(%d)", int(l))
	}
}

// Components returns the component set of the layout.
func (l Layout) Components() ([]string, error) {
	switch l {
	case Monolithic:
		return MonolithicComponents(), nil
	case Split:
		return SplitComponents(), nil
	default:
		return nil, fmt.Errorf("station: unknown layout %d", int(l))
	}
}

// MonolithicComponents lists the tree-I/II component set.
func MonolithicComponents() []string {
	return []string{MBus, Fedrcom, SES, STR, RTU}
}

// SplitComponents lists the component set after the fedrcom split
// (trees III, IV, V).
func SplitComponents() []string {
	return []string{MBus, Fedr, Pbcom, SES, STR, RTU}
}

// Factory is the one name → handler-factory table for station components:
// the simulator, the live node and a multi-process child all resolve a
// component through it. epoch anchors the workload satellite's elements;
// st is the crash-only store micro mode externalizes state into, nil in
// classic mode. The layout decides which front end rtu talks to.
func Factory(name string, epoch time.Time, st *store.Store, layout Layout) (func() proc.Handler, error) {
	b := base{store: st}
	switch name {
	case MBus:
		return bus.BrokerHandler(MBusStartup), nil
	case SES:
		observer := orbit.NewObserver(Workload(epoch))
		return func() proc.Handler {
			return &sesComponent{syncCore: syncCore{base: b, peer: STR}, observer: observer}
		}, nil
	case STR:
		return func() proc.Handler {
			ant := &antenna.Model{SlewRateRad: antennaSlewRateRad, BeamwidthRad: antennaBeamwidthRad}
			return &strComponent{syncCore: syncCore{base: b, peer: SES}, ant: ant}
		}, nil
	case RTU:
		front := Fedr
		if layout == Monolithic {
			front = Fedrcom
		}
		return func() proc.Handler { return &rtuComponent{base: b, front: front} }, nil
	case Fedr:
		return func() proc.Handler { return &fedrComponent{base: b} }, nil
	case Pbcom:
		return func() proc.Handler { return &pbcomComponent{tuner: newTuner(b)} }, nil
	case Fedrcom:
		return func() proc.Handler { return &fedrcomComponent{tuner: newTuner(b)} }, nil
	default:
		return nil, fmt.Errorf("station: no handler for component %q", name)
	}
}

// Register registers the layout's components with the manager and returns
// their names; a non-nil st turns micro mode on, which needs the split
// layout. The caller starts them (typically with StartBatch, which is
// itself the initial whole-system boot). override, when non-nil, is asked
// for each component's factory first and the table serves the ones it
// answers nil for: a live runtime swaps in the broker handler that owns a
// real listener, a supervisor its child-process proxies.
func Register(mgr *proc.Manager, epoch time.Time, st *store.Store, layout Layout, override func(name string) func() proc.Handler) ([]string, error) {
	names, err := layout.Components()
	if err != nil {
		return nil, err
	}
	if st != nil && layout != Split {
		return nil, fmt.Errorf("station: micro mode requires the split layout, got %s", layout)
	}
	for _, name := range names {
		var factory func() proc.Handler
		if override != nil {
			factory = override(name)
		}
		if factory == nil {
			if factory, err = Factory(name, epoch, st, layout); err != nil {
				return nil, err
			}
		}
		if err := mgr.Register(name, factory); err != nil {
			return nil, err
		}
	}
	if st != nil {
		if err := RegisterSubs(mgr); err != nil {
			return nil, err
		}
	}
	return names, nil
}
