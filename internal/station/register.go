package station

import (
	"fmt"

	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/proc"
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

// Factory is the one name → handler-factory table for station components:
// the simulator, the live node and a multi-process child all resolve a
// component through it. The layout decides which front end rtu talks to.
func Factory(name string, p Params, layout Layout) (func() proc.Handler, error) {
	switch name {
	case MBus:
		return bus.BrokerHandler(p.MBusStartup), nil
	case SES:
		return NewSES(p), nil
	case STR:
		return NewSTR(p), nil
	case RTU:
		if layout == Monolithic {
			return NewRTU(p, Fedrcom), nil
		}
		return NewRTU(p, Fedr), nil
	case Fedr:
		return NewFedr(p), nil
	case Pbcom:
		return NewPbcom(p), nil
	case Fedrcom:
		return NewFedrcom(p), nil
	default:
		return nil, fmt.Errorf("station: no handler for component %q", name)
	}
}

// Register registers the layout's components with the manager and returns
// their names. The caller starts them (typically with StartBatch, which is
// itself the initial whole-system boot). override, when non-nil, is asked
// for each component's factory first and the table serves the ones it
// answers nil for: a live runtime swaps in the broker handler that owns a
// real listener, a supervisor its child-process proxies.
func Register(mgr *proc.Manager, p Params, layout Layout, override func(name string) func() proc.Handler) ([]string, error) {
	if p.AntennaSlewRateRad <= 0 {
		return nil, fmt.Errorf("station: antenna slew rate must be positive")
	}
	names, err := layout.Components()
	if err != nil {
		return nil, err
	}
	if p.Micro != nil {
		if layout != Split {
			return nil, fmt.Errorf("station: micro mode requires the split layout, got %s", layout)
		}
		if p.Micro.Store == nil {
			return nil, fmt.Errorf("station: micro mode requires a store")
		}
	}
	for _, name := range names {
		var factory func() proc.Handler
		if override != nil {
			factory = override(name)
		}
		if factory == nil {
			if factory, err = Factory(name, p, layout); err != nil {
				return nil, err
			}
		}
		if err := mgr.Register(name, factory); err != nil {
			return nil, err
		}
	}
	if p.Micro != nil {
		if err := RegisterSubs(mgr); err != nil {
			return nil, err
		}
	}
	return names, nil
}
