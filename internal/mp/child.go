// Package mp is the multi-process runtime: every station component runs in
// its own OS process, connected over the real TCP bus, exactly like
// Mercury's per-JVM deployment. The supervisor process hosts the bus
// broker, the failure detector and the recoverer; pushing a restart-cell
// button really SIGKILLs child processes and spawns fresh ones.
package mp

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/rt"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// Environment variables carrying a child's spec (set by the supervisor's
// default spawner; read by SpecFromEnv in the child's main).
const (
	EnvComponent   = "MERCURY_MP_COMPONENT"
	EnvBusAddr     = "MERCURY_MP_BUS"
	EnvScale       = "MERCURY_MP_SCALE"
	EnvStretch     = "MERCURY_MP_STRETCH"
	EnvSeed        = "MERCURY_MP_SEED"
	EnvLayout      = "MERCURY_MP_LAYOUT"
	EnvIncarnation = "MERCURY_MP_INCARNATION"
)

// ChildConfig parameterises one component process.
type ChildConfig struct {
	Component   string
	BusAddr     string
	Scale       float64
	Stretch     float64
	Seed        int64
	Layout      string // "split" or "monolithic"
	Incarnation int
}

// Env renders the spec as environment variable assignments.
func (c ChildConfig) Env() []string {
	return []string{
		EnvComponent + "=" + c.Component,
		EnvBusAddr + "=" + c.BusAddr,
		EnvScale + "=" + strconv.FormatFloat(c.Scale, 'g', -1, 64),
		EnvStretch + "=" + strconv.FormatFloat(c.Stretch, 'g', -1, 64),
		EnvSeed + "=" + strconv.FormatInt(c.Seed, 10),
		EnvLayout + "=" + c.Layout,
		EnvIncarnation + "=" + strconv.Itoa(c.Incarnation),
	}
}

// SpecFromEnv reads a child spec from the environment; ok is false when
// this process is not a component child. Call it first thing in main (or
// TestMain) and hand control to RunChild when ok.
func SpecFromEnv() (ChildConfig, bool) {
	comp := os.Getenv(EnvComponent)
	if comp == "" {
		return ChildConfig{}, false
	}
	scale, _ := strconv.ParseFloat(os.Getenv(EnvScale), 64)
	stretch, _ := strconv.ParseFloat(os.Getenv(EnvStretch), 64)
	seed, _ := strconv.ParseInt(os.Getenv(EnvSeed), 10, 64)
	inc, _ := strconv.Atoi(os.Getenv(EnvIncarnation))
	return ChildConfig{
		Component:   comp,
		BusAddr:     os.Getenv(EnvBusAddr),
		Scale:       scale,
		Stretch:     stretch,
		Seed:        seed,
		Layout:      os.Getenv(EnvLayout),
		Incarnation: inc,
	}, true
}

// readyPrefix is the stdout line a child prints once its component is
// functionally ready; the supervisor scans for it.
const readyPrefix = "MERCURY-READY"

// hangCommand is the bus command the supervisor sends to silence a child
// (injected hang faults).
const hangCommand = "sys-hang"

// RunChild hosts one station component in this OS process. It connects to
// the bus (retrying while the broker boots), starts the component with the
// supervisor-assigned contention stretch, announces readiness on stdout,
// and returns when the component dies — the process is the component, as
// with Mercury's JVMs, so local death means process exit.
func RunChild(cfg ChildConfig) error {
	if cfg.Component == "" || cfg.BusAddr == "" {
		return errors.New("mp: child needs a component and a bus address")
	}
	if cfg.Component == station.MBus {
		return errors.New("mp: the broker lives in the supervisor, not in a child")
	}
	var layout station.Layout
	switch cfg.Layout {
	case station.Split.String():
		layout = station.Split
	case station.Monolithic.String():
		layout = station.Monolithic
	default:
		return fmt.Errorf("mp: unknown station layout %q", cfg.Layout)
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Stretch < 1 {
		cfg.Stretch = 1
	}

	disp := rt.NewDispatcher()
	defer disp.Stop()
	clk := rt.Clock{D: disp, Scale: cfg.Scale}
	log := trace.NewLog()
	rng := rand.New(rand.NewSource(cfg.Seed))
	mgr := proc.NewManager(clk, rng, log)
	// The supervisor's hang command silences the component: it stays up
	// at the OS level and goes fail-silent, as a hang does in-process.
	disp.DeliverTo(func(m *xmlcmd.Message) bool {
		if m.Kind() == xmlcmd.KindCommand && m.Command.Name == hangCommand {
			return mgr.Silence(cfg.Component) == nil
		}
		return mgr.Deliver(m)
	})

	factory, err := station.Factory(cfg.Component, clk.Now(), nil, layout)
	if err != nil {
		return err
	}

	// Registered before the first inbound message can reach Deliver: the
	// dispatcher reads the process table the moment a client is dialled.
	if err := mgr.Register(cfg.Component, factory); err != nil {
		return err
	}

	// Connect to the broker, retrying while it is still starting. Inbound
	// messages are the dispatcher's from the read loop's hand-off until the
	// delivery returns, when their envelopes go back to the connection.
	var client bus.Conn
	deadline := time.Now().Add(30 * time.Second)
	for {
		client, err = bus.DialAuto(cfg.BusAddr, cfg.Component, disp.PostMessage)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mp: bus never came up: %w", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	defer client.Close()
	mgr.SetTransport(client)

	died := make(chan string, 1)
	mgr.OnReady(func(name string) {
		fmt.Printf("%s %s %d\n", readyPrefix, name, cfg.Incarnation)
	})
	mgr.OnDown(func(name, reason string) {
		if st, _ := mgr.State(name); st != proc.Dead {
			return // silenced: hung, not gone
		}
		select {
		case died <- reason:
		default:
		}
	})

	var startErr error
	disp.Call(func() { startErr = mgr.StartStretched(cfg.Component, cfg.Stretch) })
	if startErr != nil {
		return startErr
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case reason := <-died:
		return fmt.Errorf("mp: component %s died: %s", cfg.Component, reason)
	case <-sig:
		return nil
	}
}
