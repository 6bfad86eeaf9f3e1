// Package mercury is a recursively restartable satellite ground station —
// a full reproduction of "Reducing Recovery Time in a Small Recursively
// Restartable System" (Candea, Cutler, Fox, Doshi, Garg, Gowda; DSN 2002).
//
// A System bundles the deterministic simulation kernel, the ground-station
// components (mbus, ses, str, rtu, and fedrcom or its split fedr + pbcom),
// the fault-injection board, the failure detector (FD), the recoverer
// (REC) and a restart tree with its oracle. The five restart trees of the
// paper (I–V) and the three tree transformations (depth augmentation,
// group consolidation, node promotion) are available through the Tree and
// Policy options.
//
// Quick start:
//
//	sys, err := mercury.NewSystem(mercury.Config{Seed: 1, TreeName: "IV"})
//	...
//	sys.Boot()
//	d, err := sys.MeasureRecovery(mercury.Fault{Component: "rtu"}, time.Minute)
//	fmt.Printf("recovered in %v\n", d)
package mercury

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/recursive-restart/mercury/internal/assemble"
	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/sim"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// Policy selects the restart policy (the oracle) by its name in core's
// policy table (core.PolicyByName); "" means PolicyEscalating.
type Policy string

// Policies.
const (
	// PolicyEscalating is the realistic default: restart the failed
	// component's cell, then walk up the tree while the failure persists.
	PolicyEscalating Policy = "escalating"
	// PolicyPerfect embodies the paper's A_oracle: the minimal restart is
	// always recommended (consults the fault board, an experimental
	// device).
	PolicyPerfect Policy = "perfect"
	// PolicyFaulty guesses too low with probability Config.FaultyP
	// (paper §4.4 uses 0.30).
	PolicyFaulty Policy = "faulty"
	// PolicyLearning estimates cure probabilities from restart outcomes
	// and converges toward the minimal policy (paper §7 future work).
	PolicyLearning Policy = "learning"
	// PolicyCostAware is oracle v2: it chooses restart depth, microreboot
	// or checkpoint-restore by minimizing expected user-facing harm under
	// live MTTF/MTTR estimates (DESIGN.md §12).
	PolicyCostAware Policy = "costaware"
	// PolicyFixedMicro always microreboots first, then escalates restarts
	// — the policy-campaign baseline for "cheapest rung first, always".
	PolicyFixedMicro Policy = "fixed-micro"
	// PolicyFixedProcess always starts at the hosting process's cell,
	// skipping the sub-level rungs entirely.
	PolicyFixedProcess Policy = "fixed-process"
	// PolicyFixedCkpt always starts with checkpoint-restore when a
	// checkpoint exists.
	PolicyFixedCkpt Policy = "fixed-ckpt"
)

// Config parameterises a System.
type Config struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// Kernel, when non-nil, is the simulation kernel to build on instead of
	// creating a fresh one from Seed (Seed is then ignored). Fleet campaigns
	// use this to co-locate several stations on one shard kernel; such
	// systems must be booted together with BootAll, not System.Boot.
	Kernel *sim.Kernel
	// TreeName picks the restart tree: "I", "II", "IIp", "III", "IV", "V",
	// "IIIm", "IVm". Trees I and II imply the monolithic fedrcom layout;
	// the rest use the split layout. The m-variants turn micro mode on:
	// session/track state moves into a crash-only store and the fat
	// components gain individually restartable subcomponents (ses.cache,
	// str.track, ...), each a cell of the tree. Default "IV".
	TreeName string
	// Policy picks the oracle; default PolicyEscalating.
	Policy Policy
	// FaultyP is the guess-too-low probability for PolicyFaulty.
	FaultyP float64
	// FDParams / RECParams override detector and recoverer settings.
	FDParams  *core.FDParams
	RECParams *core.RECParams
	// DisableRecovery builds the station without FD/REC (for baselines
	// that model the pre-RR, operator-driven Mercury).
	DisableRecovery bool
	// CustomTree, when non-nil, overrides TreeName with an arbitrary
	// restart tree over the split component layout (the treeopt
	// validation campaigns boot thousands of these). Micro mode still
	// follows TreeName, and the tree must then hold the subcomponents.
	CustomTree *core.Tree
	// CkptInterval sets the checkpoint period; 0 means the 10s default.
	// The checkpoint manager only exists in micro mode and only when a
	// checkpoint-aware policy or a positive interval asks for it; a
	// positive interval on a classic tree is an error.
	CkptInterval time.Duration
	// HarmRates maps a component (or dotted sub, falling back to its
	// hosting process) to the user-harm rate an outage of it causes —
	// typically the offered request rate against it. Oracle v2 reports
	// predicted harm in these units; nil means rate 1 everywhere.
	HarmRates map[string]float64
}

// Fault describes a failure to inject.
type Fault struct {
	// Component is where the failure manifests (fail-silent).
	Component string
	// Cure is the minimal set of components whose joint restart cures it;
	// empty means the component alone.
	Cure []string
	// Hard marks a failure no restart can cure.
	Hard bool
	// Hang delivers the failure as a hang (spin/livelock) instead of a
	// crash; both look identical to the failure detector.
	Hang bool
	// StateKey marks a state-corruption fault on this store key: restarting
	// the manifest alone reattaches to the poison; the cure is either the
	// full Cure-set restart or a pre-injection checkpoint restore plus a
	// manifest reboot.
	StateKey string
}

// System is a fully wired, simulated Mercury ground station: one
// assembled station (fault board, trees, store and checkpoint plane,
// oracle, FD/REC handles — see assemble.Station) on a simulation kernel.
type System struct {
	Kernel *sim.Kernel
	Clock  clock.Clock
	Mgr    *proc.Manager
	Bus    *bus.Sim
	assemble.Station
	Injector  *fault.Injector
	Log       *trace.Log
	Collector *station.Collector
	// Outages is the trace's outage fold since construction (experiments
	// attach their own for a narrower window).
	Outages trace.Outages

	booted bool
}

// Errors.
var (
	ErrUnknownTree = assemble.ErrUnknownTree
	ErrNotBooted   = errors.New("mercury: system not booted")
	ErrNoRecovery  = errors.New("mercury: system did not recover before the deadline")
)

// FDName and RECName are the infrastructure process addresses.
const (
	FDName  = xmlcmd.AddrFD
	RECName = xmlcmd.AddrREC
)

// NewSystem builds a simulated station per the config. Call Boot next.
func NewSystem(cfg Config) (*System, error) {
	k := cfg.Kernel
	if k == nil {
		k = sim.New(cfg.Seed)
	}
	clk := clock.Sim{K: k}
	log := trace.NewLog()
	mgr := proc.NewManager(clk, k.Rand(), log)
	b := bus.NewSim(clk, mgr, station.MBus)
	mgr.SetTransport(b)

	fdParams := core.DefaultFDParams()
	if cfg.FDParams != nil {
		fdParams = *cfg.FDParams
	}
	st, err := assemble.Assemble(assemble.Config{
		Mgr:             mgr,
		FDParams:        fdParams,
		RECParams:       cfg.RECParams,
		TreeName:        cfg.TreeName,
		CustomTree:      cfg.CustomTree,
		PolicyName:      string(cfg.Policy),
		FaultyP:         cfg.FaultyP,
		HarmRates:       cfg.HarmRates,
		CkptInterval:    cfg.CkptInterval,
		DisableRecovery: cfg.DisableRecovery,
	})
	if err != nil {
		return nil, err
	}
	coll := station.NewCollector()
	if err := mgr.Register(station.Ops, coll.Handler()); err != nil {
		return nil, err
	}
	sys := &System{
		Kernel:    k,
		Clock:     clk,
		Mgr:       mgr,
		Bus:       b,
		Station:   st,
		Injector:  fault.NewInjector(clk, mgr, st.Board),
		Log:       log,
		Collector: coll,
	}
	log.Subscribe(func(e trace.Event) { sys.Outages.Observe(e) })
	return sys, nil
}

// Boot starts the station (one whole-system start), waits until every
// component serves, then starts FD and REC. It advances simulated time.
func (s *System) Boot() error {
	return BootAll(s.Kernel, []*System{s})
}

// BootAll boots several systems sharing one kernel with a single
// interleaved whole-system start: every station's ops and component
// batches are started, the shared kernel steps until all stations serve,
// then every FD/REC pair starts and the kernel settles for 2 s. For one
// system this executes exactly the historical Boot sequence, so golden
// traces are unaffected; for a shard hosting many stations it is the only
// correct way to boot (per-system Boot would wind the shared clock forward
// under the later stations).
func BootAll(k *sim.Kernel, systems []*System) error {
	if len(systems) == 0 {
		return nil
	}
	for _, s := range systems {
		if s.booted {
			return errors.New("mercury: already booted")
		}
		if s.Kernel != k {
			return errors.New("mercury: BootAll systems must share the kernel")
		}
	}
	for _, s := range systems {
		if err := s.Mgr.Start(station.Ops); err != nil {
			return err
		}
		if err := s.Mgr.StartBatch(s.Comps); err != nil {
			return err
		}
	}
	allServing := func() bool {
		for _, s := range systems {
			if !s.Mgr.AllServing(s.Comps...) {
				return false
			}
		}
		return true
	}
	deadline := k.Now().Add(3 * time.Minute)
	for !allServing() {
		if k.Now().After(deadline) {
			for _, s := range systems {
				if !s.Mgr.AllServing(s.Comps...) {
					return fmt.Errorf("mercury: boot did not complete: %s", s.describe())
				}
			}
		}
		if !k.Step() {
			return errors.New("mercury: simulation idle during boot")
		}
	}
	for _, s := range systems {
		if _, err := s.Mgr.State(FDName); err == nil {
			if err := s.Mgr.StartBatch([]string{FDName, RECName}); err != nil {
				return err
			}
		}
	}
	if err := k.RunFor(2 * time.Second); err != nil {
		return err
	}
	for _, s := range systems {
		s.Disarm()
		s.booted = true
	}
	return nil
}

// describe renders the component states for error messages, in sorted
// component order so equal system states always produce equal strings.
func (s *System) describe() string {
	names := make([]string, len(s.Comps))
	copy(names, s.Comps)
	sort.Strings(names)
	var sb strings.Builder
	for i, c := range names {
		if i > 0 {
			sb.WriteByte(' ')
		}
		st, _ := s.Mgr.State(c)
		fmt.Fprintf(&sb, "%s=%s", c, st)
	}
	return sb.String()
}

// Inject activates a fault without waiting for recovery.
func (s *System) Inject(f Fault) error {
	if !s.booted {
		return ErrNotBooted
	}
	return s.Board.Inject(fault.Fault{Manifest: f.Component, Cure: f.Cure, Hard: f.Hard, Hang: f.Hang, StateKey: f.StateKey})
}

// MeasureRecovery injects a fault and runs the simulation until the system
// recovers (all components serving, no active fault), returning the
// paper's time-to-recover: failure instant → system functionally ready.
func (s *System) MeasureRecovery(f Fault, limit time.Duration) (time.Duration, error) {
	if !s.booted {
		return 0, ErrNotBooted
	}
	start := s.Kernel.Now()
	if err := s.Inject(f); err != nil {
		return 0, err
	}
	deadline := start.Add(limit)
	for !s.Whole() {
		if s.Kernel.Now().After(deadline) {
			return 0, fmt.Errorf("%w: %s", ErrNoRecovery, s.describe())
		}
		if !s.Kernel.Step() {
			return 0, errors.New("mercury: simulation idle before recovery")
		}
	}
	d, ok := s.Outages.Recovery()
	if !ok {
		return 0, errors.New("mercury: recovery not recorded in trace")
	}
	return d, nil
}

// SetChaos installs (or clears, with nil) the fabric-wide bus chaos
// profile. Installing it after Boot degrades the network only once the
// station is up, so a lossy fabric cannot wedge the initial whole-system
// start — the shape of every availability-vs-loss experiment.
func (s *System) SetChaos(p *bus.ChaosProfile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	s.Bus.SetChaos(p)
	return nil
}

// RunFor advances simulated time (idle operation, pings, telemetry).
func (s *System) RunFor(d time.Duration) error { return s.Kernel.RunFor(d) }

// Now returns the current simulated time.
func (s *System) Now() time.Time { return s.Kernel.Now() }
