// Package assemble wires a Mercury station: the fault board, the restart
// tree set, the crash-only store and checkpoint plane, the component
// handlers, the policy, the FD/REC pair and the recovery monitor, onto a
// proc.Manager the caller has already bound to its clock and transport.
// The simulator (package mercury), the live node (internal/rt) and the
// multi-process supervisor (internal/mp) are drivers of this one path; they
// differ in the clock, in the transport and in a handful of component
// handlers, and in nothing else.
package assemble

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/recursive-restart/mercury/internal/ckpt"
	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/store"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// ErrUnknownTree reports a tree name outside the station's tree set.
var ErrUnknownTree = errors.New("mercury: unknown tree name")

// Config is what one station's wiring depends on. The manager carries the
// runtime (its clock, rng and trace log are the station's); the rest are
// the choices mercury.Config and rt.NodeConfig make, plus what a runtime or
// a test overrides (handlers, a policy, REC parameters).
type Config struct {
	// Mgr hosts the station. Its transport must already be set.
	Mgr *proc.Manager
	// Handler, when non-nil, overrides a component's handler factory; it
	// answers nil for the components it leaves to station.Factory.
	Handler func(component string) func() proc.Handler
	// FDParams configures the detector. RECParams configures the
	// recoverer; nil means core.DefaultRECParams.
	FDParams  core.FDParams
	RECParams *core.RECParams

	// TreeName picks the restart tree and with it the layout: "I", "II",
	// "IIp", "III", "IV", "V", "IIIm", "IVm"; "" means "IV". Trees I and II
	// imply the monolithic layout, and an m-variant name — one ending in
	// "m" — micro mode: the microrebootable decomposition on a crash-only
	// store.
	TreeName string
	// CustomTree, when non-nil, overrides TreeName's tree with an arbitrary
	// one over the split layout. It must hold every process the station
	// registers, so it names its subcomponents when TreeName is an
	// m-variant.
	CustomTree *core.Tree
	// Policy, when non-nil, is the recoverer's policy as built by the
	// caller; otherwise PolicyName is resolved through core.PolicyByName
	// with FaultyP and HarmRates as its knobs.
	Policy     *core.Policy
	PolicyName string
	FaultyP    float64
	HarmRates  map[string]float64
	// CkptInterval is the checkpoint period. The checkpoint plane exists
	// only in micro mode, and only when a checkpoint-backed policy name or
	// a positive interval asks for it; a positive interval without micro
	// mode is an error.
	CkptInterval time.Duration
	// DisableRecovery leaves out the policy, FD and REC.
	DisableRecovery bool
}

// Station is an assembled station. Everything in it belongs to the
// manager's execution context (the kernel loop or the dispatcher).
type Station struct {
	Board *fault.Board
	// Trees is the tree set Tree was chosen from (the paper's five, IIp,
	// the m-variants in micro mode, and CustomTree under its own name).
	Trees  map[string]*core.Tree
	Tree   *core.Tree
	Layout station.Layout
	// Comps lists the station components (no FD, REC or ops); shared, not
	// to be modified — Components returns a copy.
	Comps []string
	// Epoch anchors the workload satellite's elements (station.Workload):
	// the manager clock's Now at Assemble.
	Epoch time.Time
	// Store is the crash-only state store; nil unless micro mode is on.
	Store *store.Store
	// Ckpt is the checkpoint manager; nil unless something asked for it.
	Ckpt *ckpt.Manager
	// Oracle is the recoverer's policy; FD and REC reach the live detector
	// and recoverer incarnations. All nil with DisableRecovery.
	Oracle *core.Policy
	FD     *core.FDHandle
	REC    *core.RECHandle

	mon *monitor
}

// monitor is the one definition of "recovered", under every runtime.
// A_entire: any component failure makes the whole station unavailable, and
// the outage ends — trace.SystemRecovered, once per outage — at the first
// ready mark that leaves every component and subcomponent serving with no
// fault active.
type monitor struct {
	mgr   *proc.Manager
	board *fault.Board
	names []string // components, then subcomponents
	armed bool     // something went down and SystemRecovered is not yet logged
}

// watch hooks a monitor over the station's processes (components, then
// subcomponents) into the manager. It goes in last, so the board's
// silencing listener and REC's bookkeeping have run when it looks.
func watch(mgr *proc.Manager, board *fault.Board, procs []string) *monitor {
	m := &monitor{mgr: mgr, board: board, names: procs}
	mgr.OnDown(func(string, string) { m.armed = true })
	mgr.OnReady(func(string) {
		if m.armed && m.whole() {
			m.armed = false
			mgr.Log().Add(mgr.Clock().Now(), trace.SystemRecovered, "", "", "all components serving")
		}
	})
	return m
}

func (m *monitor) whole() bool {
	return m.board.ActiveCount() == 0 && m.mgr.AllServing(m.names...)
}

// Whole reports whether the station is whole: no outage awaits its
// SystemRecovered, no fault is active, every component and sub serves.
func (s *Station) Whole() bool { return !s.mon.armed && s.mon.whole() }

// Disarm forgets an outage still outstanding, so the boot the driver has
// just finished is not logged as a recovery.
func (s *Station) Disarm() { s.mon.armed = false }

// Components returns the station component names (excluding FD/REC/ops).
func (s *Station) Components() []string {
	return append([]string(nil), s.Comps...)
}

// Assemble builds the station on cfg.Mgr and registers its processes; the
// caller starts them (components first, then FD and REC). The order is
// fixed — board, store, checkpoint plane, component handlers, policy, REC,
// FD — because each step may add manager listeners and clock events, and
// listeners run in registration order: the board's silencing listener must
// precede REC's restart bookkeeping, and the recovery monitor, last, sees
// both already done.
func Assemble(cfg Config) (Station, error) {
	if cfg.TreeName == "" {
		cfg.TreeName = "IV"
	}
	mgr := cfg.Mgr
	clk := mgr.Clock()
	s := Station{Epoch: clk.Now()}
	s.Board = fault.NewBoard(clk, mgr, mgr.Log())

	var err error
	s.Trees, err = core.MercuryTrees(station.MonolithicComponents(), station.SplitComponents())
	if err != nil {
		return Station{}, err
	}

	// Micro mode: session/track state moves into a crash-only store and the
	// split trees gain the sub-process restart level.
	micro := strings.HasSuffix(cfg.TreeName, "m")
	if cfg.CkptInterval > 0 && !micro {
		return Station{}, fmt.Errorf("mercury: a checkpoint interval needs micro mode (an m-variant tree), not tree %s", cfg.TreeName)
	}
	if micro {
		s.Store = store.New(clk, store.Options{SweepPeriod: 5 * time.Second})
		if err := core.AddMicroTrees(s.Trees, station.MicroSubs()); err != nil {
			return Station{}, err
		}
	}

	// Checkpoint plane: only built when something will use it, so a classic
	// station schedules no extra ticker events.
	if micro && (core.PolicyNeedsCkpt(cfg.PolicyName) || cfg.CkptInterval > 0) {
		s.Ckpt = ckpt.New(clk, s.Store, ckpt.Options{
			Interval: cfg.CkptInterval,
			Keys:     station.MicroCheckpointKeys(),
		})
		s.Ckpt.OnRestore(s.Board.NoteRestore)
	}

	s.Layout = station.Split
	if cfg.CustomTree != nil {
		s.Tree = cfg.CustomTree
		s.Trees[s.Tree.Name] = s.Tree
	} else {
		var ok bool
		if s.Tree, ok = s.Trees[cfg.TreeName]; !ok {
			return Station{}, fmt.Errorf("%w: %q", ErrUnknownTree, cfg.TreeName)
		}
		if cfg.TreeName == "I" || cfg.TreeName == "II" {
			s.Layout = station.Monolithic
		}
	}

	if s.Comps, err = station.Register(mgr, s.Epoch, s.Store, s.Layout, cfg.Handler); err != nil {
		return Station{}, err
	}
	// Every process the station runs is a node of its tree, or REC could
	// never restart it.
	procs := s.Comps
	if subs := mgr.SubNames(); len(subs) > 0 {
		procs = append(procs[:len(procs):len(procs)], subs...)
	}
	for _, name := range procs {
		if _, err := s.Tree.CellOf(name); err != nil {
			return Station{}, fmt.Errorf("mercury: tree %s: %w", s.Tree.Name, err)
		}
	}
	if cfg.DisableRecovery {
		s.mon = watch(mgr, s.Board, procs)
		return s, nil
	}

	s.Oracle = cfg.Policy
	if s.Oracle == nil {
		s.Oracle, err = core.PolicyByName(cfg.PolicyName, core.PolicyDeps{
			Advisor:  s.Board,
			Rng:      mgr.Rand(),
			FaultyP:  cfg.FaultyP,
			Ckpt:     s.Ckpt,
			HarmRate: harmRateFn(cfg.HarmRates),
		})
		if err != nil {
			return Station{}, fmt.Errorf("mercury: %w", err)
		}
	}
	recParams := core.DefaultRECParams()
	if cfg.RECParams != nil {
		recParams = *cfg.RECParams
	}
	if s.Ckpt != nil && recParams.CkptRestore == nil {
		recParams.CkptRestore = s.Ckpt.RestoreSet
	}
	// FD and REC recover each other (DESIGN.md §16).
	recFactory, rec := core.NewREC(recParams, cfg.FDParams, s.Tree, s.Oracle, mgr)
	if err := mgr.Register(xmlcmd.AddrREC, recFactory); err != nil {
		return Station{}, err
	}
	fdFactory, fd := core.NewFD(cfg.FDParams, s.Comps, station.MBus, mgr)
	if err := mgr.Register(xmlcmd.AddrFD, fdFactory); err != nil {
		return Station{}, err
	}
	s.REC, s.FD = rec, fd
	s.mon = watch(mgr, s.Board, procs)
	return s, nil
}

// harmRateFn builds the oracle's harm-rate lookup: exact component first,
// then a dotted sub's hosting process, then 1.
func harmRateFn(rates map[string]float64) func(string) float64 {
	if rates == nil {
		return nil
	}
	return func(c string) float64 {
		if v, ok := rates[c]; ok {
			return v
		}
		if i := strings.IndexByte(c, '.'); i >= 0 {
			if v, ok := rates[c[:i]]; ok {
				return v
			}
		}
		return 1
	}
}
