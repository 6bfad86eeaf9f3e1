package assemble

import (
	"errors"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/bus"
	"github.com/recursive-restart/mercury/internal/clock"
	"github.com/recursive-restart/mercury/internal/core"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/sim"
	"github.com/recursive-restart/mercury/internal/station"
	"github.com/recursive-restart/mercury/internal/trace"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// base returns a config on a fresh simulated manager, defaults everywhere.
func base() Config {
	k := sim.New(1)
	clk := clock.Sim{K: k}
	mgr := proc.NewManager(clk, k.Rand(), trace.NewLog())
	mgr.SetTransport(bus.NewSim(clk, mgr, station.MBus))
	return Config{
		Mgr:      mgr,
		FDParams: core.DefaultFDParams(),
	}
}

// TestAssemble: what each hand-wired copy used to reject, the one
// assembly rejects — and what each accepted, it still builds.
func TestAssemble(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edit  func(*Config)
		isErr error // nil: any error
		ok    func(*testing.T, Config, Station)
	}{
		{name: "unknown tree", edit: func(c *Config) { c.TreeName = "VII" }, isErr: ErrUnknownTree},
		{name: "m-variant tree implies micro",
			edit: func(c *Config) { c.TreeName = "IVm" },
			ok: func(t *testing.T, c Config, s Station) {
				if s.Store == nil || s.Tree.Name != "IVm" || len(c.Mgr.SubNames()) == 0 {
					t.Fatalf("IVm did not imply micro mode: store=%v tree=%s", s.Store, s.Tree.Name)
				}
			}},
		{name: "m-variant of a monolithic tree", edit: func(c *Config) { c.TreeName = "IIm" }, isErr: ErrUnknownTree},
		// A tree that leaves a registered process out wedges recovery: REC
		// can find no cell for its failure and asks the oracle forever.
		{name: "custom tree without the subcomponents",
			edit: func(c *Config) {
				split, err := core.MercuryTrees(station.MonolithicComponents(), station.SplitComponents())
				if err != nil {
					t.Fatal(err)
				}
				c.TreeName, c.CustomTree = "IVm", split["IV"]
			},
			isErr: core.ErrUnknownComponent},
		{name: "ckpt interval without micro", edit: func(c *Config) { c.CkptInterval = time.Second }},
		{name: "ckpt-backed policy without micro",
			edit: func(c *Config) { c.PolicyName = "costaware" },
			ok: func(t *testing.T, _ Config, s Station) {
				if s.Ckpt != nil || s.Store != nil {
					t.Fatal("checkpoint plane built without micro mode")
				}
				if s.Oracle == nil || s.Oracle.Name() != "costaware" {
					t.Fatalf("policy = %v, want costaware", s.Oracle)
				}
			}},
		{name: "ckpt-backed policy with micro",
			edit: func(c *Config) { c.PolicyName, c.TreeName = "fixed-ckpt", "IVm" },
			ok: func(t *testing.T, _ Config, s Station) {
				if s.Ckpt == nil {
					t.Fatal("no checkpoint plane for a checkpoint-backed policy in micro mode")
				}
			}},
		{name: "unknown policy", edit: func(c *Config) { c.PolicyName = "ghost" }},
		{name: "recovery disabled",
			edit: func(c *Config) { c.DisableRecovery = true },
			ok: func(t *testing.T, _ Config, s Station) {
				if s.Oracle != nil || s.FD != nil || s.REC != nil {
					t.Fatal("policy/FD/REC built with recovery disabled")
				}
			}},
		{name: "handler override",
			edit: func(c *Config) {
				c.Handler = func(name string) func() proc.Handler {
					if name == station.RTU {
						return func() proc.Handler { return stub{} }
					}
					return nil
				}
			},
			ok: func(t *testing.T, c Config, s Station) {
				// The stub readies at once; the table's rtu takes seconds.
				if err := c.Mgr.Start(station.RTU); err != nil || !c.Mgr.Serving(station.RTU) {
					t.Fatalf("override not in force: start err %v, serving %v", err, c.Mgr.Serving(station.RTU))
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.edit(&cfg)
			s, err := Assemble(cfg)
			if tc.ok == nil {
				if err == nil {
					t.Fatal("accepted")
				}
				if tc.isErr != nil && !errors.Is(err, tc.isErr) {
					t.Fatalf("error %v, want %v", err, tc.isErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.ok(t, cfg, s)
			// Whatever the choices, the recovery monitor is wired (nothing
			// serves yet, so the station is not whole), the layout's
			// components are registered, and FD/REC exactly when recovery
			// is on.
			if s.Whole() {
				t.Error("an unstarted station reports itself whole")
			}
			for _, c := range s.Comps {
				if _, err := cfg.Mgr.State(c); err != nil {
					t.Errorf("%s not registered: %v", c, err)
				}
			}
			_, err = cfg.Mgr.State(xmlcmd.AddrREC)
			if registered := err == nil; registered == cfg.DisableRecovery {
				t.Errorf("REC registered = %v with DisableRecovery = %v", registered, cfg.DisableRecovery)
			}
		})
	}
}

type stub struct{}

func (stub) Start(ctx proc.Context)                { ctx.Ready() }
func (stub) Receive(proc.Context, *xmlcmd.Message) {}
