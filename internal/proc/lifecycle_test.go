package proc

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// propComp readies after its startup and hosts microrebootable subs. Every
// context it is handed goes into ctxs, so the test can act through stale
// ones.
type propComp struct {
	startup, reinit time.Duration
	ctxs            *[]Context
}

func (c *propComp) Start(ctx Context) {
	*c.ctxs = append(*c.ctxs, ctx)
	ctx.After(c.startup, ctx.Ready)
}

func (c *propComp) Receive(Context, *xmlcmd.Message)    {}
func (c *propComp) SubFail(string)                      {}
func (c *propComp) SubMicroreboot(string) time.Duration { return c.reinit }

// lifecycleRank orders the states an incarnation passes through.
var lifecycleRank = map[State]int{Stopped: 0, Starting: 1, Running: 2, Dead: 3}

// TestLifecycleProperties drives random Start, Restart, Kill, Silence,
// Microreboot and crash sequences — and calls through contexts of ended
// incarnations — against processes with and without subcomponents. From
// the OnDown/OnReady events and State/Incarnation it checks that no
// incarnation moves backward, that each is told ready, silenced and dead
// at most once, that a stale context changes nothing, and that a live sub
// has a live parent (a Running one while the sub runs), so a serving sub
// has a serving parent.
func TestLifecycleProperties(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		runLifecycle(t, seed, 400)
	}
}

type lifeMark struct{ gen, rank int }

func runLifecycle(t *testing.T, seed int64, steps int) {
	t.Helper()
	mgr, k := newTestManager(t)
	rng := rand.New(rand.NewSource(seed))
	procs := []string{"a", "b", "c"}
	subs := map[string][]string{"a": {"x", "y"}, "b": {"z"}}
	var ctxs []Context
	for _, name := range procs {
		c := &propComp{
			startup: time.Duration(200+rng.Intn(2000)) * time.Millisecond,
			reinit:  time.Duration(100+rng.Intn(1500)) * time.Millisecond,
			ctxs:    &ctxs,
		}
		if err := mgr.Register(name, func() Handler { return c }); err != nil {
			t.Fatal(err)
		}
		for _, s := range subs[name] {
			if err := mgr.RegisterSub(name, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	names := append(mgr.Names(), mgr.SubNames()...)

	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: "+format, append([]any{seed}, args...)...)
	}
	mark := map[string]lifeMark{}
	// forward checks name's record against the last one seen.
	forward := func(name string) (State, int) {
		t.Helper()
		st, _ := mgr.State(name)
		gen, _ := mgr.Incarnation(name)
		now, last := lifeMark{gen, lifecycleRank[st]}, mark[name]
		if now.gen < last.gen || now.gen == last.gen && now.rank < last.rank {
			fail("%s moved backward: incarnation %d rank %d after %d rank %d", name, now.gen, now.rank, last.gen, last.rank)
		}
		if (st == Stopped) != (gen == 0) {
			fail("%s is %v at incarnation %d", name, st, gen)
		}
		mark[name] = now
		return st, gen
	}
	type told struct {
		name, what string
		gen        int
	}
	seen := map[told]bool{}
	events := 0
	once := func(name, what string) {
		t.Helper()
		_, gen := forward(name)
		if k := (told{name, what, gen}); seen[k] {
			fail("%s told %s twice in incarnation %d", name, what, gen)
		} else {
			seen[k] = true
		}
		events++
	}
	mgr.OnReady(func(name string) {
		if st, _ := mgr.State(name); st != Running {
			fail("OnReady(%s) while %v", name, st)
		}
		once(name, "ready")
	})
	mgr.OnDown(func(name, reason string) {
		st, _ := mgr.State(name)
		what := "dead"
		if reason == ReasonSilenced {
			what = "silenced"
			if st != Starting && st != Running {
				fail("OnDown(%s, silenced) while %v", name, st)
			}
		} else if st != Dead {
			fail("OnDown(%s, %q) while %v", name, reason, st)
		}
		once(name, what)
	})

	pick := func(from []string) string { return from[rng.Intn(len(from))] }
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(9); op {
		case 0:
			name := pick(procs)
			st, _ := mgr.State(name)
			err := mgr.Start(name)
			if live := st == Starting || st == Running; live != errors.Is(err, ErrNotRunnable) {
				fail("Start(%s) while %v: %v", name, st, err)
			}
		case 1:
			var set []string
			for _, name := range names {
				if rng.Intn(3) == 0 {
					set = append(set, name)
				}
			}
			_ = mgr.Restart(set) // a lone sub of a non-running process is refused
		case 2:
			_ = mgr.Kill(pick(names), "kill")
		case 3:
			_ = mgr.Silence(pick(names))
		case 4:
			sub := pick(mgr.SubNames())
			pst, _ := mgr.State(mgr.Parent(sub))
			if err := mgr.Microreboot(sub); (err == nil) != (pst == Running) {
				fail("Microreboot(%s) with its process %v: %v", sub, pst, err)
			}
		case 5:
			if len(ctxs) > 0 {
				ctxs[len(ctxs)-1].Fail("crash") // the latest incarnation's own crash
			}
		case 6:
			// A context whose incarnation has ended, by death or by a
			// newer one, acts on nothing.
			if len(ctxs) == 0 {
				break
			}
			c := ctxs[rng.Intn(len(ctxs))]
			gen, _ := mgr.Incarnation(c.Name())
			if st, _ := mgr.State(c.Name()); gen == c.Incarnation() && st != Dead {
				break
			}
			before, ran := events, false
			c.Ready()
			c.Fail("stale")
			c.After(0, func() { ran = true })
			_ = k.RunFor(0)
			if events != before || ran {
				fail("a stale context of %s incarnation %d acted", c.Name(), c.Incarnation())
			}
		default:
			_ = k.RunFor(time.Duration(rng.Intn(3000)) * time.Millisecond)
		}
		for _, name := range names {
			forward(name)
		}
		for _, sub := range mgr.SubNames() {
			st, _ := mgr.State(sub)
			pst, _ := mgr.State(mgr.Parent(sub))
			if (st == Starting || st == Running) && pst != Starting && pst != Running ||
				st == Running && pst != Running {
				fail("%s is %v inside a %v process", sub, st, pst)
			}
			if mgr.Serving(sub) && !mgr.Serving(mgr.Parent(sub)) {
				fail("%s serves without its process", sub)
			}
		}
	}
}
