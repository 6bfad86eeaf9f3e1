package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/recursive-restart/mercury/internal/fault"
	"github.com/recursive-restart/mercury/internal/proc"
	"github.com/recursive-restart/mercury/internal/xmlcmd"
)

// TestRecoveryEpisodeProperties drives random runs, board faults (crash,
// hang, joint cure), raw kills — also of a component whose restart is
// still starting — and FD or REC kills and hangs through the FD/REC
// harness. A dead or hung FD or REC incarnation must write no trace line
// and cause no restart (DESIGN.md §16). After every kernel event the test
// checks REC's episodes against a ledger it keeps from what it sees and
// from the process manager's ready and down events (DESIGN.md §15):
//   - an attempt only moves forward, an episode's attempts only count
//     up, and nothing moves under a dead or hung recoverer;
//   - each attempt gets at most one verdict: the estimator holds exactly
//     one try per attempt that reached cured or persisted, and one cure
//     per cured attempt;
//   - an attempt is cured only after its whole restart set was ready and
//     the persist window passed;
//   - an attempt with a set member that died before it was ready is
//     persisted, and one whose whole set was ready gives its action a
//     duration;
//   - history holds exactly the charges of the uncured episodes that are
//     inside the budget window.
//
// At quiescence no episode of the live recoverer is deciding or
// restarting.
func TestRecoveryEpisodeProperties(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		runEpisodes(t, seed, 80)
	}
}

func (p phase) String() string {
	return [...]string{"deciding", "restarting", "verdict", "cured", "persisted"}[p]
}

// attemptRec is the test's ledger entry for one attempt of one episode.
// Records are reused, so an attempt is known by its record and the gen it
// began with; gen counts up by one per attempt, so an episode's attempts
// share gen - attempt.
type attemptRec struct {
	rec       *REC // the recoverer incarnation that owns it
	comp      string
	ep        *episode
	n         int
	gen       uint32
	seen      phase // the furthest phase seen
	chargedAt time.Time
	set       []string             // known once seen restarting
	key       string               // the attempt's action, known with set
	ready     map[string]time.Time // set members ready since then
	diedEarly bool                 // a set member died before it was ready
}

// phase is the attempt's phase as far as the test can tell: an attempt its
// episode escalated past was persisted. An episode whose record moved on
// keeps its last attempt's last phase seen, except that one last seen at
// its verdict was cured: only a report that finds the window passed ends
// an episode there, and opens the next in the same event. The estimator's
// count of cures checks that.
func (a *attemptRec) phase() phase {
	switch {
	case a.ep.gen == a.gen:
		return a.ep.phase
	case a.ep.gen-uint32(a.ep.attempt) == a.gen-uint32(a.n):
		return persisted
	case a.seen == verdict:
		return cured
	}
	return a.seen
}

// episodeCured reports whether a's episode ended cured: its last attempt
// in the ledger was.
func episodeCured(order []*attemptRec, a *attemptRec) bool {
	last := a
	for _, b := range order {
		if b.ep == a.ep && b.gen-uint32(b.n) == a.gen-uint32(a.n) && b.n > last.n {
			last = b
		}
	}
	return last.phase() == cured
}

func runEpisodes(t *testing.T, seed int64, steps int) {
	t.Helper()
	learning := func(*fault.Board, *rand.Rand) *Policy { return mustPolicy(t, "learning", PolicyDeps{}) }
	h := newHarnessClock(t, seed, treeII(t), learning, DefaultFDParams(), DefaultRECParams(), []string{"mbus", "a", "b"}, nil)
	params, persist := DefaultRECParams(), DefaultFDParams().PersistWindow()
	rng := rand.New(rand.NewSource(seed))
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d at %v: "+format, append([]any{seed, h.k.Now()}, args...)...)
	}

	type key struct {
		ep  *episode
		gen uint32
	}
	h.gated(fail)
	ledger := map[key]*attemptRec{}
	var order []*attemptRec // creation order, for deterministic failure messages
	awaiting := func(a *attemptRec) bool { return a.set != nil && a.seen == restarting }
	h.mgr.OnReady(func(name string) {
		for _, a := range order {
			if awaiting(a) && slices.Contains(a.set, name) {
				if _, ok := a.ready[name]; !ok {
					a.ready[name] = h.k.Now()
				}
			}
		}
	})
	// Readiness is read from the process, not from the order of the ready
	// listeners: the board silences a component whose fault is still
	// active inside the ready fan-out, before later listeners hear it.
	h.mgr.OnDown(func(name, reason string) {
		if reason == proc.ReasonRestart {
			return
		}
		startedAt, _ := h.mgr.StartedAt(name)
		readyAt, _ := h.mgr.ReadyAt(name)
		for _, a := range order {
			if _, ok := a.ready[name]; !awaiting(a) || !slices.Contains(a.set, name) || ok {
				continue
			}
			if readyAt.After(startedAt) {
				a.ready[name] = readyAt
			} else {
				a.diedEarly = true
			}
		}
	})

	check := func() {
		t.Helper()
		now := h.k.Now()
		r := h.handle.current
		for comp, ep := range r.episodes {
			k := key{ep, ep.gen}
			if ledger[k] != nil {
				continue
			}
			if ep.phase != deciding {
				fail("%s attempt %d first seen %v, not deciding", comp, ep.attempt, ep.phase)
			}
			if prev := ledger[key{ep, ep.gen - 1}]; ep.attempt > 1 && (prev == nil || prev.n != ep.attempt-1) {
				fail("%s attempt %d follows no attempt %d", comp, ep.attempt, ep.attempt-1)
			}
			a := &attemptRec{rec: r, comp: comp, ep: ep, n: ep.attempt, gen: ep.gen, chargedAt: now, ready: map[string]time.Time{}}
			ledger[k] = a
			order = append(order, a)
		}
		tries, cures := 0, 0
		for _, a := range order {
			ph := a.phase()
			if ph < a.seen {
				fail("%s attempt %d moved back from %v to %v", a.comp, a.n, a.seen, ph)
			}
			if ph != a.seen && !a.rec.up {
				fail("%s attempt %d moved from %v to %v under a dead or hung recoverer", a.comp, a.n, a.seen, ph)
			}
			if ph >= restarting && a.set == nil {
				if ph != restarting {
					fail("%s attempt %d reached %v unseen restarting", a.comp, a.n, ph)
				}
				a.set = a.ep.act.Node.Subtree()
				a.key = a.ep.act.key()
			}
			if ph == cured && a.seen != cured {
				var last time.Time
				for _, c := range a.set {
					at, ok := a.ready[c]
					if !ok {
						fail("%s attempt %d cured with %s never ready", a.comp, a.n, c)
					}
					if at.After(last) {
						last = at
					}
				}
				if now.Sub(last) <= persist {
					fail("%s attempt %d cured %v after its set was ready", a.comp, a.n, now.Sub(last))
				}
			}
			if a.diedEarly && ph != persisted && a.rec.up {
				fail("%s attempt %d: a set member died before it was ready, and the attempt is %v", a.comp, a.n, ph)
			}
			if (ph == cured || ph == persisted) && a.seen != ph && len(a.ready) == len(a.set) {
				if _, ok := h.handle.policy.Estimator().Duration(a.comp, a.key); !ok {
					fail("%s attempt %d: its set was ready, and %s has no duration", a.comp, a.n, a.key)
				}
			}
			a.seen = ph
			switch ph {
			case cured:
				tries++
				cures++
			case persisted:
				tries++
			}
		}
		gotTries, gotCures := 0, 0
		for _, s := range h.handle.policy.Estimator().sites {
			for _, act := range s.acts {
				gotTries += act.tries
				gotCures += act.cures
			}
		}
		if gotTries != tries || gotCures != cures {
			fail("the estimator holds %d tries, %d cures; the attempts had %d verdicts, %d cured", gotTries, gotCures, tries, cures)
		}
		// history holds the live recoverer's uncured charges in the window.
		cutoff := now.Add(-params.BudgetWindow)
		want := map[string][]time.Time{}
		for _, a := range order {
			if a.rec == r && !episodeCured(order, a) && a.chargedAt.After(cutoff) {
				want[a.comp] = append(want[a.comp], a.chargedAt)
			}
		}
		for _, comp := range h.comps {
			var got []time.Time
			for _, at := range r.history[comp] {
				if at.After(cutoff) {
					got = append(got, at)
				}
			}
			if !slices.Equal(got, want[comp]) {
				fail("history[%s] = %v, want the uncured charges %v", comp, got, want[comp])
			}
		}
	}
	run := func(d time.Duration) {
		t.Helper()
		for end := h.k.Now().Add(d); h.k.Now().Before(end); {
			if !h.k.Step() {
				fail("the kernel went idle")
			}
			check()
		}
	}

	pick := func(from []string) string { return from[rng.Intn(len(from))] }
	for step := 0; step < steps; step++ {
		switch rng.Intn(8) {
		case 0:
			_ = h.board.Inject(fault.Fault{Manifest: pick(h.comps)})
		case 1:
			_ = h.board.Inject(fault.Fault{Manifest: pick(h.comps), Hang: true})
		case 2:
			_ = h.board.Inject(fault.Fault{Manifest: "a", Cure: []string{"a", "b"}})
		case 3:
			// A raw kill, inside a restart window when there is one.
			var starting []string
			for _, c := range h.comps {
				if st, _ := h.mgr.State(c); st == proc.Starting {
					starting = append(starting, c)
				}
			}
			if len(starting) == 0 {
				starting = h.comps
			}
			_ = h.mgr.Kill(pick(starting), "test kill")
		case 4:
			// One of the pair at a time: each recovers the other.
			if h.mgr.AllServing(xmlcmd.AddrFD, xmlcmd.AddrREC) {
				switch rng.Intn(4) {
				case 0:
					_ = h.mgr.Kill(xmlcmd.AddrFD, "test kill")
				case 1:
					_ = h.mgr.Kill(xmlcmd.AddrREC, "test kill")
				case 2:
					_ = h.mgr.Silence(xmlcmd.AddrFD)
				default:
					_ = h.mgr.Silence(xmlcmd.AddrREC)
				}
			}
		default:
			run(time.Duration(rng.Intn(4000)) * time.Millisecond)
			continue
		}
		check()
	}
	run(4 * time.Minute)
	for comp, ep := range h.handle.current.episodes {
		if ep.phase == deciding || ep.phase == restarting {
			fail("%s attempt %d is still %v at quiescence", comp, ep.attempt, ep.phase)
		}
	}
}

// TestStaleVerdictTimerDoesNothing reuses a record while a timer armed
// for its earlier attempt is pending. Attempt 1 of a's episode restarts a
// alone and reaches its verdict, arming the verdict-window timer; a dies
// again at once, the report persists attempt 1, and attempt 2 (the whole
// tree) reaches its own verdict before attempt 1's timer fires. That
// timer belongs to an attempt the record no longer carries: it must not
// cure attempt 2, which may be cured only a whole window after its own
// verdict.
func TestStaleVerdictTimerDoesNothing(t *testing.T) {
	fdp := DefaultFDParams()
	fdp.PingPeriod, fdp.PingTimeout = 200*time.Millisecond, 50*time.Millisecond
	h := newHarnessParams(t, 1, treeII(t), &Policy{}, fdp, DefaultRECParams())
	persist := fdp.PersistWindow()
	r := h.handle.current
	step := func(what string, until func() bool) {
		t.Helper()
		for end := h.k.Now().Add(time.Minute); !until(); {
			if h.k.Now().After(end) || !h.k.Step() {
				t.Fatalf("no %s; states: %s", what, h.describe())
			}
		}
	}
	if err := h.mgr.Kill("a", "test kill"); err != nil {
		t.Fatal(err)
	}
	var ep *episode
	step("verdict of attempt 1", func() bool {
		ep = r.episodes["a"]
		return ep != nil && ep.attempt == 1 && ep.phase == verdict
	})
	stale := ep.settledAt.Add(persist + 100*time.Millisecond) // attempt 1's timer
	if err := h.mgr.Kill("a", "test kill"); err != nil {
		t.Fatal(err)
	}
	step("verdict of attempt 2", func() bool { return ep.attempt == 2 && ep.phase == verdict })
	if settled := ep.settledAt; !settled.Before(stale) {
		t.Fatalf("attempt 2 reached its verdict at %v, after attempt 1's timer (%v): nothing to test", settled, stale)
	}
	step("end of attempt 2's verdict", func() bool { return ep.phase != verdict })
	if ep.attempt != 2 || ep.phase != cured {
		t.Fatalf("attempt %d is %v, want attempt 2 cured", ep.attempt, ep.phase)
	}
	if waited := h.k.Now().Sub(ep.settledAt); waited <= persist {
		t.Fatalf("attempt 2 cured %v after its verdict, inside the %v window: attempt 1's timer cured it", waited, persist)
	}
}
