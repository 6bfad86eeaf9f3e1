package core

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The decision golden pins what the recoverer would execute for every
// policy: testdata/policy_decisions.golden was rendered by the six
// pre-unification oracle types (EscalatingOracle, PerfectOracle,
// FaultyOracle, LearningOracle, CostAwareOracle, FixedActionOracle) through
// this same harness, and the one ladder-walking Policy must reproduce it
// byte for byte — node, restart set, action kind as executed, and the RNG
// draws each decision consumes (the kernel RNG is shared with the rest of
// the simulation, so a moved draw site silently shifts every later event).

var updatePolicyGolden = flag.Bool("update-policy-golden", false,
	"rewrite testdata/policy_decisions.golden (only meaningful against the pre-unification oracles)")

// goldenDepth is the give-up depth: RECParams.MaxRestarts attempts.
const goldenDepth = 6

// goldenPolicy is the harness's view of one policy instance.
type goldenPolicy struct {
	choose  func(t *Tree, site string, prev *Action, attempt int) (Action, error)
	observe func(site string, act Action, elapsed time.Duration, cured bool)
	prob    func(site string, act Action) float64
	render  func() string // estimator dump; "" for policies without one
}

// countingSource counts the Int63 draws a policy makes.
type countingSource struct {
	src rand.Source
	n   int
}

func (c *countingSource) Int63() int64    { c.n++; return c.src.Int63() }
func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// scriptedAdvisor answers MinimalCure with a fixed cure (nil = unknown).
type scriptedAdvisor struct{ cure []string }

func (a scriptedAdvisor) MinimalCure(string) ([]string, bool) { return a.cure, a.cure != nil }

// goldenTrees returns the paper's trees plus the micro variants, with the
// render order.
func goldenTrees(t *testing.T) ([]string, map[string]*Tree) {
	t.Helper()
	trees := mustTrees(t)
	subs := map[string][]string{
		"ses":  {"cache", "est"},
		"str":  {"cache", "track"},
		"fedr": {"session"},
	}
	for _, base := range []string{"III", "IV"} {
		mt, err := SubAugment(trees[base], base+"m", subs)
		if err != nil {
			t.Fatalf("SubAugment(%s): %v", base, err)
		}
		trees[base+"m"] = mt
	}
	return []string{"I", "II", "IIp", "III", "IV", "V", "IIIm", "IVm"}, trees
}

// goldenCkpt is the checkpoint model the checkpoint-aware policies see.
func goldenCkpt() CheckpointModel {
	return fakeCkpt{cost: time.Second, cover: map[string]bool{"str.track": true, "ses.cache": true}}
}

// goldenCures are the minimal cures the experiments inject (own component,
// joint [fedr pbcom], the state fault's [str]) plus the shapes that reach
// the fallbacks: an unknown cure, a consolidated pair, and a component
// outside the tree.
var goldenCures = []struct {
	name string
	cure func(site string) []string
}{
	{"unknown", func(string) []string { return nil }},
	{"own", func(site string) []string { return []string{site} }},
	{"[fedr pbcom]", func(string) []string { return []string{"fedr", "pbcom"} }},
	{"[ses str]", func(string) []string { return []string{"ses", "str"} }},
	{"[str]", func(string) []string { return []string{"str"} }},
	{"[ghost]", func(string) []string { return []string{"ghost"} }},
}

// execKind is the action the recoverer executes: a checkpoint-restore when
// the policy says so, otherwise a microreboot exactly when the whole
// restart set is subcomponents.
func execKind(act Action) string {
	if act.Kind == ActCkptRestore {
		return "ckpt-restore"
	}
	set := act.Node.Subtree()
	for _, c := range set {
		if !strings.Contains(c, ".") {
			return "restart"
		}
	}
	return "microreboot"
}

// nodeIDs numbers a tree's nodes pre-order.
func nodeIDs(tr *Tree) map[*Node]string {
	ids := make(map[*Node]string)
	for i, n := range tr.Groups() {
		ids[n] = fmt.Sprintf("n%d", i)
	}
	return ids
}

// renderChain walks one episode to the give-up depth, feeding each
// decision back as the next attempt's prev.
func renderChain(p goldenPolicy, tr *Tree, ids map[*Node]string, site string, draws *countingSource) string {
	var sb strings.Builder
	var prev *Action
	for attempt := 1; attempt <= goldenDepth; attempt++ {
		before := draws.n
		act, err := p.choose(tr, site, prev, attempt)
		if err != nil {
			sb.WriteString(" error")
			break
		}
		id, ok := ids[act.Node]
		if !ok {
			id = "?" + act.Node.Label()
		}
		fmt.Fprintf(&sb, " %s/%s", id, execKind(act))
		if d := draws.n - before; d > 0 {
			fmt.Fprintf(&sb, "+%d", d)
		}
		a := act
		prev = &a
	}
	return sb.String()
}

// renderPolicyDecisions produces the golden text.
func renderPolicyDecisions(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	order, trees := goldenTrees(t)
	ck := goldenCkpt()

	plain := []struct {
		name string
		p    float64
	}{
		{"escalating", 0}, {"learning", 0}, {"costaware", 0},
		{"fixed-micro", 0}, {"fixed-process", 0}, {"fixed-ckpt", 0},
	}
	advised := []struct {
		name string
		p    float64
	}{
		{"perfect", 0}, {"faulty", 0}, {"faulty", 0.3}, {"faulty", 1},
	}

	for _, name := range order {
		tr := trees[name]
		ids := nodeIDs(tr)
		fmt.Fprintf(&sb, "== tree %s\n", name)
		for i, n := range tr.Groups() {
			fmt.Fprintf(&sb, "n%d %s set=[%s]\n", i, n.Label(), strings.Join(n.Subtree(), " "))
		}
		for _, site := range tr.Components() {
			for _, pol := range plain {
				draws := &countingSource{src: rand.NewSource(2002)}
				p := newGoldenPolicy(pol.name, pol.p, scriptedAdvisor{}, rand.New(draws), ck)
				fmt.Fprintf(&sb, "%s %s:%s\n", pol.name, site, renderChain(p, tr, ids, site, draws))
			}
			for _, pol := range advised {
				for _, c := range goldenCures {
					draws := &countingSource{src: rand.NewSource(2002)}
					p := newGoldenPolicy(pol.name, pol.p, scriptedAdvisor{cure: c.cure(site)}, rand.New(draws), ck)
					label := pol.name
					if pol.name == "faulty" {
						label = fmt.Sprintf("faulty(%.1f)", pol.p)
					}
					fmt.Fprintf(&sb, "%s %s cure=%s:%s\n", label, site, c.name, renderChain(p, tr, ids, site, draws))
				}
			}
		}
	}

	// A nil tree, and a component the tree does not hold: every policy
	// refuses. (One deliberate divergence stays outside the golden: the old
	// perfect and faulty oracles answered for an unknown component when the
	// advisor knew a cure for it, restarting the cure's covering node; the
	// engine builds the site's ladder first and refuses like the rest.)
	sb.WriteString("== refusals\n")
	for _, pol := range append(plain, advised...) {
		draws := &countingSource{src: rand.NewSource(2002)}
		p := newGoldenPolicy(pol.name, pol.p, scriptedAdvisor{}, rand.New(draws), ck)
		fmt.Fprintf(&sb, "%s nil-tree:%s\n", pol.name, renderChain(p, nil, nil, "ses", draws))
		fmt.Fprintf(&sb, "%s ghost:%s\n", pol.name, renderChain(p, trees["IV"], nil, "ghost", draws))
	}

	// Script A — TestCostAwareLearnsStateFault: microreboots never cure the
	// tracker's state fault, checkpoint-restores do.
	sb.WriteString("== script state-fault (costaware, tree IIIm, str.track)\n")
	{
		tr := trees["IIIm"]
		ids := nodeIDs(tr)
		draws := &countingSource{src: rand.NewSource(2002)}
		p := newGoldenPolicy("costaware", 0, scriptedAdvisor{}, rand.New(draws), ck)
		act, err := p.choose(tr, "str.track", nil, 1)
		if err != nil {
			t.Fatalf("state-fault script: %v", err)
		}
		fmt.Fprintf(&sb, "cold: %s/%s\n", ids[act.Node], execKind(act))
		micro := act
		ckAct := Action{Node: act.Node, Kind: ActCkptRestore}
		for i := 0; i < 6; i++ {
			p.observe("str.track", micro, 600*time.Millisecond, false)
			p.observe("str.track", ckAct, 1800*time.Millisecond, true)
		}
		act, err = p.choose(tr, "str.track", nil, 1)
		if err != nil {
			t.Fatalf("state-fault script: %v", err)
		}
		fmt.Fprintf(&sb, "learned: %s/%s\n", ids[act.Node], execKind(act))
		act, err = p.choose(tr, "str.track", &ckAct, 2)
		if err != nil {
			t.Fatalf("state-fault script: %v", err)
		}
		fmt.Fprintf(&sb, "escalated: %s/%s\n", ids[act.Node], execKind(act))
		fmt.Fprintf(&sb, "draws=%d\n%s", draws.n, p.render())
	}

	// Script B — the learningoracle example's six rounds: pbcom failures
	// that only the joint [fedr pbcom] restart cures, on tree IV.
	for _, name := range []string{"learning", "costaware"} {
		fmt.Fprintf(&sb, "== script joint-pbcom (%s, tree IV, pbcom)\n", name)
		tr := trees["IV"]
		ids := nodeIDs(tr)
		draws := &countingSource{src: rand.NewSource(7)}
		p := newGoldenPolicy(name, 0, scriptedAdvisor{}, rand.New(draws), ck)
		cell, err := tr.CellOf("pbcom")
		if err != nil {
			t.Fatal(err)
		}
		var path []Action
		for n := cell; n != nil; n = n.Parent() {
			path = append(path, Action{Node: n, Kind: ActRestart})
		}
		for round := 1; round <= 6; round++ {
			fmt.Fprintf(&sb, "round %d:", round)
			var prev *Action
			for attempt := 1; attempt <= goldenDepth; attempt++ {
				before := draws.n
				act, err := p.choose(tr, "pbcom", prev, attempt)
				if err != nil {
					t.Fatalf("joint-pbcom script: %v", err)
				}
				fmt.Fprintf(&sb, " %s/%s", ids[act.Node], execKind(act))
				if d := draws.n - before; d > 0 {
					fmt.Fprintf(&sb, "+%d", d)
				}
				cured := covers(act.Node, []string{"fedr", "pbcom"})
				elapsed := time.Duration(20+len(act.Node.Subtree())) * time.Second
				p.observe("pbcom", act, elapsed, cured)
				if cured {
					break
				}
				a := act
				prev = &a
			}
			sb.WriteString(" |")
			for _, a := range path {
				fmt.Fprintf(&sb, " %s=%.4f", ids[a.Node], p.prob("pbcom", a))
			}
			sb.WriteString("\n")
		}
		sb.WriteString(p.render())
	}
	return sb.String()
}

func TestPolicyDecisionsGolden(t *testing.T) {
	got := renderPolicyDecisions(t)
	path := filepath.Join("testdata", "policy_decisions.golden")
	if *updatePolicyGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("policy decisions diverge from the golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("policy decisions diverge from the golden: %d lines, want %d", len(gl), len(wl))
	}
}

// newGoldenPolicy builds the table policy the harness drives. (The golden
// itself was rendered with this function adapting the pre-unification
// types exactly as REC drove them: ActionOracles through ChooseAction with
// the previous action, classic Oracles through Choose with the previous
// node, wrapped as plain restarts.) Beyond the bytes, the engine must say
// what REC used to derive: a decision whose Kind disagrees with the action
// its restart set implies renders as an error.
func newGoldenPolicy(name string, p float64, adv CureAdvisor, rng *rand.Rand, ck CheckpointModel) goldenPolicy {
	pol, err := PolicyByName(name, PolicyDeps{Advisor: adv, Rng: rng, FaultyP: p, Ckpt: ck})
	if err != nil {
		panic(err)
	}
	g := goldenPolicy{
		choose: func(t *Tree, site string, prev *Action, attempt int) (Action, error) {
			act, err := pol.ChooseAction(t, site, prev, attempt)
			if err == nil && act.Kind.String() != execKind(act) {
				err = fmt.Errorf("%s chose %s for a %s set", name, act.Kind, execKind(act))
			}
			return act, err
		},
		observe: pol.ObserveAction,
		prob:    func(string, Action) float64 { return 0 },
		render:  func() string { return "" },
	}
	if est := pol.Estimator(); est != nil {
		g.prob = func(site string, act Action) float64 { return est.PSuccess(site, act.key()) }
		if name == "costaware" { // the learning oracle had no estimator dump to pin
			g.render = est.Render
		}
	}
	return g
}
