package core

import (
	"testing"
	"time"
)

// fakeCkpt is a CheckpointModel covering a fixed component set.
type fakeCkpt struct {
	cost  time.Duration
	cover map[string]bool
}

func (f fakeCkpt) RestoreCost(component string) (time.Duration, bool) {
	if f.cover[component] {
		return f.cost, true
	}
	return 0, false
}

func microTree(t *testing.T) *Tree {
	t.Helper()
	trees := mustTrees(t)
	subs := map[string][]string{
		"ses":  {"cache", "est"},
		"str":  {"cache", "track"},
		"fedr": {"session"},
	}
	mt, err := SubAugment(trees["III"], "IIIm", subs)
	if err != nil {
		t.Fatalf("SubAugment: %v", err)
	}
	return mt
}

// mustPolicy builds a table policy or fails the test.
func mustPolicy(t *testing.T, name string, d PolicyDeps) *Policy {
	t.Helper()
	p, err := PolicyByName(name, d)
	if err != nil {
		t.Fatalf("PolicyByName(%q): %v", name, err)
	}
	return p
}

func TestActionLadder(t *testing.T) {
	mt := microTree(t)
	ck := fakeCkpt{cost: time.Second, cover: map[string]bool{"str.track": true}}
	full := mustPolicy(t, "costaware", PolicyDeps{Ckpt: ck})

	ladder, err := full.ladder(mt, "str.track")
	if err != nil {
		t.Fatalf("ladder: %v", err)
	}
	if len(ladder) < 3 {
		t.Fatalf("ladder too short: %v", ladder)
	}
	if ladder[0].Kind != ActMicroreboot {
		t.Fatalf("rung 0 = %v, want microreboot", ladder[0].Kind)
	}
	if ladder[1].Kind != ActCkptRestore || ladder[1].Node != ladder[0].Node {
		t.Fatalf("rung 1 = %v@%s, want ckpt-restore at the same cell", ladder[1].Kind, ladder[1].Node.Label())
	}
	for _, a := range ladder[2:] {
		if a.Kind != ActRestart {
			t.Fatalf("upper rung %v, want restart", a.Kind)
		}
	}
	// The first restart rung is the hosting process's cell.
	if got := ladder[2].Node.Subtree(); !eq(got, []string{"str", "str.cache", "str.track"}) {
		t.Fatalf("first restart rung subtree = %v", got)
	}
	// The last rung is the root.
	if ladder[len(ladder)-1].Node != mt.Root() {
		t.Fatal("ladder does not end at the root")
	}

	// Without a checkpoint: no ckpt rung.
	ladder, err = full.ladder(mt, "ses.est")
	if err != nil {
		t.Fatalf("ladder: %v", err)
	}
	if ladder[0].Kind != ActMicroreboot || ladder[1].Kind != ActRestart {
		t.Fatalf("uncovered sub ladder starts %v,%v", ladder[0].Kind, ladder[1].Kind)
	}

	// A plain process: restarts only, starting at its own cell.
	ladder, err = full.ladder(mt, "rtu")
	if err != nil {
		t.Fatalf("ladder: %v", err)
	}
	for _, a := range ladder {
		if a.Kind != ActRestart {
			t.Fatalf("process ladder has %v", a.Kind)
		}
	}

	// A classic policy is handed the same checkpoint model and ignores it.
	ladder, err = mustPolicy(t, "escalating", PolicyDeps{Ckpt: ck}).ladder(mt, "str.track")
	if err != nil {
		t.Fatalf("ladder: %v", err)
	}
	if ladder[0].Kind != ActMicroreboot || ladder[1].Kind != ActRestart {
		t.Fatalf("classic ladder starts %v,%v", ladder[0].Kind, ladder[1].Kind)
	}
}

func TestCostAwareLearnsStateFault(t *testing.T) {
	mt := microTree(t)
	ck := fakeCkpt{cost: time.Second, cover: map[string]bool{"str.track": true}}
	o := NewCostAwareOracle(CostAwareConfig{Ckpt: ck})

	// First decision with no evidence: the cheap microreboot wins (its
	// prior duration is lowest and all rungs share the 0.5 prior success).
	act, err := o.ChooseAction(mt, "str.track", nil, 1)
	if err != nil {
		t.Fatalf("choose: %v", err)
	}
	if act.Kind != ActMicroreboot {
		t.Fatalf("cold-start action = %v, want microreboot", act.Kind)
	}

	// Teach it: microreboots never cure this site, checkpoint-restores do.
	micro := act
	ckAct := Action{Node: act.Node, Kind: ActCkptRestore}
	for i := 0; i < 6; i++ {
		o.ObserveAction("str.track", micro, 600*time.Millisecond, false)
		o.ObserveAction("str.track", ckAct, 1800*time.Millisecond, true)
	}
	act, err = o.ChooseAction(mt, "str.track", nil, 1)
	if err != nil {
		t.Fatalf("choose: %v", err)
	}
	if act.Kind != ActCkptRestore {
		t.Fatalf("learned action = %v, want ckpt-restore", act.Kind)
	}

	// Escalation: after the ckpt rung fails, the next rung up is chosen
	// from the remaining suffix — a restart.
	act, err = o.ChooseAction(mt, "str.track", &ckAct, 2)
	if err != nil {
		t.Fatalf("escalate: %v", err)
	}
	if act.Kind != ActRestart {
		t.Fatalf("escalated action = %v, want restart", act.Kind)
	}
}

func TestFixedOracleLadders(t *testing.T) {
	mt := microTree(t)
	ck := fakeCkpt{cost: time.Second, cover: map[string]bool{"str.track": true}}

	proc := mustPolicy(t, "fixed-process", PolicyDeps{})
	act, err := proc.ChooseAction(mt, "str.track", nil, 1)
	if err != nil {
		t.Fatalf("fixed-process: %v", err)
	}
	if act.Kind != ActRestart {
		t.Fatalf("fixed-process starts with %v", act.Kind)
	}
	if got := act.Node.Subtree(); !eq(got, []string{"str", "str.cache", "str.track"}) {
		t.Fatalf("fixed-process starts at %v", got)
	}

	mi := mustPolicy(t, "fixed-micro", PolicyDeps{})
	act, err = mi.ChooseAction(mt, "str.track", nil, 1)
	if err != nil || act.Kind != ActMicroreboot {
		t.Fatalf("fixed-micro starts with %v err=%v", act.Kind, err)
	}

	cp := mustPolicy(t, "fixed-ckpt", PolicyDeps{Ckpt: ck})
	act, err = cp.ChooseAction(mt, "str.track", nil, 1)
	if err != nil || act.Kind != ActCkptRestore {
		t.Fatalf("fixed-ckpt starts with %v err=%v", act.Kind, err)
	}
	// Uncovered site: degrades to the full ladder's cheapest rung.
	act, err = cp.ChooseAction(mt, "fedr.session", nil, 1)
	if err != nil || act.Kind != ActMicroreboot {
		t.Fatalf("fixed-ckpt uncovered starts with %v err=%v", act.Kind, err)
	}
}

func TestEstimator(t *testing.T) {
	e := NewEstimator()
	base := time.Unix(0, 0)
	if _, ok := e.MTTF("str"); ok {
		t.Fatal("MTTF before any failure")
	}
	e.ObserveFailure("str", base)
	e.ObserveFailure("str", base.Add(100*time.Second))
	mttf, ok := e.MTTF("str")
	if !ok || mttf != 100*time.Second {
		t.Fatalf("MTTF = %v ok=%v, want 100s", mttf, ok)
	}
	e.ObserveFailure("str", base.Add(200*time.Second))
	if mttf, _ = e.MTTF("str"); mttf != 100*time.Second {
		t.Fatalf("steady MTTF drifted: %v", mttf)
	}
	if got := e.Failures("str"); got != 3 {
		t.Fatalf("failures = %d", got)
	}

	act := Action{Node: &Node{Name: "STR"}, Kind: ActMicroreboot}
	if p := e.PSuccess("str", act.key()); p != 0.5 {
		t.Fatalf("prior p = %v", p)
	}
	e.ObserveAction("str", act, 500*time.Millisecond, true)
	if p := e.PSuccess("str", act.key()); p != 2.0/3.0 {
		t.Fatalf("p after one cure = %v", p)
	}
	d, ok := e.Duration("str", act.key())
	if !ok || d != 500*time.Millisecond {
		t.Fatalf("duration = %v ok=%v", d, ok)
	}
	if e.Render() == "" {
		t.Fatal("empty render")
	}
}
