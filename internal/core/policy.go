package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/recursive-restart/mercury/internal/trace"
)

// The oracle is the restart policy (paper §3.3): given a failure reported
// at a component, it recommends the recovery action the recoverer should
// execute. If the failure persists, the recoverer asks again with an
// incremented attempt and the previous action; the policy then escalates
// toward the root. Every policy here is the same walk — build the
// escalation ladder for the failed site, locate the previous attempt's
// rung, pick among the rungs above it — so there is one Policy type,
// parameterised by which rungs its ladder keeps, how it picks among them,
// and (for the policies that learn, §7) one Estimator of live statistics.
// "Asymptotic efficiency of restart and checkpointing" (PAPERS.md) frames
// restart depth, microreboot and checkpoint-restore as one expected-cost
// decision; the ladder is where they meet.

// CureAdvisor exposes minimal-cure knowledge about active faults. The
// fault board implements it; the perfect policy consults it — this is the
// experimental device the paper uses ("we ran an experiment with a perfect
// oracle"), not something a production policy could have.
type CureAdvisor interface {
	// MinimalCure returns the minimal cure set of the fault manifesting at
	// the component, if one is known.
	MinimalCure(component string) ([]string, bool)
}

// CheckpointModel exposes checkpoint availability and modeled restore
// latency to the policy. internal/ckpt's Manager implements it; keeping it
// an interface here avoids a core→ckpt dependency.
type CheckpointModel interface {
	// RestoreCost returns the modeled latency of restoring the
	// component's externalized state from the latest checkpoint, and
	// whether such a checkpoint exists.
	RestoreCost(component string) (time.Duration, bool)
}

// ErrNilTree guards policy calls.
var ErrNilTree = errors.New("core: oracle called with nil tree")

// ActionKind discriminates recovery actions. It is the trace's action
// vocabulary, which also names the kinds for metric labels, so an event
// carries the kind REC chose as it is.
type ActionKind = trace.Action

// Action kinds, cheapest-first on a typical ladder.
const (
	// ActRestart is the classic kill-and-respawn of the node's subtree.
	ActRestart = trace.Restart
	// ActMicroreboot drops only subcomponent logic and reattaches to the
	// crash-only store — the node's subtree is all subcomponents.
	ActMicroreboot = trace.Microreboot
	// ActCkptRestore restores the components' externalized state from the
	// latest checkpoint and then reboots them: it can cure state
	// corruption that a plain microreboot would faithfully reattach to.
	ActCkptRestore = trace.CkptRestore
)

// Action is one recovery action: which node's subtree to recover and how.
type Action struct {
	Node *Node
	Kind ActionKind
}

// key identifies the action for estimator bookkeeping.
func (a Action) key() string { return a.Kind.String() + "|" + a.Node.Label() }

// isSub treats dotted names as subcomponents, matching proc.SubName's
// naming scheme.
func isSub(name string) bool { return strings.Contains(name, ".") }

// allSubs reports whether every component in the node's subtree is a
// subcomponent.
func allSubs(n *Node) bool {
	for _, c := range n.Components {
		if !isSub(c) {
			return false
		}
	}
	for _, child := range n.Children {
		if !allSubs(child) {
			return false
		}
	}
	return true
}

// actionAt wraps a node as the action its button executes: a microreboot
// exactly when its whole subtree is subcomponents (no process is torn
// down), else a plain restart.
func actionAt(n *Node) Action {
	if allSubs(n) {
		return Action{Node: n, Kind: ActMicroreboot}
	}
	return Action{Node: n, Kind: ActRestart}
}

// escalate climbs one level from prev, staying at the root once reached
// (the restart budget stops the episode there).
func escalate(prev *Node) *Node {
	if p := prev.Parent(); p != nil {
		return p
	}
	return prev
}

// Policy tunables.
const (
	// learnConfidence is the cure-probability bar a rung must clear for the
	// learning policy to choose it outright.
	learnConfidence = 0.6
	// learnExplore is the learning policy's probability of deliberately
	// trying the cheapest rung regardless of the estimates, so they keep
	// tracking a changing system.
	learnExplore = 0.05
	// reDetect is the modeled turnaround of a failed attempt: the
	// persisting failure must be re-detected and re-reported before the
	// next rung fires.
	reDetect = 1500 * time.Millisecond
)

// PolicyDeps is what a station hands PolicyByName; each policy takes the
// fields it needs and ignores the rest.
type PolicyDeps struct {
	// Advisor is the ground-truth cure oracle the perfect and faulty
	// policies consult; nil makes them behave like escalating.
	Advisor CureAdvisor
	// Rng drives the faulty policy's guess-too-low draw and the learning
	// policy's exploration draw. Stations pass the kernel's shared RNG,
	// so the draw sites are part of the determinism contract.
	Rng *rand.Rand
	// FaultyP is the faulty policy's guess-too-low probability (§4.4).
	FaultyP float64
	// Ckpt models checkpoint availability and restore latency for the
	// checkpoint-aware policies (see PolicyNeedsCkpt); nil removes the
	// checkpoint-restore rung.
	Ckpt CheckpointModel
	// HarmRate returns the user-harm rate (e.g. offered requests/s)
	// attributable to an outage of the component. The rate scales every
	// rung of one site's ladder equally — the argmin is rate-invariant —
	// but it is what the cost-aware policy reports as predicted harm and
	// what cross-site comparisons use. Nil means 1 for every component.
	HarmRate func(component string) float64
}

// Policy is the oracle: the one type in this package that chooses recovery
// actions. The zero value is the escalating policy. A Policy reuses an
// internal rung buffer across decisions, so one Policy belongs to one REC
// (one dispatch context) — build one per station, never share one.
type Policy struct {
	name string
	// keep filters the site's full ladder down to the rungs this policy
	// considers; nil keeps them all.
	keep func(ladder []Action) []Action
	// pick chooses among the candidate rungs (cheapest first, never
	// empty); nil takes the first. It runs on fresh episodes, and on
	// escalations too when rerank is set.
	pick   func(p *Policy, t *Tree, site string, rungs []Action) Action
	rerank bool
	// est holds the live statistics of the policies that learn; nil for
	// the rest, whose Observe calls are no-ops.
	est  *Estimator
	deps PolicyDeps

	rungs [maxRungs]Action
}

// maxRungs is the rung buffer's capacity; a deeper ladder (no paper tree
// comes close) spills to the heap.
const maxRungs = 8

// NewLadderPolicy builds a policy with no knowledge and no estimates: it
// always starts at the first rung keep leaves on the ladder and escalates
// through the kept rungs in order. keep may filter in place. The fixed-*
// baselines are ladder policies; a ladder cut to its first rung never
// escalates.
func NewLadderPolicy(name string, keep func(ladder []Action) []Action) *Policy {
	return &Policy{name: name, keep: keep}
}

// policyRow is one entry of the policy table.
type policyRow struct {
	name, doc string
	ckpt      bool // consults PolicyDeps.Ckpt: the station must run the checkpoint plane
	learns    bool // owns an Estimator
	proto     Policy
}

// policies is the one name → policy table: mercury.Config.Policy,
// rt.NodeConfig.OracleName (under both live runtimes), mercuryd -oracle
// and the docs check all resolve through it.
var policies = []policyRow{
	{name: "escalating",
		doc: "restart the failed component's cell, then walk up the tree while the failure persists (default)"},
	{name: "perfect", proto: Policy{pick: pickCovering},
		doc: "the paper's A_oracle: go straight to the lowest node covering the fault's minimal cure (reads fault-board ground truth)"},
	{name: "faulty", proto: Policy{pick: pickGuessLow},
		doc: "perfect, but guesses too low with probability FaultyP (paper §4.4; 0 on a live node), then escalates"},
	{name: "learning", learns: true, proto: Policy{pick: pickLearned},
		doc: "lowest rung whose estimated cure probability clears 0.6, learned from restart outcomes (paper §7)"},
	{name: "costaware", ckpt: true, learns: true, proto: Policy{pick: pickCheapest, rerank: true},
		doc: "oracle v2: the rung minimising expected outage under live MTTF/MTTR estimates, re-ranked on every escalation"},
	{name: "fixed-micro",
		doc: "baseline: always the cheapest microreboot first, never checkpoint-restore"},
	{name: "fixed-process", proto: Policy{keep: keepRestarts},
		doc: "baseline: always start at the hosting process's cell, skipping the sub-level rungs"},
	{name: "fixed-ckpt", ckpt: true, proto: Policy{keep: keepCkptFirst},
		doc: "baseline: always checkpoint-restore first where a snapshot exists"},
}

// policyAliases are accepted spellings that are not table rows.
var policyAliases = map[string]string{"": "escalating", "v2": "costaware"}

// lookupPolicy resolves a name or alias to its table row, nil if unknown.
func lookupPolicy(name string) *policyRow {
	if alias, ok := policyAliases[name]; ok {
		name = alias
	}
	for i := range policies {
		if policies[i].name == name {
			return &policies[i]
		}
	}
	return nil
}

// PolicyByName builds the named policy over the station's dependencies.
// Names are the mercury.Policy constants / the -oracle flag values; "" means
// escalating and "v2" is an alias for costaware.
func PolicyByName(name string, d PolicyDeps) (*Policy, error) {
	row := lookupPolicy(name)
	if row == nil {
		return nil, fmt.Errorf("core: unknown policy %q (have %s)", name, strings.Join(PolicyNames(), ", "))
	}
	if !row.ckpt {
		d.Ckpt = nil
	}
	p := row.proto
	p.name, p.deps = row.name, d
	if row.name == "faulty" {
		p.name = fmt.Sprintf("faulty(%.0f%%)", d.FaultyP*100)
	}
	if row.learns {
		p.est = NewEstimator()
	}
	return &p, nil
}

// PolicyNames lists the table's policy names in table order.
func PolicyNames() []string {
	names := make([]string, len(policies))
	for i, row := range policies {
		names[i] = row.name
	}
	return names
}

// PolicyHelp renders the table as one "name  what it does" line per policy
// (the mercuryd -oracle help text; docs_test.go checks OPERATIONS.md
// against the same table).
func PolicyHelp() string {
	lines := make([]string, len(policies))
	for i, row := range policies {
		lines[i] = fmt.Sprintf("  %-14s %s", row.name, row.doc)
	}
	return strings.Join(lines, "\n")
}

// PolicyNeedsCkpt reports whether the named policy consults checkpoints,
// i.e. whether the station must build the checkpoint plane for it.
func PolicyNeedsCkpt(name string) bool {
	row := lookupPolicy(name)
	return row != nil && row.ckpt
}

// Name identifies the policy in traces and tables.
func (p *Policy) Name() string {
	if p.name == "" {
		return "escalating"
	}
	return p.name
}

// Estimator exposes the live estimates of a policy that learns (ops
// console, examples, tests); nil for the others.
func (p *Policy) Estimator() *Estimator { return p.est }

// ladder enumerates the escalation ladder for a failure at site, cheapest
// rung first: the microreboot of an all-sub cell, then (when a checkpoint
// exists) checkpoint-restore at the same cell, then plain restarts of each
// ancestor up to the root — filtered by keep. The result aliases the
// policy's rung buffer and is valid until the next call.
func (p *Policy) ladder(t *Tree, site string) ([]Action, error) {
	cell, err := t.CellOf(site)
	if err != nil {
		return nil, err
	}
	ladder := p.rungs[:0]
	start := cell
	if isSub(site) {
		if allSubs(cell) {
			ladder = append(ladder, Action{Node: cell, Kind: ActMicroreboot})
			if p.deps.Ckpt != nil {
				if _, ok := p.deps.Ckpt.RestoreCost(site); ok {
					ladder = append(ladder, Action{Node: cell, Kind: ActCkptRestore})
				}
			}
			start = cell.Parent()
		}
	}
	for n := start; n != nil; n = n.Parent() {
		ladder = append(ladder, Action{Node: n, Kind: ActRestart})
	}
	if p.keep != nil {
		if ladder = p.keep(ladder); len(ladder) == 0 {
			ladder = append(ladder, Action{Node: cell, Kind: ActRestart})
		}
	}
	return ladder, nil
}

// keepRestarts drops the sub-level rungs (fixed-process).
func keepRestarts(ladder []Action) []Action {
	kept := ladder[:0]
	for _, a := range ladder {
		if a.Kind == ActRestart {
			kept = append(kept, a)
		}
	}
	return kept
}

// keepCkptFirst drops the microreboot where a checkpoint-restore rung
// exists, degrading to the full ladder before the first snapshot
// (fixed-ckpt).
func keepCkptFirst(ladder []Action) []Action {
	if len(ladder) < 2 || ladder[1].Kind != ActCkptRestore {
		return ladder
	}
	return ladder[1:]
}

// ChooseAction returns the recovery action for a failure reported at site.
// attempt starts at 1 for a fresh failure episode; prev is the previous
// attempt's action (nil when attempt == 1).
func (p *Policy) ChooseAction(t *Tree, site string, prev *Action, attempt int) (Action, error) {
	if t == nil {
		return Action{}, ErrNilTree
	}
	ladder, err := p.ladder(t, site)
	if err != nil {
		return Action{}, err
	}
	fresh := attempt <= 1
	lo := 0
	if !fresh && prev != nil {
		idx := -1
		for i, a := range ladder {
			if a == *prev {
				idx = i
				break
			}
		}
		if idx < 0 {
			// prev is not a rung: an off-ladder covering node, or the
			// tree changed mid-episode. Fall back to plain escalation.
			return p.decided(actionAt(escalate(prev.Node))), nil
		}
		// At the root lo stays put; the restart budget will stop us.
		lo = min(idx+1, len(ladder)-1)
	}
	if p.pick != nil && (fresh || p.rerank) {
		return p.decided(p.pick(p, t, site, ladder[lo:])), nil
	}
	return p.decided(ladder[lo]), nil
}

// decided counts a decision on the obs plane.
func (p *Policy) decided(a Action) Action {
	M.OracleDecisions.With(a.Kind.String()).Inc()
	return a
}

// Choose is the node-only form of ChooseAction for callers that speak
// nodes: a fresh decision's node, or one level up from prev.
func (p *Policy) Choose(t *Tree, site string, prev *Node, attempt int) (*Node, error) {
	if t != nil && attempt > 1 && prev != nil {
		return escalate(prev), nil
	}
	act, err := p.ChooseAction(t, site, nil, 1)
	return act.Node, err
}

// ObserveFailure records a fresh failure episode at the site (MTTF
// estimation); a no-op for policies that do not learn.
func (p *Policy) ObserveFailure(site string, at time.Time) {
	if p.est != nil {
		p.est.ObserveFailure(site, at)
	}
}

// ObserveAction records one resolved attempt: the action taken, its
// measured report→ready duration, and whether the failure stayed away for
// the persistence window. A no-op for policies that do not learn.
func (p *Policy) ObserveAction(site string, act Action, elapsed time.Duration, cured bool) {
	if p.est != nil {
		p.est.ObserveAction(site, act, elapsed, cured)
	}
}

// pickCovering is the minimal restart policy (A_oracle): for a minimally
// n-curable failure it recommends node n, learned from the cure advisor.
// With no advisor, no known cure, or a cure naming components outside this
// tree (e.g. a split name under a monolithic layout) it falls back to the
// site's own cell. A covering node beside the site's root path is not a
// rung; it is returned as an off-ladder action and escalated from by
// ChooseAction's fallback.
func pickCovering(p *Policy, t *Tree, site string, rungs []Action) Action {
	if p.deps.Advisor == nil {
		return rungs[0]
	}
	cure, ok := p.deps.Advisor.MinimalCure(site)
	if !ok {
		return rungs[0]
	}
	node, err := t.LowestCovering(cure)
	if err != nil {
		return rungs[0]
	}
	for _, a := range rungs {
		if a.Node == node {
			return a
		}
	}
	return actionAt(node)
}

// pickGuessLow reproduces §4.4's experiment: it knows the minimal node but
// guesses too low with probability FaultyP whenever the correct node is
// not the failed component's own cell. It draws exactly once in that case
// — even at FaultyP = 0 — and never otherwise: the RNG is the kernel's.
func pickGuessLow(p *Policy, t *Tree, site string, rungs []Action) Action {
	correct := pickCovering(p, t, site, rungs)
	if correct.Node != rungs[0].Node && p.deps.Rng != nil && p.deps.Rng.Float64() < p.deps.FaultyP {
		return rungs[0] // guess-too-low mistake
	}
	return correct
}

// pickLearned implements the paper's §7 future work: "extend the oracle
// with the ability to learn from its mistakes and this way generate
// estimates for f_ci values". It picks the lowest rung whose estimated
// cure probability clears the confidence bar; with no evidence it behaves
// like the escalating policy (cheapest first). The exploration draw comes
// first, once per fresh episode.
func pickLearned(p *Policy, _ *Tree, site string, rungs []Action) Action {
	if p.deps.Rng != nil && p.deps.Rng.Float64() < learnExplore {
		return rungs[0]
	}
	best, bestProb := 0, -1.0
	for i, a := range rungs {
		prob := p.est.PSuccess(site, a.key())
		if prob >= learnConfidence {
			return a
		}
		if prob > bestProb+1e-12 {
			best, bestProb = i, prob
		}
	}
	return rungs[best]
}

// pickCheapest is oracle v2: it ranks every candidate rung by expected
// outage seconds —
//
//	H(last) = D(last)                         (the root cures, A_cure)
//	H(i)    = D(i) + (1-P(i)) · (redetect + H(i+1))
//
// with per-(site, action) success probabilities P and durations D from the
// live estimator, and starts at the argmin. On persistence the candidates
// are the rungs above the failed one, so a failed microreboot can escalate
// straight past checkpoint-restore when the estimates say so. All inputs
// are deterministic functions of observed history on the simulated clock,
// so decisions are reproducible across parallel campaign trials.
func pickCheapest(p *Policy, _ *Tree, site string, rungs []Action) Action {
	var buf [maxRungs]float64
	H := buf[:]
	if len(rungs) > len(H) {
		H = make([]float64, len(rungs))
	}
	last := len(rungs) - 1
	for i := last; i >= 0; i-- {
		H[i] = p.duration(site, rungs[i])
		if i < last {
			H[i] += (1 - p.est.PSuccess(site, rungs[i].key())) * (reDetect.Seconds() + H[i+1])
		}
	}
	best := 0
	for i := 1; i <= last; i++ {
		if H[i] < H[best]-1e-12 {
			best = i
		}
	}
	rate := 1.0
	if p.deps.HarmRate != nil {
		rate = p.deps.HarmRate(site)
	}
	M.OraclePredictedHarm.ObserveValue(uint64(H[best] * rate))
	return rungs[best]
}

// duration returns the expected seconds of one action at a site: the
// estimator's EWMA when it has a sample, else a crude prior by kind.
func (p *Policy) duration(site string, a Action) float64 {
	if d, ok := p.est.Duration(site, a.key()); ok {
		return d.Seconds()
	}
	switch a.Kind {
	case ActMicroreboot:
		return 0.5
	case ActCkptRestore:
		d, _ := p.deps.Ckpt.RestoreCost(site)
		return 0.5 + d.Seconds()
	default:
		return 5 + 0.5*float64(len(a.Node.Subtree())-1)
	}
}

// EscalatingOracle, CostAwareConfig and NewCostAwareOracle are the
// pre-unification names the frozen benchmark probes compile against.
type (
	EscalatingOracle = Policy
	CostAwareConfig  = PolicyDeps
)

// NewCostAwareOracle builds the cost-aware policy (oracle v2).
func NewCostAwareOracle(cfg CostAwareConfig) *Policy {
	p, _ := PolicyByName("costaware", cfg)
	return p
}
