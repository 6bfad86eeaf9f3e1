package core

import (
	"errors"
	"fmt"
	"sort"
)

// This file implements the analytic availability model sketched in the
// paper's §7 ("we expect to explore a more detailed analytic model"): the
// expected system MTTR of a restart tree under a failure mix expressed in
// the paper's f_ci formalism — the probability that a manifested failure
// is minimally curable by each restart set.

// FaultClass is one class of failures: it manifests at a component, is
// minimally cured by restarting Cure together, and occurs with relative
// Weight (e.g. 1/MTTF).
type FaultClass struct {
	Manifest string
	Cure     []string
	Weight   float64
}

// AnalyticParams captures the recovery-cost constants of the system.
type AnalyticParams struct {
	// RestartSeconds is each component's base restart time.
	RestartSeconds map[string]float64
	// DetectSeconds is the mean failure-detection latency.
	DetectSeconds float64
	// DecisionSeconds is REC's per-restart overhead.
	DecisionSeconds float64
	// ContentionPerPeer stretches concurrent startups: a k-component
	// restart runs at 1 + ContentionPerPeer*(k-1).
	ContentionPerPeer float64
}

// OracleModel selects the policy assumed by the analysis.
type OracleModel int

// Oracle models.
const (
	// ModelPerfect restarts the lowest covering node immediately.
	ModelPerfect OracleModel = iota + 1
	// ModelEscalating starts at the manifest component's cell and walks up
	// until the restart set covers the cure.
	ModelEscalating
	// ModelFaulty is perfect except it guesses the manifest's cell first
	// with probability FaultyP whenever that cell is not already correct.
	ModelFaulty
)

// String names the model.
func (m OracleModel) String() string {
	switch m {
	case ModelPerfect:
		return "perfect"
	case ModelEscalating:
		return "escalating"
	case ModelFaulty:
		return "faulty"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// Analytic evaluation errors.
var (
	ErrNoFaultClasses = errors.New("core: analytic model needs at least one fault class")
	ErrNoRestartTime  = errors.New("core: missing restart time for component")
)

// restartCost returns the cost of pushing one node's button: detection +
// decision + the contention-stretched slowest member startup.
func (ap AnalyticParams) restartCost(n *Node) (float64, error) {
	set := n.Subtree()
	stretch := 1.0
	if len(set) > 1 {
		stretch = 1 + ap.ContentionPerPeer*float64(len(set)-1)
	}
	worst := 0.0
	for _, c := range set {
		r, ok := ap.RestartSeconds[c]
		if !ok {
			return 0, fmt.Errorf("%w: %s", ErrNoRestartTime, c)
		}
		if r*stretch > worst {
			worst = r * stretch
		}
	}
	return ap.DetectSeconds + ap.DecisionSeconds + worst, nil
}

// classCost returns the expected recovery cost of one fault class under
// the model: the cost of every attempted restart until one covers the cure
// set (failed attempts pay full price plus the re-detection of the
// persisting failure, which is folded into the next attempt's detect
// term).
func (ap AnalyticParams) classCost(t *Tree, fc FaultClass, model OracleModel, faultyP float64) (float64, error) {
	cure := fc.Cure
	if len(cure) == 0 {
		cure = []string{fc.Manifest}
	}
	correct, err := t.LowestCovering(cure)
	if err != nil {
		// Not curable below the root by construction of LowestCovering;
		// treat as a root restart.
		correct = t.Root()
	}
	cell, err := t.CellOf(fc.Manifest)
	if err != nil {
		return 0, err
	}

	// ladder walks from a starting node to the first covering ancestor,
	// accumulating the cost of every attempt.
	ladder := func(start *Node) (float64, error) {
		total := 0.0
		for n := start; n != nil; n = n.Parent() {
			c, err := ap.restartCost(n)
			if err != nil {
				return 0, err
			}
			total += c
			if covers(n, cure) {
				return total, nil
			}
		}
		return total, nil
	}

	switch model {
	case ModelPerfect:
		return ap.restartCost(correct)
	case ModelEscalating:
		return ladder(cell)
	case ModelFaulty:
		right, err := ap.restartCost(correct)
		if err != nil {
			return 0, err
		}
		if cell == correct {
			return right, nil
		}
		wrong, err := ladder(cell)
		if err != nil {
			return 0, err
		}
		return (1-faultyP)*right + faultyP*wrong, nil
	default:
		return 0, fmt.Errorf("core: unknown oracle model %v", model)
	}
}

// ExpectedMTTR returns the weight-averaged expected recovery time of the
// tree under the fault mix and oracle model.
func ExpectedMTTR(t *Tree, mix []FaultClass, ap AnalyticParams, model OracleModel, faultyP float64) (float64, error) {
	if len(mix) == 0 {
		return 0, ErrNoFaultClasses
	}
	var sumW, sumC float64
	for _, fc := range mix {
		if fc.Weight <= 0 {
			continue
		}
		c, err := ap.classCost(t, fc, model, faultyP)
		if err != nil {
			return 0, err
		}
		sumW += fc.Weight
		sumC += fc.Weight * c
	}
	if sumW == 0 {
		return 0, ErrNoFaultClasses
	}
	return sumC / sumW, nil
}

// MercuryFaultMix returns the split-layout failure mix implied by the
// paper: fedr fails constantly (the buggy translator), ses/str failures
// are jointly curable (f_{ses,str} ≈ 1), a share of pbcom failures needs
// the joint front-end restart, and mbus/rtu fail independently. Weights
// are failure rates per hour from Table 1 (extended across the split).
func MercuryFaultMix() []FaultClass {
	return []FaultClass{
		{Manifest: "fedr", Cure: []string{"fedr"}, Weight: 6.0},                       // MTTF 10 min
		{Manifest: "ses", Cure: []string{"ses", "str"}, Weight: 0.2},                  // MTTF 5 h, correlated
		{Manifest: "str", Cure: []string{"ses", "str"}, Weight: 0.2},                  // MTTF 5 h, correlated
		{Manifest: "rtu", Cure: []string{"rtu"}, Weight: 0.2},                         // MTTF 5 h
		{Manifest: "mbus", Cure: []string{"mbus"}, Weight: 1.0 / (30 * 24)},           // MTTF 1 month
		{Manifest: "pbcom", Cure: []string{"pbcom"}, Weight: 0.5 / (14 * 24)},         // stable
		{Manifest: "pbcom", Cure: []string{"fedr", "pbcom"}, Weight: 0.5 / (14 * 24)}, // §4.4 class
	}
}

// RenderMix pretty-prints a fault mix.
func RenderMix(mix []FaultClass) string {
	out := ""
	sorted := append([]FaultClass(nil), mix...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Weight > sorted[j].Weight })
	for _, fc := range sorted {
		out += fmt.Sprintf("  %-6s cure=%v weight=%.4f/h\n", fc.Manifest, fc.Cure, fc.Weight)
	}
	return out
}
