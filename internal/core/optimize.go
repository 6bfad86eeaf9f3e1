package core

import (
	"errors"
	"fmt"
	"sort"
)

// This file implements the other §7 future-work item: "identify specific
// algorithms for transforming restart trees". The optimizer hill-climbs
// over the paper's transformation moves — group consolidation, joint-node
// grouping (the structural half of subtree depth augmentation), node
// promotion and their inverses — scoring candidates with the analytic
// expected-MTTR model. On Mercury's own failure mix it rediscovers the
// paper's hand-derived trees: consolidation of ses/str under any oracle,
// and pbcom's promotion exactly when the oracle is faulty.

// ErrNoComponents guards the optimizer input.
var ErrNoComponents = errors.New("core: optimizer needs components")

// GroupCells creates a joint inner node over two components' cells (they
// must be siblings, and not the only content of their parent): the
// structural move behind tree III's [fedr pbcom] node.
func GroupCells(t *Tree, name, a, b string) (*Tree, error) {
	if a == b {
		return nil, fmt.Errorf("core: cannot group %q with itself", a)
	}
	clone, err := t.Clone("tmp")
	if err != nil {
		return nil, err
	}
	ca, err := clone.CellOf(a)
	if err != nil {
		return nil, err
	}
	cb, err := clone.CellOf(b)
	if err != nil {
		return nil, err
	}
	if ca == cb {
		return nil, fmt.Errorf("core: %q and %q already share a cell", a, b)
	}
	if ca.Parent() == nil || ca.Parent() != cb.Parent() {
		return nil, fmt.Errorf("core: %q and %q are not sibling cells", a, b)
	}
	parent := ca.Parent()
	if len(parent.Components) == 0 && len(parent.Children) == 2 {
		// The joint cell would duplicate parent, and LowestCovering
		// would find the copy instead of parent.
		return nil, fmt.Errorf("core: %q and %q are already all of their parent cell", a, b)
	}
	joint := &Node{Children: []*Node{ca, cb}}
	kept := parent.Children[:0]
	for _, c := range parent.Children {
		if c != ca && c != cb {
			kept = append(kept, c)
		}
	}
	parent.Children = append(kept, joint)
	return NewTree(name, clone.root)
}

// Isolate splits one component out of a shared cell into its own sibling
// cell — the inverse of consolidation.
func Isolate(t *Tree, name, component string) (*Tree, error) {
	clone, err := t.Clone("tmp")
	if err != nil {
		return nil, err
	}
	cell, err := clone.CellOf(component)
	if err != nil {
		return nil, err
	}
	if len(cell.Components) < 2 {
		return nil, fmt.Errorf("core: %q is already isolated", component)
	}
	removeComponent(cell, component)
	leaf := &Node{Components: []string{component}}
	if cell.Parent() == nil {
		cell.Children = append(cell.Children, leaf)
	} else {
		cell.Parent().Children = append(cell.Parent().Children, leaf)
	}
	return NewTree(name, clone.root)
}

// OptimizeResult reports the optimizer's outcome.
type OptimizeResult struct {
	Tree     *Tree
	Expected float64 // expected MTTR, seconds
	Start    float64 // expected MTTR of the starting tree
	Steps    []string
}

// Optimize hill-climbs from the depth-augmented tree over the
// transformation moves, minimising analytic expected MTTR under the given
// fault mix and oracle model.
func Optimize(components []string, mix []FaultClass, ap AnalyticParams,
	model OracleModel, faultyP float64) (*OptimizeResult, error) {
	if len(components) == 0 {
		return nil, ErrNoComponents
	}
	comps := append([]string(nil), components...)
	sort.Strings(comps)

	trivial, err := TrivialTree("opt-0", comps)
	if err != nil {
		return nil, err
	}
	current, err := DepthAugment(trivial, "opt")
	if err != nil {
		return nil, err
	}
	return OptimizeFrom(current, comps, mix, ap, model, faultyP, nil)
}

// candidate is one transformed tree plus a human-readable move.
type candidate struct {
	tree *Tree
	desc string
}

// candidateMoves enumerates one application of each transformation over
// all component pairs.
func candidateMoves(t *Tree, comps []string) []candidate {
	var out []candidate
	add := func(tr *Tree, err error, desc string) {
		if err == nil && tr != nil {
			out = append(out, candidate{tree: tr, desc: desc})
		}
	}
	for i, a := range comps {
		tr, err := Isolate(t, "opt", a)
		add(tr, err, "isolate "+a)
		for j, b := range comps {
			if i == j {
				continue
			}
			if i < j {
				tr, err := Consolidate(t, "opt", []string{a, b})
				add(tr, err, fmt.Sprintf("consolidate %s+%s", a, b))
				tr, err = GroupCells(t, "opt", a, b)
				add(tr, err, fmt.Sprintf("group [%s %s]", a, b))
			}
			tr, err := Promote(t, "opt", a, b)
			add(tr, err, fmt.Sprintf("promote %s over %s", a, b))
		}
	}
	return out
}
