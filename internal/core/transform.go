package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
)

// This file implements the paper's §4 restart-tree transformations. Each
// transformation is non-destructive: it clones the input tree and returns
// the evolved variant, so an experiment can hold trees I–V simultaneously.

// TrivialTree builds tree I: a single restart cell holding every
// component, so the only possible policy is a whole-system reboot.
func TrivialTree(name string, components []string) (*Tree, error) {
	comps := append([]string(nil), components...)
	sort.Strings(comps)
	return NewTree(name, &Node{Components: comps})
}

// DepthAugment (tree I → II) gives every component its own child cell
// under the root, enabling bounded per-component restarts. Useful when
// f_A + f_B > 0, i.e. some failures are curable below the root.
func DepthAugment(t *Tree, name string) (*Tree, error) {
	root := &Node{}
	for _, comp := range t.Components() {
		root.Children = append(root.Children, &Node{Components: []string{comp}})
	}
	return NewTree(name, root)
}

// SplitComponent (tree II → II′) replaces one component with its
// sub-components, each in its own cell where the original's cell was. The
// caller is responsible for the matching station-layout change (fedrcom →
// fedr + pbcom).
func SplitComponent(t *Tree, name, component string, into []string) (*Tree, error) {
	if len(into) < 2 {
		return nil, fmt.Errorf("core: split of %q needs at least two parts", component)
	}
	if _, err := t.CellOf(component); err != nil {
		return nil, err
	}
	clone := cloneNode(t.root)
	if !replaceComponent(clone, component, into, false) {
		return nil, fmt.Errorf("%w: %s", ErrUnknownComponent, component)
	}
	return NewTree(name, clone)
}

// GroupSplitComponent (tree II′ → III) replaces one component with a new
// subtree: an inner cell whose children are the sub-components' cells.
// The inner cell enables the joint restart that cures correlated failures
// between the new parts without a whole-system restart (useful when
// f_{A,B} > 0).
func GroupSplitComponent(t *Tree, name, component string, into []string) (*Tree, error) {
	if len(into) < 2 {
		return nil, fmt.Errorf("core: split of %q needs at least two parts", component)
	}
	if _, err := t.CellOf(component); err != nil {
		return nil, err
	}
	clone := cloneNode(t.root)
	if !replaceComponent(clone, component, into, true) {
		return nil, fmt.Errorf("%w: %s", ErrUnknownComponent, component)
	}
	return NewTree(name, clone)
}

// replaceComponent rewrites the first cell holding component. With group
// set, the replacement is an inner node with one child cell per part;
// otherwise the parts become sibling cells in place of the original cell
// (or in-place attachments when the cell also holds other components).
// parent/slot identify where n hangs so the flat split can splice
// siblings; parent is nil at the root.
func replaceComponent(n *Node, component string, into []string, group bool) bool {
	return replaceComponentAt(nil, -1, n, component, into, group)
}

func replaceComponentAt(parent *Node, slot int, n *Node, component string, into []string, group bool) bool {
	for i, comp := range n.Components {
		if comp != component {
			continue
		}
		n.Components = append(n.Components[:i], n.Components[i+1:]...)
		parts := make([]*Node, 0, len(into))
		for _, p := range into {
			parts = append(parts, &Node{Components: []string{p}})
		}
		switch {
		case group && len(n.Components) == 0 && len(n.Children) == 0 && parent != nil:
			// The cell held only this component: the joint cell takes its
			// place directly.
			parent.Children[slot] = &Node{Children: parts}
		case group:
			// A joint cell for the parts hangs where the component was
			// attached.
			n.Children = append(n.Children, &Node{Children: parts})
		case len(n.Components) == 0 && len(n.Children) == 0 && parent != nil:
			// The cell held only this component: the parts become sibling
			// cells in its place.
			parent.Children = append(parent.Children[:slot],
				append(parts, parent.Children[slot+1:]...)...)
		default:
			// The cell holds other components (or is the root): attach the
			// parts as its own child cells so each remains independently
			// restartable.
			n.Children = append(n.Children, parts...)
		}
		return true
	}
	for i, c := range n.Children {
		if replaceComponentAt(n, i, c, component, into, group) {
			return true
		}
	}
	return false
}

// Consolidate (tree III → IV) merges the cells of the given components
// into one shared cell, encoding that separate restarts are useless
// (f_A + f_B ≪ f_{A,B}): whenever one is restarted, so is the other,
// turning MTTR_A + MTTR_B into max(MTTR_A, MTTR_B).
func Consolidate(t *Tree, name string, components []string) (*Tree, error) {
	if len(components) < 2 {
		return nil, fmt.Errorf("core: consolidation needs at least two components")
	}
	uniq := make(map[string]bool, len(components))
	for _, c := range components {
		if uniq[c] {
			return nil, fmt.Errorf("core: duplicate component %q in consolidation", c)
		}
		uniq[c] = true
		if _, err := t.CellOf(c); err != nil {
			return nil, err
		}
	}
	clone, err := t.Clone("tmp")
	if err != nil {
		return nil, err
	}
	merged := &Node{Components: append([]string(nil), components...)}
	sort.Strings(merged.Components)

	// Remove each component's old cell; insert the merged cell where the
	// first one was.
	root := clone.root
	inserted := false
	for _, comp := range components {
		cell, err := clone.CellOf(comp)
		if err != nil {
			return nil, err
		}
		removeComponent(cell, comp)
		if !inserted {
			if cell.parent == nil {
				root.Children = append(root.Children, merged)
			} else {
				cell.parent.Children = append(cell.parent.Children, merged)
			}
			inserted = true
		}
	}
	pruned := prune(root)
	if pruned == nil {
		return nil, ErrEmptyTree
	}
	return NewTree(name, pruned)
}

// Promote (tree IV → V) moves a high-MTTR component up: its cell becomes
// the parent of the given child cell, so every restart of the promoted
// component also restarts the subtree below it. This wastes a cheap child
// restart on every promoted-component failure, but removes the double
// restart a guess-too-low oracle mistake would cost — tree V can only be
// better than tree IV when the oracle is faulty.
func Promote(t *Tree, name, component, overComponent string) (*Tree, error) {
	if component == overComponent {
		return nil, fmt.Errorf("core: cannot promote %q over itself", component)
	}
	if _, err := t.CellOf(component); err != nil {
		return nil, err
	}
	if _, err := t.CellOf(overComponent); err != nil {
		return nil, err
	}
	clone, err := t.Clone("tmp")
	if err != nil {
		return nil, err
	}
	promotedCell, err := clone.CellOf(component)
	if err != nil {
		return nil, err
	}
	removeComponent(promotedCell, component)
	childCell, err := clone.CellOf(overComponent)
	if err != nil {
		return nil, err
	}
	// Walk up from the child cell to the nearest surviving ancestor and
	// interpose the promoted component there: the new node holds the
	// component and adopts the child's subtree.
	parent := childCell.parent
	newNode := &Node{Components: []string{component}, Children: []*Node{childCell}}
	if parent == nil {
		return nil, fmt.Errorf("core: cannot promote over the root cell")
	}
	for i, c := range parent.Children {
		if c == childCell {
			parent.Children[i] = newNode
			break
		}
	}
	pruned := prune(clone.root)
	if pruned == nil {
		return nil, ErrEmptyTree
	}
	return NewTree(name, pruned)
}

// removeComponent deletes a component from a cell's attachment list.
func removeComponent(n *Node, component string) {
	for i, c := range n.Components {
		if c == component {
			n.Components = append(n.Components[:i], n.Components[i+1:]...)
			return
		}
	}
}

// prune removes empty leaf cells (no components, no children) and
// collapses empty pass-through cells with a single child — including an
// emptied root, whose only child then becomes the new root. Restart
// semantics are preserved: a pass-through cell's button is identical to
// its child's.
func prune(n *Node) *Node {
	kept := n.Children[:0]
	for _, c := range n.Children {
		if p := prune(c); p != nil {
			kept = append(kept, p)
		}
	}
	n.Children = kept
	if len(n.Components) == 0 {
		switch len(n.Children) {
		case 0:
			return nil
		case 1:
			return n.Children[0]
		}
	}
	return n
}

// MercuryTrees returns the paper's five trees. Trees I and II use the
// monolithic component set; II′ (returned as "IIp"), III, IV and V use the
// split set.
//
// The trees are built once per process (per distinct monolithic set — in
// practice one) and shared: a *Tree is immutable once NewTree returns, every
// transformation clones before it edits, and REC only reads. Each call
// returns a fresh map, so callers may add their own variants ("IVm", a
// custom tree) without anyone else seeing them.
func MercuryTrees(monolithic, split []string) (map[string]*Tree, error) {
	_ = split // the split component list is implied by the transformations
	key := strings.Join(monolithic, "\x00")
	mercuryTrees.Lock()
	defer mercuryTrees.Unlock()
	shared, ok := mercuryTrees.built[key]
	if !ok {
		var err error
		if shared, err = buildMercuryTrees(monolithic); err != nil {
			return nil, err
		}
		if mercuryTrees.built == nil {
			mercuryTrees.built = make(map[string]map[string]*Tree)
		}
		mercuryTrees.built[key] = shared
	}
	trees := make(map[string]*Tree, len(shared)+2)
	for name, t := range shared {
		trees[name] = t
	}
	return trees, nil
}

// AddMicroTrees grows the sub-process restart level onto the split trees
// that have a microrebootable variant: trees["IIIm"] and trees["IVm"] are
// III and IV with one child cell per subcomponent in subs (SubAugment).
// The m-variants exist only in micro mode, so a classic station's tree set
// stays the paper's. Like the trees they grow from they are built once and
// shared: a variant depends only on its base tree and on subs.
func AddMicroTrees(trees map[string]*Tree, subs map[string][]string) error {
	mercuryTrees.Lock()
	defer mercuryTrees.Unlock()
	for _, base := range []string{"III", "IV"} {
		name := base + "m"
		mt := mercuryTrees.micro[name]
		if mt.base != trees[base] || !maps.EqualFunc(mt.subs, subs, slices.Equal[[]string]) {
			t, err := SubAugment(trees[base], name, subs)
			if err != nil {
				return fmt.Errorf("tree %s: %w", name, err)
			}
			mt = microVariant{base: trees[base], subs: cloneSubs(subs), tree: t}
			if mercuryTrees.micro == nil {
				mercuryTrees.micro = make(map[string]microVariant, 2)
			}
			mercuryTrees.micro[name] = mt
		}
		trees[name] = mt.tree
	}
	return nil
}

// mercuryTrees memoises buildMercuryTrees and, per m-variant name, the
// latest SubAugment of a base tree; the lock covers parallel trial workers
// constructing systems at once.
var mercuryTrees struct {
	sync.Mutex
	built map[string]map[string]*Tree
	micro map[string]microVariant
}

// microVariant is a memoised m-variant and what it was built from.
type microVariant struct {
	base *Tree
	subs map[string][]string
	tree *Tree
}

// cloneSubs copies subs deeply: the memo must not see its caller edit them.
func cloneSubs(subs map[string][]string) map[string][]string {
	c := make(map[string][]string, len(subs))
	for comp, s := range subs {
		c[comp] = slices.Clone(s)
	}
	return c
}

func buildMercuryTrees(monolithic []string) (map[string]*Tree, error) {
	trees := make(map[string]*Tree, 6)

	t1, err := TrivialTree("I", monolithic)
	if err != nil {
		return nil, fmt.Errorf("tree I: %w", err)
	}
	trees["I"] = t1

	t2, err := DepthAugment(t1, "II")
	if err != nil {
		return nil, fmt.Errorf("tree II: %w", err)
	}
	trees["II"] = t2

	t2p, err := SplitComponent(t2, "IIp", "fedrcom", []string{"fedr", "pbcom"})
	if err != nil {
		return nil, fmt.Errorf("tree II': %w", err)
	}
	trees["IIp"] = t2p

	t3, err := GroupSplitComponent(t2, "III", "fedrcom", []string{"fedr", "pbcom"})
	if err != nil {
		return nil, fmt.Errorf("tree III: %w", err)
	}
	trees["III"] = t3

	t4, err := Consolidate(t3, "IV", []string{"ses", "str"})
	if err != nil {
		return nil, fmt.Errorf("tree IV: %w", err)
	}
	trees["IV"] = t4

	t5, err := Promote(t4, "V", "pbcom", "fedr")
	if err != nil {
		return nil, fmt.Errorf("tree V: %w", err)
	}
	trees["V"] = t5
	return trees, nil
}

// SubAugment extends a tree below the process level: each named component
// keeps its cell, which gains one child cell per subcomponent (dotted
// names, e.g. ses.cache). The sub cells are the microreboot rung — the
// cheapest button on the escalation ladder. A failure confined to a
// subcomponent restarts just it; persistence escalates to the hosting
// process's own cell and onward exactly as before.
func SubAugment(t *Tree, name string, subs map[string][]string) (*Tree, error) {
	clone := cloneNode(t.root)
	comps := make([]string, 0, len(subs))
	for comp := range subs {
		comps = append(comps, comp)
	}
	sort.Strings(comps)
	for _, comp := range comps {
		n := findComponent(clone, comp)
		if n == nil {
			return nil, fmt.Errorf("%w: %s", ErrUnknownComponent, comp)
		}
		for _, sub := range subs[comp] {
			n.Children = append(n.Children, &Node{Components: []string{comp + "." + sub}})
		}
	}
	return NewTree(name, clone)
}

// findComponent locates the cell holding comp in an unlinked clone.
func findComponent(n *Node, comp string) *Node {
	for _, c := range n.Components {
		if c == comp {
			return n
		}
	}
	for _, child := range n.Children {
		if found := findComponent(child, comp); found != nil {
			return found
		}
	}
	return nil
}
