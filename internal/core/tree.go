// Package core implements the paper's primary contribution: restart trees,
// restart groups and cells, the tree transformations of §4 (depth
// augmentation, subtree depth augmentation, group consolidation, node
// promotion), the failure detector (FD), the recoverer (REC) and the
// oracle — the restart policy that maps detected failures to tree nodes.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Tree errors.
var (
	ErrEmptyTree          = errors.New("core: tree has no components")
	ErrDuplicateComponent = errors.New("core: component attached to more than one cell")
	ErrUnknownComponent   = errors.New("core: component not in tree")
	ErrUnknownNode        = errors.New("core: node not in tree")
	ErrNotCovered         = errors.New("core: no node covers the component set")
)

// Node is a restart cell: conceptually a "button" whose push restarts
// every software component attached anywhere in its subtree. Components
// may be attached at any node, not only leaves — node promotion (tree V)
// attaches pbcom to an inner node above fedr's cell.
type Node struct {
	// Name labels the cell in traces and renders; derived from the
	// attached components when empty.
	Name string
	// Components are the software components attached at this cell.
	Components []string
	// Children are the sub-cells.
	Children []*Node

	parent *Node
	// label and members are Label and Subtree as NewTree found them, so a
	// recoverer deciding on a shared tree reads them without allocating;
	// members is nil on a node no tree has indexed.
	label   string
	members []string
}

// Label returns the node's display name.
func (n *Node) Label() string {
	if n.Name != "" {
		return n.Name
	}
	if n.members != nil {
		return n.label
	}
	return bracketLabel(n.collect())
}

func bracketLabel(members []string) string { return "[" + strings.Join(members, " ") + "]" }

// set is the subtree's components joined by spaces: the indexed label,
// unbracketed, which a trace line may keep.
func (n *Node) set() string {
	if n.members == nil {
		return strings.Join(n.collect(), " ")
	}
	return n.label[1 : len(n.label)-1]
}

// Parent returns the node's parent, or nil at the root.
func (n *Node) Parent() *Node { return n.parent }

// Subtree returns every component restarted by this cell's button, sorted.
func (n *Node) Subtree() []string {
	if n.members != nil {
		return slices.Clone(n.members)
	}
	return n.collect()
}

// subtree is Subtree without the copy, for readers inside the package: the
// caller must not modify it.
func (n *Node) subtree() []string {
	if n.members != nil {
		return n.members
	}
	return n.collect()
}

// collect gathers the subtree's components afresh, sorted.
func (n *Node) collect() []string {
	var out []string
	n.walk(func(m *Node) {
		out = append(out, m.Components...)
	})
	sort.Strings(out)
	return out
}

// index records every node's members and label, children first.
func index(n *Node) []string {
	all := append(make([]string, 0, len(n.Components)), n.Components...)
	for _, c := range n.Children {
		all = append(all, index(c)...)
	}
	sort.Strings(all)
	n.members, n.label = all, bracketLabel(all)
	return all
}

// walk visits the subtree pre-order.
func (n *Node) walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.walk(fn)
	}
}

// Tree is a validated restart tree.
type Tree struct {
	// Name labels the tree variant ("I" … "V", or custom).
	Name string

	root   *Node
	byComp map[string]*Node // lowest cell a component is attached to
	nodes  []*Node          // pre-order
}

// NewTree validates a root node and builds the component index. Every
// component must be attached exactly once.
func NewTree(name string, root *Node) (*Tree, error) {
	t := &Tree{Name: name, root: root, byComp: make(map[string]*Node)}
	var err error
	var link func(n, parent *Node)
	link = func(n, parent *Node) {
		n.parent = parent
		t.nodes = append(t.nodes, n)
		for _, comp := range n.Components {
			if _, dup := t.byComp[comp]; dup {
				err = fmt.Errorf("%w: %s", ErrDuplicateComponent, comp)
			}
			t.byComp[comp] = n
		}
		for _, c := range n.Children {
			link(c, n)
		}
	}
	link(root, nil)
	if err != nil {
		return nil, err
	}
	index(root)
	if len(t.byComp) == 0 {
		return nil, ErrEmptyTree
	}
	return t, nil
}

// Root returns the root cell (the whole-system restart button).
func (t *Tree) Root() *Node { return t.root }

// Components returns every component in the tree, sorted.
func (t *Tree) Components() []string { return t.root.Subtree() }

// CellOf returns the lowest cell a component is attached to.
func (t *Tree) CellOf(component string) (*Node, error) {
	n, ok := t.byComp[component]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownComponent, component)
	}
	return n, nil
}

// Contains reports whether the node belongs to this tree.
func (t *Tree) Contains(n *Node) bool {
	for _, m := range t.nodes {
		if m == n {
			return true
		}
	}
	return false
}

// LowestCovering returns the deepest node whose subtree covers every
// component in set. This is the node a perfect oracle recommends for a
// minimally set-curable failure.
func (t *Tree) LowestCovering(set []string) (*Node, error) {
	if len(set) == 0 {
		return nil, ErrNotCovered
	}
	// Start at the first component's cell and climb until all are covered.
	n, err := t.CellOf(set[0])
	if err != nil {
		return nil, err
	}
	for n != nil {
		if covers(n, set) {
			return n, nil
		}
		n = n.parent
	}
	return nil, fmt.Errorf("%w: %v", ErrNotCovered, set)
}

// covers reports whether the node's subtree includes every component.
func covers(n *Node, set []string) bool {
	members := n.subtree()
	for _, c := range set {
		if _, ok := slices.BinarySearch(members, c); !ok {
			return false
		}
	}
	return true
}

// Depth returns the node's distance from the root (root = 0).
func (t *Tree) Depth(n *Node) (int, error) {
	if !t.Contains(n) {
		return 0, ErrUnknownNode
	}
	d := 0
	for m := n; m.parent != nil; m = m.parent {
		d++
	}
	return d, nil
}

// Groups returns all restart groups (one per node), pre-order. The paper
// counts trivial single-cell groups too, so a 5-cell tree has 5 groups.
func (t *Tree) Groups() []*Node {
	out := make([]*Node, len(t.nodes))
	copy(out, t.nodes)
	return out
}

// Render draws the tree as ASCII art (the paper's figures 2–6).
func (t *Tree) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "tree %s\n", t.Name)
	var rec func(n *Node, prefix string, last bool)
	rec = func(n *Node, prefix string, last bool) {
		connector := "├─ "
		childPrefix := prefix + "│  "
		if last {
			connector = "└─ "
			childPrefix = prefix + "   "
		}
		if n.parent == nil {
			connector = ""
			childPrefix = ""
		}
		label := "R" + brackets(n)
		sb.WriteString(prefix + connector + label + "\n")
		for i, c := range n.Children {
			rec(c, childPrefix, i == len(n.Children)-1)
		}
	}
	rec(t.root, "", true)
	return sb.String()
}

// brackets renders the attached components plus a subtree hint.
func brackets(n *Node) string {
	if len(n.Components) == 0 {
		return "{" + strings.Join(n.Subtree(), " ") + "}"
	}
	return "(" + strings.Join(n.Components, " ") + ")"
}

// Clone deep-copies the tree structure (transformations are
// non-destructive: each returns a new tree).
func (t *Tree) Clone(name string) (*Tree, error) {
	return NewTree(name, cloneNode(t.root))
}

func cloneNode(n *Node) *Node {
	m := &Node{Name: n.Name, Components: append([]string(nil), n.Components...)}
	for _, c := range n.Children {
		m.Children = append(m.Children, cloneNode(c))
	}
	return m
}
