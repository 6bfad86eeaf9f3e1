package core

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

var (
	monolithic = []string{"mbus", "fedrcom", "ses", "str", "rtu"}
	split      = []string{"mbus", "fedr", "pbcom", "ses", "str", "rtu"}
)

func mustTrees(t *testing.T) map[string]*Tree {
	t.Helper()
	trees, err := MercuryTrees(monolithic, split)
	if err != nil {
		t.Fatalf("MercuryTrees: %v", err)
	}
	return trees
}

func subtreeOf(t *testing.T, tr *Tree, comp string) []string {
	t.Helper()
	cell, err := tr.CellOf(comp)
	if err != nil {
		t.Fatalf("CellOf(%s): %v", comp, err)
	}
	return cell.Subtree()
}

func eq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTreeIWholeSystemOnly(t *testing.T) {
	tr := mustTrees(t)["I"]
	if got := tr.Components(); !eq(got, monolithic) {
		t.Fatalf("components = %v", got)
	}
	if len(tr.Groups()) != 1 {
		t.Fatalf("tree I should have exactly one restart group, got %d", len(tr.Groups()))
	}
	// Any component's cell is the root: total reboot.
	if got := subtreeOf(t, tr, "rtu"); !eq(got, monolithic) {
		t.Fatalf("rtu cell restarts %v", got)
	}
}

func TestTreeIIPerComponentCells(t *testing.T) {
	tr := mustTrees(t)["II"]
	// Root plus one cell per component: 6 groups.
	if len(tr.Groups()) != 6 {
		t.Fatalf("groups = %d, want 6", len(tr.Groups()))
	}
	for _, c := range monolithic {
		if got := subtreeOf(t, tr, c); !eq(got, []string{c}) {
			t.Fatalf("%s cell restarts %v, want itself only", c, got)
		}
	}
	// Root still restarts everything.
	if got := tr.Root().Subtree(); !eq(got, monolithic) {
		t.Fatalf("root restarts %v", got)
	}
}

func TestTreeIIPrimeFlatSplit(t *testing.T) {
	tr := mustTrees(t)["IIp"]
	if got := tr.Components(); !eq(got, split) {
		t.Fatalf("components = %v", got)
	}
	// fedr and pbcom are independent top-level cells: each restarts itself
	// only, and the lowest node covering both is the root.
	if got := subtreeOf(t, tr, "fedr"); !eq(got, []string{"fedr"}) {
		t.Fatalf("fedr cell restarts %v", got)
	}
	if got := subtreeOf(t, tr, "pbcom"); !eq(got, []string{"pbcom"}) {
		t.Fatalf("pbcom cell restarts %v", got)
	}
	cover, err := tr.LowestCovering([]string{"fedr", "pbcom"})
	if err != nil {
		t.Fatal(err)
	}
	if cover != tr.Root() {
		t.Fatalf("lowest covering of {fedr,pbcom} = %s, want root", cover.Label())
	}
}

func TestTreeIIIJointFrontEndCell(t *testing.T) {
	tr := mustTrees(t)["III"]
	if got := tr.Components(); !eq(got, split) {
		t.Fatalf("components = %v", got)
	}
	// Individual cells exist.
	if got := subtreeOf(t, tr, "fedr"); !eq(got, []string{"fedr"}) {
		t.Fatalf("fedr cell restarts %v", got)
	}
	if got := subtreeOf(t, tr, "pbcom"); !eq(got, []string{"pbcom"}) {
		t.Fatalf("pbcom cell restarts %v", got)
	}
	// The joint node covers exactly the pair, below the root.
	cover, err := tr.LowestCovering([]string{"fedr", "pbcom"})
	if err != nil {
		t.Fatal(err)
	}
	if cover == tr.Root() {
		t.Fatal("joint front-end node missing: covering node is the root")
	}
	if got := cover.Subtree(); !eq(got, []string{"fedr", "pbcom"}) {
		t.Fatalf("joint node restarts %v", got)
	}
	d, err := tr.Depth(cover)
	if err != nil || d != 1 {
		t.Fatalf("joint node depth = %d, %v", d, err)
	}
}

func TestTreeIVConsolidatedTrackers(t *testing.T) {
	tr := mustTrees(t)["IV"]
	// ses and str share one cell: restarting either restarts both.
	sesCell, err := tr.CellOf("ses")
	if err != nil {
		t.Fatal(err)
	}
	strCell, err := tr.CellOf("str")
	if err != nil {
		t.Fatal(err)
	}
	if sesCell != strCell {
		t.Fatal("ses and str not consolidated into one cell")
	}
	if got := sesCell.Subtree(); !eq(got, []string{"ses", "str"}) {
		t.Fatalf("consolidated cell restarts %v", got)
	}
	// The fedr/pbcom joint structure survives.
	if got := subtreeOf(t, tr, "fedr"); !eq(got, []string{"fedr"}) {
		t.Fatalf("fedr cell restarts %v", got)
	}
}

func TestTreeVPromotedPbcom(t *testing.T) {
	tr := mustTrees(t)["V"]
	// pbcom's cell restarts fedr too; fedr's cell restarts only fedr.
	if got := subtreeOf(t, tr, "pbcom"); !eq(got, []string{"fedr", "pbcom"}) {
		t.Fatalf("pbcom cell restarts %v, want {fedr pbcom}", got)
	}
	if got := subtreeOf(t, tr, "fedr"); !eq(got, []string{"fedr"}) {
		t.Fatalf("fedr cell restarts %v", got)
	}
	// fedr's cell is a child of pbcom's cell.
	fedrCell, _ := tr.CellOf("fedr")
	pbcomCell, _ := tr.CellOf("pbcom")
	if fedrCell.Parent() != pbcomCell {
		t.Fatal("fedr cell is not directly under pbcom's promoted cell")
	}
	// Trackers stay consolidated.
	sesCell, _ := tr.CellOf("ses")
	strCell, _ := tr.CellOf("str")
	if sesCell != strCell {
		t.Fatal("tree V lost the ses/str consolidation")
	}
}

func TestEveryTreeCoversAllComponents(t *testing.T) {
	trees := mustTrees(t)
	for name, tr := range trees {
		want := monolithic
		if name != "I" && name != "II" {
			want = split
		}
		if got := tr.Components(); !eq(got, want) {
			t.Fatalf("tree %s components = %v, want %v", name, got, want)
		}
		if got := tr.Root().Subtree(); !eq(got, want) {
			t.Fatalf("tree %s root restarts %v", name, got)
		}
	}
}

func TestNewTreeValidation(t *testing.T) {
	if _, err := NewTree("x", &Node{}); err != ErrEmptyTree {
		t.Fatalf("empty tree err = %v", err)
	}
	dup := &Node{
		Components: []string{"a"},
		Children:   []*Node{{Components: []string{"a"}}},
	}
	if _, err := NewTree("x", dup); err == nil {
		t.Fatal("duplicate attachment accepted")
	}
}

func TestCellOfUnknown(t *testing.T) {
	tr := mustTrees(t)["II"]
	if _, err := tr.CellOf("ghost"); err == nil {
		t.Fatal("unknown component accepted")
	}
	if _, err := tr.LowestCovering([]string{"ghost"}); err == nil {
		t.Fatal("unknown covering accepted")
	}
	if _, err := tr.LowestCovering(nil); err == nil {
		t.Fatal("empty covering accepted")
	}
}

func TestDepth(t *testing.T) {
	tr := mustTrees(t)["III"]
	if d, err := tr.Depth(tr.Root()); err != nil || d != 0 {
		t.Fatalf("root depth = %d, %v", d, err)
	}
	fedrCell, _ := tr.CellOf("fedr")
	if d, err := tr.Depth(fedrCell); err != nil || d != 2 {
		t.Fatalf("fedr depth = %d, %v (want 2: root → joint → fedr)", d, err)
	}
	if _, err := tr.Depth(&Node{}); err != ErrUnknownNode {
		t.Fatalf("foreign node err = %v", err)
	}
}

func TestRenderShowsStructure(t *testing.T) {
	trees := mustTrees(t)
	for _, name := range []string{"I", "II", "IIp", "III", "IV", "V"} {
		r := trees[name].Render()
		if !strings.Contains(r, "tree "+name) {
			t.Fatalf("render of %s missing header:\n%s", name, r)
		}
		for _, c := range trees[name].Components() {
			if !strings.Contains(r, c) {
				t.Fatalf("render of %s missing %s:\n%s", name, c, r)
			}
		}
	}
	// Tree V should show nesting of fedr under pbcom.
	rv := trees["V"].Render()
	if !strings.Contains(rv, "pbcom") || !strings.Contains(rv, "fedr") {
		t.Fatalf("tree V render:\n%s", rv)
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := mustTrees(t)["IV"]
	cl, err := tr.Clone("copy")
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the clone must not affect the original.
	cl.Root().Components = append(cl.Root().Components, "extra")
	if eq(tr.Root().Components, cl.Root().Components) {
		t.Fatal("clone shares storage with original")
	}
}

func TestSplitValidation(t *testing.T) {
	tr := mustTrees(t)["II"]
	if _, err := SplitComponent(tr, "x", "fedrcom", []string{"one"}); err == nil {
		t.Fatal("single-part split accepted")
	}
	if _, err := SplitComponent(tr, "x", "ghost", []string{"a", "b"}); err == nil {
		t.Fatal("unknown component split accepted")
	}
	if _, err := GroupSplitComponent(tr, "x", "ghost", []string{"a", "b"}); err == nil {
		t.Fatal("unknown component group split accepted")
	}
}

func TestConsolidateValidation(t *testing.T) {
	tr := mustTrees(t)["III"]
	if _, err := Consolidate(tr, "x", []string{"ses"}); err == nil {
		t.Fatal("single-component consolidation accepted")
	}
	if _, err := Consolidate(tr, "x", []string{"ses", "ghost"}); err == nil {
		t.Fatal("unknown component consolidation accepted")
	}
}

func TestPromoteValidation(t *testing.T) {
	tr := mustTrees(t)["IV"]
	if _, err := Promote(tr, "x", "pbcom", "pbcom"); err == nil {
		t.Fatal("self-promotion accepted")
	}
	if _, err := Promote(tr, "x", "ghost", "fedr"); err == nil {
		t.Fatal("unknown promoted component accepted")
	}
	if _, err := Promote(tr, "x", "pbcom", "ghost"); err == nil {
		t.Fatal("unknown target component accepted")
	}
}

// Property: LowestCovering of any single component equals its cell, and
// climbing from any cell to the root only grows the restart set.
func TestPropertyCoveringMonotone(t *testing.T) {
	trees := mustTrees(t)
	names := []string{"I", "II", "IIp", "III", "IV", "V"}
	f := func(treeIdx, compIdx uint8) bool {
		tr := trees[names[int(treeIdx)%len(names)]]
		comps := tr.Components()
		comp := comps[int(compIdx)%len(comps)]
		cell, err := tr.CellOf(comp)
		if err != nil {
			return false
		}
		cover, err := tr.LowestCovering([]string{comp})
		if err != nil || cover != cell {
			return false
		}
		prev := len(cell.Subtree())
		for n := cell.Parent(); n != nil; n = n.Parent() {
			cur := len(n.Subtree())
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every component appears in exactly one cell in every Mercury
// tree (the NewTree invariant holds post-transformation).
func TestPropertyUniqueAttachment(t *testing.T) {
	trees := mustTrees(t)
	for name, tr := range trees {
		seen := make(map[string]int)
		var count func(n *Node)
		count = func(n *Node) {
			for _, c := range n.Components {
				seen[c]++
			}
			for _, ch := range n.Children {
				count(ch)
			}
		}
		count(tr.Root())
		for c, k := range seen {
			if k != 1 {
				t.Fatalf("tree %s attaches %s %d times", name, c, k)
			}
		}
	}
}

// Property: random sequences of transformations preserve the tree
// invariants — every component attached exactly once, the root's subtree
// covers all components, and every single-component covering equals its
// cell.
func TestPropertyTransformationsPreserveInvariants(t *testing.T) {
	// A sequence quick.Check once found: its ninth move, GroupCells(fedr,
	// mbus), wrapped the only two children of a cell with no components
	// of its own in a joint cell identical to it, so the root no longer
	// was the lowest cell covering everything.
	if !transformationsPreserveInvariants([]uint8{0x88, 0x28, 0xa2, 0xfc, 0x10, 0x94, 0xa3, 0x61, 0x01, 0x11, 0xf9, 0x9f}) {
		t.Fatal("the recorded sequence breaks an invariant")
	}
	if err := quick.Check(transformationsPreserveInvariants, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// transformationsPreserveInvariants applies up to 12 moves, each decoded
// from one byte, to tree II over the split components, skipping the moves
// the tree's shape refuses, and reports whether every component still has
// exactly one cell, is covered lowest by that cell, and the root is the
// lowest cell covering them all.
func transformationsPreserveInvariants(moves []uint8) bool {
	comps := []string{"mbus", "fedr", "pbcom", "ses", "str", "rtu"}
	t1, err := TrivialTree("p-I", comps)
	if err != nil {
		return false
	}
	tr, err := DepthAugment(t1, "p")
	if err != nil {
		return false
	}
	if len(moves) > 12 {
		moves = moves[:12]
	}
	for _, mv := range moves {
		a := comps[int(mv)%len(comps)]
		b := comps[int(mv/7)%len(comps)]
		var next *Tree
		switch mv % 4 {
		case 0:
			next, err = Consolidate(tr, "p", []string{a, b})
		case 1:
			next, err = GroupCells(tr, "p", a, b)
		case 2:
			next, err = Promote(tr, "p", a, b)
		case 3:
			next, err = Isolate(tr, "p", a)
		}
		if err != nil {
			continue // invalid move for this shape; skip
		}
		tr = next
	}
	// Invariants.
	seen := map[string]int{}
	var count func(n *Node)
	count = func(n *Node) {
		for _, c := range n.Components {
			seen[c]++
		}
		for _, ch := range n.Children {
			count(ch)
		}
	}
	count(tr.Root())
	if len(seen) != len(comps) {
		return false
	}
	for _, k := range seen {
		if k != 1 {
			return false
		}
	}
	if got := tr.Root().Subtree(); len(got) != len(comps) {
		return false
	}
	for _, c := range comps {
		cell, err := tr.CellOf(c)
		if err != nil {
			return false
		}
		cover, err := tr.LowestCovering([]string{c})
		if err != nil || cover != cell {
			return false
		}
	}
	cover, err := tr.LowestCovering(comps)
	if err != nil || cover != tr.Root() {
		return false
	}
	return true
}
