package livenet

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// The reference layout: the k-ary-heap helpers production code used
// before layTree owned the layout, kept here verbatim as the independent
// statement the laid trees are checked against (and for tests that pick
// victims by tree role).

// mmChildren returns the positions the MM streams to directly: all of
// them for the flat fan-out, the first min(fanout, n) positions for a
// tree.
func mmChildren(n, fanout int) []int {
	if n <= 0 {
		return nil
	}
	k := n
	if fanout > 1 && fanout < n {
		k = fanout
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}

// nodeChildren returns the positions that position pos relays to (empty
// for leaves and for the flat fan-out).
func nodeChildren(pos, n, fanout int) []int {
	if fanout <= 1 {
		return nil
	}
	first := (pos + 1) * fanout
	if first >= n {
		return nil
	}
	last := first + fanout
	if last > n {
		last = n
	}
	out := make([]int, 0, last-first)
	for p := first; p < last; p++ {
		out = append(out, p)
	}
	return out
}

// subtreeNodes returns pos plus every position below it in the tree, in
// BFS order.
func subtreeNodes(pos, n, fanout int) []int {
	out := []int{pos}
	for i := 0; i < len(out); i++ {
		out = append(out, nodeChildren(out[i], n, fanout)...)
	}
	return out
}

// subtreePreorder returns pos's subtree in DFS pre-order: pos itself
// first, then each child's subtree recursively in child order.
func subtreePreorder(pos, n, fanout int) []int {
	out := []int{pos}
	for _, c := range nodeChildren(pos, n, fanout) {
		out = append(out, subtreePreorder(c, n, fanout)...)
	}
	return out
}

// stripeNodeAt maps tree position q of stripe s to a node index in the
// job's placement order; stripePosOf is the inverse map.
func stripeNodeAt(q, s, k, n int) int { return (q + stripeRotation(s, k, n)) % n }

func stripePosOf(idx, s, k, n int) int { return (idx - stripeRotation(s, k, n) + n) % n }

// testLinks is an ordered node set whose node at position p is p, so a
// laid tree's node IDs read as positions.
func testLinks(n int) []*nmLink {
	links := make([]*nmLink, n)
	for i := range links {
		links[i] = &nmLink{node: i, addr: fmt.Sprintf("addr-%d", i)}
	}
	return links
}

// TestLayTree is the property test of the one layout function, over
// every n in 1..70 and fanouts 1, 2, 3, 4, 8: every position has exactly
// one parent (the MM or a position that lists it as a kid), the MM's
// kids' subtrees partition the node set, every subtree is the reference
// pre-order with each kid's block at the offset ledgerLocked folds it at,
// each position's pre is its index in the whole tree's pre-order (the
// launch's dense index), the refs and the manifest's tree name the kids,
// and the depth is the longest parent chain.
func TestLayTree(t *testing.T) {
	for n := 1; n <= 70; n++ {
		for _, fanout := range []int{1, 2, 3, 4, 8} {
			name := fmt.Sprintf("n=%d fanout=%d", n, fanout)
			tree := layTree(testLinks(n), fanout)
			if len(tree.pos) != n {
				t.Fatalf("%s: %d positions laid", name, len(tree.pos))
			}

			// parent[p] is the position that lists p as a kid, -1 for the
			// MM; parents counts how many do.
			parent := make([]int, n)
			parents := make([]int, n)
			for p, tp := range tree.pos {
				if want := nodeChildren(p, n, fanout); !reflect.DeepEqual(tp.kids, want) {
					t.Fatalf("%s: position %d relays to %v, reference says %v", name, p, tp.kids, want)
				}
				for _, c := range tp.kids {
					parents[c]++
					parent[c] = p
					if c <= p {
						t.Fatalf("%s: position %d is a kid of %d, which is not above it", name, c, p)
					}
				}
			}
			roots := mmChildren(n, fanout)
			if len(tree.kids) != len(roots) {
				t.Fatalf("%s: MM has %d kids, reference says %d", name, len(tree.kids), len(roots))
			}
			for i, p := range roots {
				parents[p]++
				parent[p] = -1
				if tree.kids[i].link != tree.order[p] || tree.kids[i].pos != p {
					t.Fatalf("%s: MM kid %d is not position %d", name, i, p)
				}
			}
			for p, c := range parents {
				if c != 1 {
					t.Fatalf("%s: position %d has %d parents", name, p, c)
				}
			}

			seen := make(map[int]int)
			for _, kid := range tree.kids {
				for _, node := range kid.subtree {
					seen[node]++
				}
			}
			if len(seen) != n {
				t.Fatalf("%s: the MM's kids vouch for %d nodes, want %d", name, len(seen), n)
			}
			for node, c := range seen {
				if c != 1 {
					t.Fatalf("%s: node %d is in %d of the MM's kids' subtrees", name, node, c)
				}
			}
			var preorder []int // the MM's kids' subtrees end to end
			for _, kid := range tree.kids {
				preorder = append(preorder, kid.subtree...)
			}
			for i, node := range preorder {
				if tree.pos[node].pre != i {
					t.Fatalf("%s: position %d has pre-order index %d, want %d", name, node, tree.pos[node].pre, i)
				}
			}

			depth := 0
			for p, tp := range tree.pos {
				if want := subtreePreorder(p, n, fanout); !reflect.DeepEqual(tp.subtree, want) {
					t.Fatalf("%s: position %d subtree %v, reference pre-order %v", name, p, tp.subtree, want)
				}
				// The manifest's and the control plan's tree for p is the same
				// pre-order below p, each entry sized by its own subtree, and
				// splits into p's kids.
				below := tree.below(p)
				if len(below) != len(tp.subtree)-1 {
					t.Fatalf("%s: position %d: %d entries below it, subtree %v", name, p, len(below), tp.subtree)
				}
				for i, e := range below {
					if e.Node != tp.subtree[i+1] || e.Addr != tree.order[e.Node].addr || e.Size != len(tree.pos[e.Node].subtree) {
						t.Fatalf("%s: position %d: entry %d is %+v", name, p, i, e)
					}
				}
				// ledgerLocked folds kid i's bitmap at 1 + the sizes of the
				// kids before it (onCtlPlan's running offset).
				split := splitTree(below)
				if len(split) != len(tp.kids) {
					t.Fatalf("%s: position %d: tree splits into %d kids, want %d", name, p, len(split), len(tp.kids))
				}
				off := 1
				for i, c := range tp.kids {
					if tp.subtree[off] != c || split[i][0].Node != c || len(split[i]) != len(tree.pos[c].subtree) {
						t.Fatalf("%s: position %d: kid %d (%d) at offset %d splits as %v", name, p, i, c, off, split[i])
					}
					off += len(split[i])
				}
				if off != len(tp.subtree) {
					t.Fatalf("%s: position %d: kid blocks cover %d of %d slots", name, p, off, len(tp.subtree))
				}
				hops := 1
				for q := parent[p]; q >= 0; q = parent[q] {
					hops++
				}
				if hops > depth {
					depth = hops
				}
			}
			if tree.depth != depth || treeDepth(n, fanout) != depth {
				t.Fatalf("%s: depth %d (treeDepth %d), longest parent chain %d", name, tree.depth, treeDepth(n, fanout), depth)
			}

			if fanout == 1 {
				for p, tp := range tree.pos {
					if parent[p] != -1 || len(tp.kids) != 0 {
						t.Fatalf("%s: flat position %d has parent %d, kids %v — the flat fan-out has a relay", name, p, parent[p], tp.kids)
					}
				}
			}
		}
	}
}

// TestTreePartition: for any (n, fanout), the MM's subtrees partition
// the positions 0..n-1 — every node receives the binary exactly once.
func TestTreePartition(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 16, 17, 64} {
		for _, fanout := range []int{1, 2, 3, 4, 8} {
			seen := map[int]int{}
			for _, kid := range layTree(testLinks(n), fanout).kids {
				for _, p := range kid.subtree {
					seen[p]++
				}
			}
			if len(seen) != n {
				t.Fatalf("n=%d fanout=%d: %d positions covered, want %d", n, fanout, len(seen), n)
			}
			for p, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d fanout=%d: position %d covered %d times", n, fanout, p, c)
				}
				if p < 0 || p >= n {
					t.Fatalf("n=%d fanout=%d: position %d out of range", n, fanout, p)
				}
			}
		}
	}
}

// TestTreeFlatDegenerates: fanout 1 is the flat fan-out — the MM streams
// to everyone and nobody relays.
func TestTreeFlatDegenerates(t *testing.T) {
	n := 9
	tree := layTree(testLinks(n), 1)
	if len(tree.kids) != n {
		t.Fatalf("flat MM kids = %d", len(tree.kids))
	}
	for p := 0; p < n; p++ {
		if kids := tree.pos[p].kids; len(kids) != 0 {
			t.Fatalf("flat node %d has children %v", p, kids)
		}
	}
	if d := treeDepth(n, 1); d != 1 {
		t.Fatalf("flat depth = %d", d)
	}
}

// TestTreeLogDepth: the binomial/k-ary tree keeps depth logarithmic —
// the property that makes broadcast cost O(log n) instead of O(n).
func TestTreeLogDepth(t *testing.T) {
	cases := []struct{ n, fanout, maxDepth int }{
		{16, 2, 4},
		{64, 2, 6},
		{64, 4, 3},
		{256, 4, 4},
		{2, 2, 1},
	}
	for _, c := range cases {
		if d := treeDepth(c.n, c.fanout); d > c.maxDepth {
			t.Errorf("treeDepth(%d, %d) = %d, want <= %d", c.n, c.fanout, d, c.maxDepth)
		}
	}
}

// TestTreeChildrenShape: spot-check the heap layout.
func TestTreeChildrenShape(t *testing.T) {
	// n=7, k=2: MM -> {0,1}; 0 -> {2,3}; 1 -> {4,5}; 2 -> {6}.
	tree := layTree(testLinks(7), 2)
	if len(tree.kids) != 2 || tree.kids[0].link.node != 0 || tree.kids[1].link.node != 1 {
		t.Fatalf("MM kids of (7,2) = %+v", tree.kids)
	}
	for p, want := range map[int][]int{0: {2, 3}, 1: {4, 5}, 2: {6}} {
		if got := tree.pos[p].kids; !reflect.DeepEqual(got, want) {
			t.Fatalf("kids of position %d in (7,2) = %v, want %v", p, got, want)
		}
	}
	sub := append([]int(nil), tree.pos[0].subtree...)
	sort.Ints(sub)
	if !reflect.DeepEqual(sub, []int{0, 2, 3, 6}) {
		t.Fatalf("subtree of position 0 in (7,2) = %v", sub)
	}
}
