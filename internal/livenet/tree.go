package livenet

// The forwarding tree — the one software emulation of the paper's
// hardware collectives (§4 "Portability"): commodity networks have no
// multicast, so XFER-AND-SIGNAL to a node set becomes a k-ary relay tree
// over that set and COMPARE-AND-WRITE becomes the fold of answers back up
// it. The MM writes to its tree children only; every interior NM handles
// the frame locally and relays the same buffer to its own children, so
// per-hop fan-out is bounded by the tree degree and depth is O(log_k n) —
// the reason the paper's launch curves stay flat in node count. Every
// tree in live mode — each stripe of a job's bulk plane, at launch and at
// replan, and the cluster-wide control tree — is laid by layTree below,
// and nothing outside this file knows the layout.
//
// Layout: the MM is heap index 0 of a k-ary heap and the positions
// 0..n-1 of an ordered node set occupy heap indices 1..n. Children of
// heap index h are h·k+1 … h·k+k, so position p relays to positions
// (p+1)·k … (p+1)·k+k-1, clipped to n; its parent is position p/k - 1,
// which is -1 — the MM — for the first k positions. A heap fills level by
// level, so the interior positions are a prefix of the order and the last
// position sits on the deepest level.
//
// Flat degenerate case: a fanout of 1 or less (or one no smaller than n)
// makes the degree n, which puts every position on the first level: the
// MM unicasts to all of them and nobody relays.
//
// Rotation (SplitStream-style striping): a k-stripe plan lays k trees
// over the same nodes, stripe s taking the placement order cyclically
// shifted by s·n/k, so each node is interior in ~1/k of the trees and
// aggregate delivery drives k uplinks per node instead of one. Because
// the interior positions are a prefix, shifting by n/k per stripe keeps
// the interior sets (nearly) disjoint — n=16, k=2, fanout=2 puts nodes
// 0..6 interior in stripe 0 and nodes 8..14 in stripe 1. Chunks
// interleave round-robin: chunk i travels stripe i%k and is the stripe's
// (i/k)-th, which keeps each stripe's cumulative-ack and replay
// arithmetic identical to the single-tree plan's.

// treePos is one position of a laid tree.
type treePos struct {
	kids []int // positions this one relays to; empty for a leaf
	// subtree is the node IDs at and below this position in DFS pre-order:
	// itself, then each kid's subtree in kid order. That is the set an
	// aggregated answer from here vouches for, and its order is the bit
	// layout of the control tree's pong ledger — a node's bitmap is
	// [self] ++ kid₁'s bitmap ++ kid₂'s bitmap ..., so a parent folds a
	// kid's bitmap into its own with one shift by the kid's running offset.
	subtree []int
	// pre is the position's index in the tree's pre-order: the MM's
	// children in turn, each followed by its subtree. Over a tree laid on
	// a job's survivors it is a dense index of them, the launch's ranks.
	pre int
}

// treeKid is one direct child of the MM in a laid tree: where the MM
// writes, the child's position, and the nodes whose answers come back
// folded into this one's.
type treeKid struct {
	link    *nmLink
	pos     int
	subtree []int
}

// laidTree is a forwarding tree over an ordered node set: order[p] is the
// node at position p.
type laidTree struct {
	order []*nmLink
	pos   []treePos
	kids  []treeKid // the MM's direct children, positions 0..len(kids)-1
	depth int       // relay hops from the MM to the deepest position
}

// heapDegree is the degree the tree over n positions is laid with: the
// configured fanout, or n — the flat fan-out — when that is 1 or less or
// would not leave a second level anyway.
func heapDegree(n, fanout int) int {
	if fanout > 1 && fanout < n {
		return fanout
	}
	return max(n, 1)
}

// treeDepth is the number of relay hops from the MM to the last of n
// positions (1 for the flat fan-out, 0 for no positions).
func treeDepth(n, fanout int) int {
	k := heapDegree(n, fanout)
	depth := 0
	for p := n - 1; p >= 0; p = p/k - 1 {
		depth++
	}
	return depth
}

// layTree lays the forwarding tree over order (which it keeps, not
// copies). Positions are walked last to first: a heap child's index is
// larger than its parent's, so every subtree is complete before the
// position above it needs it.
func layTree(order []*nmLink, fanout int) laidTree {
	n := len(order)
	k := heapDegree(n, fanout)
	t := laidTree{order: order, pos: make([]treePos, n), depth: treeDepth(n, fanout)}
	for p := n - 1; p >= 0; p-- {
		tp := &t.pos[p]
		tp.subtree = []int{order[p].node}
		for c := (p + 1) * k; c < (p+2)*k && c < n; c++ {
			tp.kids = append(tp.kids, c)
			tp.subtree = append(tp.subtree, t.pos[c].subtree...)
		}
	}
	// Pre-order, top down: a position's first kid follows it, and each
	// later kid follows the earlier kids' subtrees (ledgerLocked's offsets).
	pre := 0
	for p := 0; p < k && p < n; p++ {
		t.kids = append(t.kids, treeKid{link: order[p], pos: p, subtree: t.pos[p].subtree})
		t.pos[p].pre = pre
		pre += len(t.pos[p].subtree)
	}
	for p := range t.pos {
		pre := t.pos[p].pre + 1
		for _, c := range t.pos[p].kids {
			t.pos[c].pre = pre
			pre += len(t.pos[c].subtree)
		}
	}
	return t
}

// below lists position p's descendants in pre-order, each with its relay
// address and the size of its own subtree: the Tree of the manifest, or
// of the control plan, the node at p is sent.
func (t *laidTree) below(p int) []TreeNode {
	var out []TreeNode
	var walk func(p int)
	walk = func(p int) {
		for _, c := range t.pos[p].kids {
			out = append(out, TreeNode{Node: t.order[c].node, Addr: t.order[c].addr, Size: len(t.pos[c].subtree)})
			walk(c)
		}
	}
	walk(p)
	return out
}

// stripeOrder is stripe s's node order in a k-stripe plan: the placement
// order shifted cyclically by s·n/k.
func stripeOrder(nodes []*nmLink, s, k int) []*nmLink {
	n := len(nodes)
	order := make([]*nmLink, n)
	for q := range order {
		order[q] = nodes[(q+stripeRotation(s, k, n))%n]
	}
	return order
}

// stripeRotation returns stripe s's cyclic shift of the placement order
// in a k-stripe plan over n nodes.
func stripeRotation(s, k, n int) int {
	if k <= 1 || n <= 0 {
		return 0
	}
	return s * n / k
}

// stripePrefix extends from, a count of stripe s's leading chunks that
// bits holds in stripe-local order (chunk s+j·k is the stripe's j-th),
// across every further chunk bits holds up to the stripe's first gap:
// the cumulative credit a ledger of the chunks in place vouches for on
// that stripe.
func stripePrefix(bits []uint64, nchunks, s, k, from int) int {
	for s+from*k < nchunks && maskGet(bits, s+from*k) {
		from++
	}
	return from
}

// stripeChunks returns how many of an image's nchunks chunks travel
// stripe s under the round-robin interleave (chunk i → stripe i%k).
func stripeChunks(nchunks, s, k int) int {
	if k <= 1 {
		return nchunks
	}
	if s >= nchunks {
		return 0
	}
	return (nchunks - s + k - 1) / k
}
