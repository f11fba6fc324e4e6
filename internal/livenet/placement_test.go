package livenet

import (
	"sort"
	"testing"
)

// leastLoadedOrder sorts ids in place by (load, id) ascending — the
// reference for the deterministic least-loaded spread, which the
// federation root applies to partitions (fedPartition.lighter) and
// internal/place to nodes.
func leastLoadedOrder(ids []int, load func(id int) int) []int {
	sort.Slice(ids, func(a, b int) bool {
		la, lb := load(ids[a]), load(ids[b])
		if la != lb {
			return la < lb
		}
		return ids[a] < ids[b]
	})
	return ids
}

// TestLeastLoadedOrderDeterministic pins the placement tie-break: equal
// loads order by ascending ID regardless of input order, so an idle
// cluster reproduces the classic sorted-prefix placement and two
// identical clusters place identical jobs identically — and the order
// the federation root sorts its partitions by is that reference order.
// (The pre-fix spread inherited Go's randomized map iteration through
// the caller and could differ run to run.)
func TestLeastLoadedOrderDeterministic(t *testing.T) {
	load := map[int]int{4: 1, 2: 0, 7: 1, 1: 0, 9: 2, 0: 0}
	perms := [][]int{
		{4, 2, 7, 1, 9, 0},
		{0, 1, 2, 4, 7, 9},
		{9, 7, 4, 2, 1, 0},
		{1, 9, 0, 4, 2, 7},
	}
	want := []int{0, 1, 2, 4, 7, 9} // loads 0,0,0 then 1,1 then 2 — ties by ID
	for _, perm := range perms {
		ids := append([]int(nil), perm...)
		got := leastLoadedOrder(ids, func(id int) int { return load[id] })
		parts := make([]*fedPartition, len(perm))
		for i, id := range perm {
			parts[i] = &fedPartition{id: id, load: load[id]}
		}
		sort.Slice(parts, func(a, b int) bool { return parts[a].lighter(parts[b]) })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("input %v: got %v, want %v", perm, got, want)
			}
			if parts[i].id != want[i] {
				t.Fatalf("input %v: partition order has %d at %d, want %d", perm, parts[i].id, i, want[i])
			}
		}
	}
}

// TestPlacementDeterministic checks the tie-break end to end: on an
// idle cluster the least-loaded pick is the sorted node-ID prefix,
// every time.
func TestPlacementDeterministic(t *testing.T) {
	mm, nms := startCluster(t, 6, MMConfig{})
	_ = nms
	for run := 0; run < 3; run++ {
		rep, err := SubmitJob(mm.Addr(), JobSpec{
			Name: "pd", BinaryBytes: 64 << 10, Nodes: 3, PEsPerNode: 1,
			Program: ProgramSpec{Kind: "exit"},
		})
		if err != nil {
			t.Fatal(err)
		}
		// The placed set is observable through which NMs hold the image.
		for i, nm := range nms {
			_, ok := nm.ImageDigest(rep.JobID)
			if want := i < 3; ok != want {
				t.Fatalf("run %d: node %d image presence %v, want %v (idle placement must be nodes 0..2)",
					run, nm.Node(), ok, want)
			}
		}
	}
}
