package chunkcache

import (
	"runtime"
	"testing"
)

// owner counts its releases.
type owner struct{ released int }

func (o *owner) Release() { o.released++ }

// adoptChunk adopts a fresh copy of b under its key, charged cost, and
// returns the key and the owner of the adopted bytes.
func adoptChunk(c *Cache, b []byte, cost int64) (uint64, *owner) {
	h, o := Hash64(b), &owner{}
	c.Adopt(h, append([]byte(nil), b...), cost, o)
	return h, o
}

// TestAdoptReleasesOnce: every adopted owner is released exactly once —
// when its entry is evicted, or at once when the cache keeps no reference
// (key present, over budget, empty, a copy kept instead, disk-backed) —
// and never while its entry is resident; the budget is charged the cost
// given, not the length, and never exceeded.
func TestAdoptReleasesOnce(t *testing.T) {
	const n, cost = 64, 80 // a 64-byte chunk in an 80-byte allocation
	c, err := New(3*cost, "")
	if err != nil {
		t.Fatal(err)
	}
	var owners []*owner
	var hashes []uint64
	for i := 0; i < 3; i++ {
		h, o := adoptChunk(c, chunk(byte(i), n), cost)
		hashes, owners = append(hashes, h), append(owners, o)
	}
	if c.Len() != 3 || c.Size() != 3*cost {
		t.Fatalf("cache holds %d entries / %d bytes, want 3 / %d", c.Len(), c.Size(), 3*cost)
	}
	// A copy, charged its length, evicts the oldest adopted entry.
	put(c, chunk(9, n))
	if owners[0].released != 1 || c.Size() > 3*cost {
		t.Fatalf("evicted owner released %d times, size %d (budget %d)", owners[0].released, c.Size(), 3*cost)
	}

	// Key already present: the new owner goes back at once, the resident
	// one stays held.
	dup := &owner{}
	c.Adopt(hashes[2], chunk(2, n), cost, dup)
	if dup.released != 1 || owners[2].released != 0 {
		t.Fatalf("duplicate adopt: new owner released %d, resident owner %d; want 1, 0", dup.released, owners[2].released)
	}
	// Over budget and empty: nothing stored, released at once.
	big := &owner{}
	c.Adopt(Hash64(chunk(7, 4*n)), chunk(7, 4*n), 4*cost, big)
	empty := &owner{}
	c.Adopt(Hash64(nil), nil, 0, empty)
	if big.released != 1 || empty.released != 1 || c.Len() != 3 {
		t.Fatalf("over-budget owner released %d, empty %d, %d entries; want 1, 1, 3", big.released, empty.released, c.Len())
	}
	// A chunk in an allocation twice its size, or larger than the budget,
	// is kept as a copy charged its length: released at once, and stored.
	for _, alloc := range []int64{2 * n, 4 * cost} {
		h, o := adoptChunk(c, chunk(byte(alloc), n), alloc)
		if o.released != 1 || !c.Use(h, 0, n) || c.Size() > 3*cost {
			t.Fatalf("%d-byte allocation: owner released %d times, size %d; want 1 and a resident copy", alloc, o.released, c.Size())
		}
	}

	// Fill with new entries: every adopted owner is released exactly once
	// as it leaves, and none before.
	for i := 10; i < 40; i++ {
		h, o := adoptChunk(c, chunk(byte(i), n), cost)
		hashes, owners = append(hashes, h), append(owners, o)
		if c.Size() > 3*cost {
			t.Fatalf("size %d exceeds the %d budget", c.Size(), 3*cost)
		}
	}
	for i, o := range owners {
		resident, want := c.Use(hashes[i], 0, n), 1
		if resident {
			want = 0
		}
		if o.released != want {
			t.Fatalf("entry %d (resident %v) released %d times, want %d", i, resident, o.released, want)
		}
	}

	// An entry whose bytes no longer verify is evicted by Get, releasing
	// its owner.
	last := len(owners) - 1
	c.Poison(hashes[last], n)
	if c.Get(hashes[last], 0, n, make([]byte, n)) || owners[last].released != 1 {
		t.Fatalf("poisoned entry: owner released %d times, want 1 and a miss", owners[last].released)
	}
}

// TestAdoptDiskBacked: a disk-backed cache writes the adopted bytes to
// its file and releases the owner before Adopt returns; the entry is
// charged its length and reads back intact.
func TestAdoptDiskBacked(t *testing.T) {
	c, err := New(1<<20, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := chunk(3, 256)
	h, o := adoptChunk(c, b, 4096)
	if o.released != 1 {
		t.Fatalf("disk-backed adopt released its owner %d times, want 1", o.released)
	}
	dst := make([]byte, 256)
	if !c.Get(h, 0, 256, dst) || string(dst) != string(b) || c.Size() != 256 {
		t.Fatalf("disk-backed adopted entry: hit with %d bytes charged, want the chunk at 256", c.Size())
	}
}

// TestCacheAdoptAtCapacityAllocs: a memory-backed cache at capacity
// adopts a chunk by allocating its bookkeeping (an entry and a list
// element) and nothing else — no payload, and no per-adopt list of the
// owners it evicts.
func TestCacheAdoptAtCapacityAllocs(t *testing.T) {
	const size, resident, adopts = 64 << 10, 8, 200
	c, err := New(resident*size, "")
	if err != nil {
		t.Fatal(err)
	}
	data := chunk(0, size)
	owners := make([]owner, resident+adopts)
	for i := 0; i < resident; i++ {
		c.Adopt(uint64(i), data, size, &owners[i])
	}
	i := resident
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(adopts-1, func() {
		c.Adopt(uint64(i), data, size, &owners[i])
		i++
	})
	runtime.ReadMemStats(&after)
	if perAdopt := (after.TotalAlloc - before.TotalAlloc) / adopts; allocs > 2 || perAdopt > 512 {
		t.Fatalf("Adopt at capacity: %.0f allocs, %d B per adopt; want bookkeeping only (<= 2, <= 512 B)", allocs, perAdopt)
	}
	for j := range owners[:i-resident] {
		if owners[j].released != 1 {
			t.Fatalf("owner %d released %d times, want 1", j, owners[j].released)
		}
	}
	if got := c.Stats().Evictions; got != int64(i-resident) {
		t.Fatalf("evictions = %d, want %d", got, i-resident)
	}
}
