package chunkcache

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// TestHash64Vectors pins the hand-rolled XXH64 against the reference
// implementation's published seed-0 vectors, covering every tail path
// (empty, <4, <8, <32, and the 32-byte stripe loop).
func TestHash64Vectors(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"as", 0x1c330fb2d66be179},
		{"asd", 0x631c37ce72a97393},
		{"asdf", 0x415872f599cea71e},
		{"Call me Ishmael. Some years ago--never mind how long precisely-", 0x02a2e85470d6fd96},
	}
	for _, tc := range cases {
		if got := Hash64([]byte(tc.in)); got != tc.want {
			t.Errorf("Hash64(%q) = %#016x, want %#016x", tc.in, got, tc.want)
		}
	}
}

func put(c *Cache, b []byte) uint64 {
	h := Hash64(b)
	c.Put(h, 0, b)
	return h
}

// chunk makes a distinguishable test chunk of n bytes.
func chunk(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag + byte(i*7)
	}
	return b
}

// TestLRUDeterministicEviction pins the eviction order under a size
// cap: strictly least-recently-used first, with Get and re-Put both
// refreshing recency, so the same access sequence always evicts the
// same entries.
func TestLRUDeterministicEviction(t *testing.T) {
	c, err := New(3*64, "")
	if err != nil {
		t.Fatal(err)
	}
	a, b, d := chunk(1, 64), chunk(2, 64), chunk(3, 64)
	ha := put(c, a)
	hb := put(c, b)
	hd := put(c, d)
	if c.Len() != 3 || c.Size() != 3*64 {
		t.Fatalf("cache holds %d entries / %d bytes, want 3 / 192", c.Len(), c.Size())
	}
	// Touch a: order (front to back) becomes a, d, b.
	dst := make([]byte, 64)
	if !c.Get(ha, 0, 64, dst) {
		t.Fatal("expected hit on a")
	}
	if got := c.lruHashes(); !reflect.DeepEqual(got, []uint64{ha, hd, hb}) {
		t.Fatalf("LRU order after Get(a) = %x, want [a d b]", got)
	}
	// Adding e must evict exactly b (the back).
	he := put(c, chunk(4, 64))
	if got := c.lruHashes(); !reflect.DeepEqual(got, []uint64{he, ha, hd}) {
		t.Fatalf("LRU order after eviction = %x, want [e a d]", got)
	}
	if c.Get(hb, 0, 64, dst) {
		t.Fatal("evicted entry must miss")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// A chunk bigger than the whole budget is refused, not thrashed in.
	c.Put(1, 2, make([]byte, 4*64))
	if c.Len() != 3 {
		t.Fatal("oversized chunk must not be stored")
	}
	// A multi-entry squeeze evicts from the back until it fits: adding a
	// 128-byte chunk evicts the two oldest (d then a).
	big := chunk(5, 128)
	hbig := put(c, big)
	if got := c.lruHashes(); !reflect.DeepEqual(got, []uint64{hbig, he}) {
		t.Fatalf("LRU order after squeeze = %x, want [big e]", got)
	}
}

// TestNoAliasing: same-length different-byte inputs — the shape a hash
// collision would take — must never serve one chunk for the other,
// because Get re-verifies content against the key.
func TestNoAliasing(t *testing.T) {
	c, err := New(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	a, b := chunk(10, 256), chunk(20, 256)
	ha := put(c, a)
	hb := put(c, b)
	if ha == hb {
		t.Fatal("test chunks accidentally hash-equal") // astronomically unlikely
	}
	dst := make([]byte, 256)
	if !c.Get(ha, 0, 256, dst) || string(dst) != string(a) {
		t.Fatal("a must round-trip")
	}
	if !c.Get(hb, 0, 256, dst) || string(dst) != string(b) {
		t.Fatal("b must round-trip")
	}
	// Force the alias shape directly: corrupt a's stored bytes so the
	// entry's key no longer matches its data (same length, different
	// bytes). Get must detect the mismatch, evict, and miss.
	if !c.Poison(ha, 256) {
		t.Fatal("poison failed")
	}
	if c.Get(ha, 0, 256, dst) {
		t.Fatal("poisoned entry must miss")
	}
	if c.Get(ha, 0, 256, dst) {
		t.Fatal("poisoned entry must have been evicted")
	}
}

// TestUse pins the no-copy probe: a memory hit is trusted by key (the
// bytes were verified against it at Put) and charges hit + bytes-saved
// stats; an absent key charges a miss; a poisoned disk entry is
// re-verified on every Use, evicted, and degrades to a miss.
func TestUse(t *testing.T) {
	c, err := New(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	a := chunk(3, 256)
	ha := put(c, a)
	if !c.Use(ha, 0, 256) {
		t.Fatal("memory entry must hit")
	}
	if c.Use(ha, 0, 128) {
		t.Fatal("wrong length must miss")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.BytesSaved != 256 {
		t.Fatalf("stats after hit+miss: %+v", st)
	}

	dir := t.TempDir()
	dc, err := New(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	hb := put(dc, a)
	if !dc.Use(hb, 0, 256) {
		t.Fatal("disk entry must hit")
	}
	if !dc.Poison(hb, 256) {
		t.Fatal("poison failed")
	}
	if dc.Use(hb, 0, 256) {
		t.Fatal("poisoned disk entry must miss: Use re-verifies disk bytes")
	}
	if dc.Len() != 0 {
		t.Fatal("poisoned disk entry must be evicted")
	}
}

// TestCorruptDiskEntryFallsBack poisons and truncates disk-backed
// entries and asserts Get/Use degrade to misses with the entry
// evicted — the cache-level half of the corrupt-cache satellite.
func TestCorruptDiskEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	c, err := New(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	a := chunk(7, 512)
	ha := put(c, a)
	dst := make([]byte, 512)
	if !c.Get(ha, 0, 512, dst) || string(dst) != string(a) {
		t.Fatal("disk entry must round-trip")
	}
	if !c.Poison(ha, 512) {
		t.Fatal("poison failed")
	}
	if c.Use(ha, 0, 512) {
		t.Fatal("poisoned disk entry must not be served")
	}
	if c.Get(ha, 0, 512, dst) {
		t.Fatal("poisoned disk entry must miss")
	}
	// Truncation: re-insert, then truncate the backing file.
	ha = put(c, a)
	path := filepath.Join(dir, fmt.Sprintf("%016x-%d.chunk", ha, len(a)))
	if err := writeFileTrunc(path, a[:100]); err != nil {
		t.Fatal(err)
	}
	if c.Get(ha, 0, 512, dst) {
		t.Fatal("truncated disk entry must miss")
	}
	if c.Len() != 0 {
		t.Fatalf("bad entries must be evicted, %d remain", c.Len())
	}
}

func writeFileTrunc(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}

// TestConcurrentReadersWriters hammers the cache from parallel
// goroutines (run under -race in CI): interleaved Put/Get/Use over
// an overlapping key set with eviction pressure.
func TestConcurrentReadersWriters(t *testing.T) {
	c, err := New(16*128, "")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	chunks := make([][]byte, 32)
	hashes := make([]uint64, 32)
	for i := range chunks {
		chunks[i] = chunk(byte(i), 128)
		hashes[i] = Hash64(chunks[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]byte, 128)
			for i := 0; i < 500; i++ {
				k := (i*7 + w*13) % len(chunks)
				switch i % 3 {
				case 0:
					c.Put(hashes[k], 0, chunks[k])
				case 1:
					if c.Get(hashes[k], 0, 128, dst) && string(dst) != string(chunks[k]) {
						t.Error("hit returned wrong bytes")
						return
					}
				case 2:
					c.Use(hashes[k], 0, 128)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Size() > 16*128 {
		t.Fatalf("size %d exceeds budget %d", c.Size(), 16*128)
	}
}

// TestZeroBudgetDisables: a zero-byte cache stores nothing and misses
// everything — the "caching off" configuration shares the code path.
func TestZeroBudgetDisables(t *testing.T) {
	c, err := New(0, "")
	if err != nil {
		t.Fatal(err)
	}
	a := chunk(1, 64)
	ha := put(c, a)
	if c.Len() != 0 {
		t.Fatal("zero-budget cache must not store")
	}
	if c.Get(ha, 0, 64, make([]byte, 64)) {
		t.Fatal("zero-budget cache must miss")
	}
}

// TestCachePutSteadyStateAllocs: a memory-backed cache at capacity
// admits same-size chunks into the buffers of the entries it evicts, so
// a Put allocates its bookkeeping (an entry and a list element) and no
// payload — and the copy is still private and intact.
func TestCachePutSteadyStateAllocs(t *testing.T) {
	const size, resident = 64 << 10, 8
	c, err := New(resident*size, "")
	if err != nil {
		t.Fatal(err)
	}
	data := chunk(0, size)
	admit := func(i int) uint64 {
		data[0], data[1] = byte(i), byte(i>>8) // new content, new key
		return put(c, data)
	}
	for i := 0; i < resident; i++ {
		admit(i)
	}
	const puts = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := resident; i < resident+puts; i++ {
		admit(i)
	}
	runtime.ReadMemStats(&after)
	if perPut := (after.TotalAlloc - before.TotalAlloc) / puts; perPut > 512 {
		t.Fatalf("Put at capacity allocates %d B/op, want bookkeeping only (<= 512 B, payload is %d)", perPut, size)
	}
	if got := c.Stats().Evictions; got != puts {
		t.Fatalf("evictions = %d, want %d (one per Put at capacity)", got, puts)
	}
	h := admit(resident + puts)
	data[0] ^= 0xff // the caller's buffer stays the caller's
	dst := make([]byte, size)
	if !c.Get(h, 0, size, dst) || dst[0] != byte(resident+puts) {
		t.Fatal("chunk admitted into a reused buffer did not read back intact")
	}
}

// TestCachePutReuseBounded: a small chunk never inherits a much larger
// evicted buffer, so the bytes the cache really holds stay within twice
// its payload budget whatever the mix of sizes.
func TestCachePutReuseBounded(t *testing.T) {
	const budget = 8 * 4096
	c, err := New(budget, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		n := []int{4096, 64, 3000, 1}[i%4]
		b := chunk(byte(i), n)
		b[0], b[n-1] = byte(i>>8), byte(i)
		put(c, b)
	}
	held := 0
	for _, el := range c.entries {
		held += cap(el.Value.(*entry).data)
	}
	if held > 2*budget {
		t.Fatalf("cache holds %d bytes of buffers under a %d-byte budget", held, budget)
	}
}

// FuzzCacheEntry replaces the file of a disk-backed entry with arbitrary
// bytes — rot, truncation, a torn or foreign write — and holds each read
// path to the cache's promise: Get and Use serve the entry only if the
// bytes on disk are the chunk (Get copying out exactly those), and
// otherwise they miss. Neither panics.
func FuzzCacheEntry(f *testing.F) {
	chunk := []byte("content-addressed chunk bytes, verified on every disk read")
	f.Add(chunk)
	f.Add(chunk[:len(chunk)-1])
	f.Add(append(append([]byte(nil), chunk...), 0))
	flipped := append([]byte(nil), chunk...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, disk []byte) {
		h, n := Hash64(chunk), len(chunk)
		intact := string(disk) == string(chunk)
		c, err := New(1<<20, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, n)
		for _, read := range []struct {
			name string
			hit  func() bool
		}{
			{"Get", func() bool {
				hit := c.Get(h, 0, n, dst)
				if hit && string(dst) != string(chunk) {
					t.Fatalf("Get served %q for the chunk", dst)
				}
				return hit
			}},
			{"Use", func() bool { return c.Use(h, 0, n) }},
		} {
			c.Put(h, 0, chunk)
			el := c.entries[key{hash: h, n: n}]
			if err := os.WriteFile(el.Value.(*entry).path, disk, 0o644); err != nil {
				t.Fatal(err)
			}
			if hit := read.hit(); hit != intact {
				t.Fatalf("%s hit=%v on %d disk bytes (intact=%v)", read.name, hit, len(disk), intact)
			}
			if !intact && c.Len() != 0 {
				t.Fatalf("%s kept an entry whose disk bytes do not verify", read.name)
			}
		}
	})
}
