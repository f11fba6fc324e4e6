package livenet

import (
	"testing"
	"time"

	"repro/internal/livenet/chunkcache"
)

// TestCacheAdoptedFramesIntact: NMs' chunk caches hold the frames their
// fragments arrived in, not copies, so a frame handed back to the pool
// while a cache still references it would be overwritten by the next
// fragment received into it. Twenty cold striped launches through caches
// smaller than two images (so every launch evicts) must leave (a) every
// resident entry hashing to its key, and (b) every chunk an NM acked in
// its cache after the launch.
func TestCacheAdoptedFramesIntact(t *testing.T) {
	const n, launches, image = 8, 20, 512 << 10
	cfg := MMConfig{Fanout: 2, Stripes: 2, FragBytes: 32 << 10, AckTimeout: 2 * time.Second}
	// 16 chunks of 32 KiB, each in a 40 KiB frame: 640 KiB charged an image.
	mm, nms, _ := chaosCluster(t, n, cfg, func(int) NMConfig { return NMConfig{CacheBytes: 1 << 20} })
	type chunkKey struct {
		hash uint64
		size int
	}
	var seen []chunkKey
	for l := 0; l < launches; l++ {
		spec := JobSpec{Name: "adopt", BinaryBytes: image, Nodes: n, PEsPerNode: 1,
			ImageSeed: uint64(l + 1), Program: ProgramSpec{Kind: "exit"}}
		if _, err := SubmitJob(mm.Addr(), spec); err != nil {
			t.Fatalf("launch %d: %v", l, err)
		}
		var acked []chunkKey
		for i := 0; i < image/cfg.FragBytes; i++ {
			b := make([]byte, chunkSizeFor(&spec, cfg.FragBytes, i))
			fillChunkInto(&spec, 0, i, b)
			acked = append(acked, chunkKey{chunkcache.Hash64(b), len(b)})
		}
		seen = append(seen, acked...)
		for _, nm := range nms {
			for _, k := range seen {
				// Use finds a resident memory entry by key alone; Get
				// re-hashes its bytes and misses if they changed.
				if nm.cache.Use(k.hash, 0, k.size) && !nm.cache.Get(k.hash, 0, k.size, make([]byte, k.size)) {
					t.Fatalf("launch %d: node %d holds chunk %016x with other bytes", l, nm.Node(), k.hash)
				}
			}
			for i, k := range acked {
				if !nm.cache.Use(k.hash, 0, k.size) {
					t.Fatalf("launch %d: node %d acked chunk %d but does not cache it", l, nm.Node(), i)
				}
			}
		}
	}
	for _, nm := range nms {
		if st, _ := nm.CacheStats(); st.Evictions == 0 {
			t.Fatalf("node %d never evicted: the cache must be smaller than two images", nm.Node())
		}
	}
}
