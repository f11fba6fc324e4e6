package chunkcache

import "os"

// Len returns the number of cached chunks; Size the bytes charged to the
// budget.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func (c *Cache) Size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// lruHashes reports the LRU order from front (most recent) to back as
// hash keys — test hook for pinning deterministic eviction.
func (c *Cache) lruHashes() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).key.hash)
	}
	return out
}

// Poison corrupts the stored bytes of a present entry in place (test
// hook for the corruption-fallback path). It reports whether the entry
// was found.
func (c *Cache) Poison(hash uint64, n int) bool {
	k := key{hash: hash, n: n}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return false
	}
	e := el.Value.(*entry)
	if e.path != "" {
		b, err := os.ReadFile(e.path)
		if err != nil || len(b) == 0 {
			return false
		}
		b[len(b)/2] ^= 0xff
		return os.WriteFile(e.path, b, 0o644) == nil
	}
	if len(e.data) == 0 {
		return false
	}
	e.data[len(e.data)/2] ^= 0xff
	return true
}
