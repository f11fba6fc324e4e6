// Package chunkcache is a bounded, content-addressed store for binary
// chunks, the substrate of livenet's delta-transfer path. Entries are
// keyed by (XXH64, length): the hash that addresses a chunk in a
// transfer manifest, and the length the manifest gives it.
//
// Put, Get and Use take a uint32 after the hash that they ignore. It was
// the chunk's CRC-32, once part of the key; it stays in the signatures
// only because the benchmark harness (bench/layers.go) still passes it.
//
// The cache is deliberately paranoid on the read side: Get re-verifies
// the stored bytes against the key before handing them out. A corrupt or
// truncated entry — bit rot on the disk backing, a torn write — is
// evicted and reported as a miss, so the caller silently falls back to
// the wire. A cache can make a transfer cheaper; it must never be able
// to make an image wrong. (Two chunks of one length and one XXH64 share
// an entry: the manifest, which addresses chunks by the same pair,
// cannot tell them apart either.)
//
// Eviction is strict LRU under a byte budget, so the eviction order for
// a given access sequence is deterministic — a property the tests pin.
package chunkcache

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Stats is a snapshot of the cache's counters. BytesSaved is the total
// payload served from cache (bytes that did not cross the wire).
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	BytesSaved int64
}

type key struct {
	hash uint64
	n    int
}

type entry struct {
	key  key
	data []byte // in-memory copy; nil when the entry lives on disk
	path string // disk backing file; "" when in-memory
}

// Cache is a bounded LRU chunk store, safe for concurrent use. A zero
// byte budget disables storage entirely (every Get is a miss), which
// lets callers keep one code path whether caching is on or off.
type Cache struct {
	mu      sync.Mutex
	max     int64
	size    int64
	dir     string
	ll      *list.List // front = most recently used
	entries map[key]*list.Element

	hits, misses, evictions, saved atomic.Int64
}

// New builds a cache holding at most maxBytes of chunk payload. If dir
// is non-empty, entries are spilled to one file each under dir (created
// if needed) instead of held in memory; the byte budget applies either
// way.
func New(maxBytes int64, dir string) (*Cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("chunkcache: %w", err)
		}
	}
	return &Cache{
		max:     maxBytes,
		dir:     dir,
		ll:      list.New(),
		entries: make(map[key]*list.Element),
	}, nil
}

// Hash64 is XXH64 (seed 0): the fast non-crypto content hash that keys
// the cache and the transfer manifests. Hand-rolled so the wire format
// has no dependency beyond the standard library, and deterministic
// across processes and runs (unlike hash/maphash).
func Hash64(b []byte) uint64 {
	const (
		prime1 uint64 = 11400714785074694791
		prime2 uint64 = 14029467366897019727
		prime3 uint64 = 1609587929392839161
		prime4 uint64 = 9650029242287828579
		prime5 uint64 = 2870177450012600261
	)
	round := func(acc, in uint64) uint64 {
		return bits.RotateLeft64(acc+in*prime2, 31) * prime1
	}
	merge := func(acc, v uint64) uint64 {
		return (acc^round(0, v))*prime1 + prime4
	}
	n := uint64(len(b))
	var h uint64
	if len(b) >= 32 {
		v1 := prime1
		v1 += prime2
		v2 := prime2
		v3 := uint64(0)
		v4 := ^(prime1 - 1) // two's-complement -prime1
		for len(b) >= 32 {
			v1 = round(v1, binary.LittleEndian.Uint64(b))
			v2 = round(v2, binary.LittleEndian.Uint64(b[8:]))
			v3 = round(v3, binary.LittleEndian.Uint64(b[16:]))
			v4 = round(v4, binary.LittleEndian.Uint64(b[24:]))
			b = b[32:]
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = merge(h, v1)
		h = merge(h, v2)
		h = merge(h, v3)
		h = merge(h, v4)
	} else {
		h = prime5
	}
	h += n
	for len(b) >= 8 {
		h ^= round(0, binary.LittleEndian.Uint64(b))
		h = bits.RotateLeft64(h, 27)*prime1 + prime4
		b = b[8:]
	}
	if len(b) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(b)) * prime1
		h = bits.RotateLeft64(h, 23)*prime2 + prime3
		b = b[4:]
	}
	for _, c := range b {
		h ^= uint64(c) * prime5
		h = bits.RotateLeft64(h, 11) * prime1
	}
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

// Put stores a copy of data under its content key. A chunk larger than
// the whole budget is not stored; otherwise colder entries are evicted
// (back of the LRU first) until it fits. Re-putting a present key just
// refreshes its recency. A memory-backed cache at capacity copies into
// the buffer of an entry it just evicted instead of allocating: with
// same-size chunks (every chunk of an image but its tail) admission is
// allocation-free in steady state.
func (c *Cache) Put(hash uint64, _ uint32, data []byte) {
	n := int64(len(data))
	if n == 0 || n > c.max {
		return
	}
	k := key{hash: hash, n: len(data)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.ll.MoveToFront(el)
		return
	}
	var spare []byte
	for c.size+n > c.max {
		// Reuse only a buffer less than twice the size needed: the budget
		// counts payload bytes, so a small chunk parked in a large buffer
		// would let real memory outgrow it.
		if b := c.evictOldestLocked(); cap(b) >= len(data) && cap(b) < 2*len(data) {
			spare = b
		}
	}
	e := &entry{key: k}
	if c.dir != "" {
		path := filepath.Join(c.dir, fmt.Sprintf("%016x-%d.chunk", hash, len(data)))
		tmp, err := os.CreateTemp(c.dir, ".chunk-*")
		if err != nil {
			return
		}
		if _, err := tmp.Write(data); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return
		}
		if err := tmp.Close(); err != nil {
			os.Remove(tmp.Name())
			return
		}
		if err := os.Rename(tmp.Name(), path); err != nil {
			os.Remove(tmp.Name())
			return
		}
		e.path = path
	} else {
		e.data = append(spare[:0], data...)
	}
	c.entries[k] = c.ll.PushFront(e)
	c.size += n
}

// Get looks up a chunk by content key and, on a hit, copies its bytes
// into dst (which must be at least n long) after re-verifying them
// against the key. Any mismatch — wrong hash, short disk read — evicts
// the entry and returns a miss, so corruption degrades to a wire fetch,
// never into the image.
func (c *Cache) Get(hash uint64, _ uint32, n int, dst []byte) bool {
	k := key{hash: hash, n: n}
	c.mu.Lock()
	el, ok := c.entries[k]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return false
	}
	e := el.Value.(*entry)
	var data []byte
	if e.path != "" {
		// Read outside the view of other writers is fine: the file is
		// immutable once renamed into place. Hold the lock anyway — the
		// chunks are small and eviction racing the read is worse.
		b, err := os.ReadFile(e.path)
		if err != nil || len(b) != n {
			c.removeLocked(el)
			c.mu.Unlock()
			c.misses.Add(1)
			return false
		}
		data = b
	} else {
		data = e.data
	}
	if Hash64(data) != hash {
		c.removeLocked(el)
		c.mu.Unlock()
		c.misses.Add(1)
		return false
	}
	c.ll.MoveToFront(el)
	// Copy before unlocking: once the lock is released an eviction may
	// hand this entry's buffer to the next Put.
	copy(dst[:n], data)
	c.mu.Unlock()
	c.hits.Add(1)
	c.saved.Add(int64(n))
	return true
}

// Use reports whether a chunk can be served from the cache, charging a
// hit (and its bytes to the saved counter) without copying the bytes
// out — the probe behind memory-image delta assembly, where the image
// is never materialized and only the chunk's presence matters.
//
// Memory-backed entries are trusted by key alone: the entry's bytes
// matched (hash, length) when Put copied them into the private
// heap, which is exactly the acceptance check a wire chunk gets, so a
// key match here is as strong as a wire fetch. Disk-backed entries can
// rot or truncate after Put, so they are re-read and re-verified like
// Get; any mismatch evicts the entry and degrades to a miss.
func (c *Cache) Use(hash uint64, _ uint32, n int) bool {
	k := key{hash: hash, n: n}
	c.mu.Lock()
	el, ok := c.entries[k]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return false
	}
	e := el.Value.(*entry)
	if e.path != "" {
		b, err := os.ReadFile(e.path)
		if err != nil || len(b) != n || Hash64(b) != hash {
			c.removeLocked(el)
			c.mu.Unlock()
			c.misses.Add(1)
			return false
		}
	}
	c.ll.MoveToFront(el)
	c.mu.Unlock()
	c.hits.Add(1)
	c.saved.Add(int64(n))
	return true
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Evictions:  c.evictions.Load(),
		BytesSaved: c.saved.Load(),
	}
}

// Len returns the number of cached chunks; Size the payload bytes held.
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

// evictOldestLocked drops the least recently used entry and returns its
// in-memory buffer (nil for a disk-backed entry), which nothing
// references any more.
func (c *Cache) evictOldestLocked() []byte {
	el := c.ll.Back()
	if el == nil {
		return nil
	}
	c.removeLocked(el)
	c.evictions.Add(1)
	return el.Value.(*entry).data
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.entries, e.key)
	c.size -= int64(e.key.n)
	if e.path != "" {
		os.Remove(e.path)
	}
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
