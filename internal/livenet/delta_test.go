package livenet

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/livenet/chunkcache"
	"repro/internal/livenet/faultconn"
	"repro/internal/livenet/wire"
)

// deltaMMConfig mirrors chaosMMConfig: 1 MiB image in 32 chunks of
// 32 KiB, binary tree.
func deltaMMConfig() MMConfig {
	return MMConfig{
		Fanout:     2,
		FragBytes:  32 << 10,
		AckTimeout: 2 * time.Second,
	}
}

// deltaSpec is a seeded (content-addressed) job over the shared chaos
// image size, so chunk content — and therefore the caches — carry across
// job IDs.
func deltaSpec(n int, seed uint64, patch map[int]uint64) JobSpec {
	return JobSpec{
		Name: "delta", BinaryBytes: chaosBinary, Nodes: n, PEsPerNode: 1,
		ImageSeed: seed, ImagePatch: patch,
		Program: ProgramSpec{Kind: "exit"},
	}
}

// TestManifestCodecRoundTrip pins the wire layout of the delta frames —
// the manifest with the subtree it installs, and the HAVE ledger —
// through a full encode/decode cycle.
func TestManifestCodecRoundTrip(t *testing.T) {
	man := &Manifest{Job: 7, Epoch: 2, Stripe: 1, Stripes: 2, ChunkBytes: 32 << 10,
		TotalBytes: 99_001, Hashes: []uint64{1, 1 << 63, 42},
		Tree: []TreeNode{{Node: 4, Addr: "a:1", Size: 2}, {Node: 9, Addr: "b:2", Size: 1}, {Node: 5, Addr: "c:3", Size: 1}}}
	have := &Have{Job: 7, Node: 5, Epoch: 2, Bits: []uint64{0b101, 1 << 40}}

	var buf bytes.Buffer
	cc := &conn{w: bufio.NewWriter(&buf)}
	if sendAll(cc, Message{Manifest: man}, Message{Have: have}) != nil {
		t.Fatal("encode failed")
	}
	dc := &conn{r: bufio.NewReader(&buf)}
	m1, err := dc.recv()
	if err != nil || m1.Manifest == nil {
		t.Fatalf("manifest decode: %v", err)
	}
	got := m1.Manifest
	if got.Job != 7 || got.Epoch != 2 || got.Stripe != 1 || got.Stripes != 2 || got.ChunkBytes != 32<<10 ||
		got.TotalBytes != 99_001 ||
		len(got.Hashes) != 3 || got.Hashes[1] != 1<<63 || got.Hashes[2] != 42 ||
		len(got.Tree) != 3 || got.Tree[0] != man.Tree[0] || got.Tree[2] != man.Tree[2] {
		t.Fatalf("manifest mangled: %+v", got)
	}
	kids := splitTree(got.Tree)
	if len(kids) != 2 || len(kids[0]) != 2 || kids[0][1].Node != 9 || len(kids[1]) != 1 || kids[1][0].Node != 5 {
		t.Fatalf("tree splits into %v, want [[4 9] [5]]", kids)
	}
	m2, err := dc.recv()
	if err != nil || m2.Have == nil || m2.Have.Node != 5 || len(m2.Have.Bits) != 2 ||
		m2.Have.Bits[0] != 0b101 || m2.Have.Bits[1] != 1<<40 {
		t.Fatalf("have mangled: %+v (%v)", m2.Have, err)
	}
}

// TestManifestAllocs pins the delta round's frames at zero steady-state
// allocations per frame in both directions — a leaf's manifest (its
// tree is empty; an interior node's carries peer address strings) and a
// HAVE ledger: the shared tail pool's grown-once scratch must absorb the
// variable-length tails.
func TestManifestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool puts at random; the pooled tail scratch cannot hold alloc exactness (enforced by the non-race CI step)")
	}
	man := &Manifest{Job: 7, Epoch: 2, Stripes: 1, ChunkBytes: 32 << 10,
		TotalBytes: 1 << 20, Hashes: make([]uint64, 32)}
	have := &Have{Job: 7, Node: 5, Epoch: 2, Bits: []uint64{0b101}}

	ec := discardConn()
	encode := func() {
		if sendAll(ec, Message{Manifest: man}, Message{Have: have}) != nil {
			t.Fatal("send failed")
		}
	}
	encode() // grow the tail scratch once
	if avg := testing.AllocsPerRun(200, encode); avg != 0 {
		t.Fatalf("delta encode allocates %.2f/op, want 0", avg)
	}

	var buf bytes.Buffer
	cc := &conn{w: bufio.NewWriter(&buf)}
	if sendAll(cc, Message{Manifest: man}, Message{Have: have}) != nil {
		t.Fatal("capture failed")
	}
	wire := append([]byte(nil), buf.Bytes()...)
	br := bytes.NewReader(wire)
	dc := &conn{r: bufio.NewReader(br)}
	decode := func() {
		br.Reset(wire)
		dc.r.Reset(br)
		for i := 0; i < 2; i++ {
			m, err := dc.recv()
			if err != nil {
				t.Fatal(err)
			}
			switch i {
			case 0:
				if m.Manifest == nil || len(m.Manifest.Hashes) != 32 || m.Manifest.TotalBytes != 1<<20 {
					t.Fatal("manifest mangled")
				}
			case 1:
				if m.Have == nil || m.Have.Bits[0] != 0b101 {
					t.Fatal("have mangled")
				}
			}
		}
	}
	decode() // grow the decode scratch once
	if avg := testing.AllocsPerRun(200, decode); avg != 0 {
		t.Fatalf("delta decode allocates %.2f/op, want 0", avg)
	}
}

// TestDeltaWarmAndPatchedRelaunch is the tentpole's unit-level
// acceptance: a cold seeded launch populates every NM's chunk cache; an
// unchanged relaunch streams zero chunks (the whole image is served from
// caches, at near-control-plane egress); a one-chunk rebuild streams
// exactly that chunk, costing at most fanout copies of its payload.
func TestDeltaWarmAndPatchedRelaunch(t *testing.T) {
	const n = 8
	cfg := deltaMMConfig()
	frags := chaosBinary / cfg.FragBytes
	mm, nms, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
		return NMConfig{CacheBytes: 8 << 20}
	})

	// Cold: everything streams, nothing saved.
	repA, err := SubmitJob(mm.Addr(), deltaSpec(n, 0xfeed, nil))
	if err != nil {
		t.Fatal(err)
	}
	if repA.Chunks != frags || repA.ChunksSent != frags || repA.BytesSaved != 0 {
		t.Fatalf("cold launch: chunks=%d sent=%d saved=%d, want %d/%d/0",
			repA.Chunks, repA.ChunksSent, repA.BytesSaved, frags, frags)
	}
	refDigest, ok := nms[0].ImageDigest(repA.JobID)
	if !ok {
		t.Fatal("node 0 has no image for the cold job")
	}

	// Warm: identical image, zero chunks on the wire. Both MM-direct
	// subtrees are served entirely from caches.
	repB, err := SubmitJob(mm.Addr(), deltaSpec(n, 0xfeed, nil))
	if err != nil {
		t.Fatal(err)
	}
	if repB.ChunksSent != 0 {
		t.Fatalf("warm relaunch streamed %d chunks, want 0", repB.ChunksSent)
	}
	if want := int64(2 * chaosBinary); repB.BytesSaved != want {
		t.Fatalf("warm relaunch saved %d bytes, want %d (2 subtrees x image)", repB.BytesSaved, want)
	}
	if repB.SendBytes > 64<<10 {
		t.Fatalf("warm relaunch cost %d egress bytes, want control-plane-sized (<64KiB)", repB.SendBytes)
	}
	for _, nm := range nms {
		d, ok := nm.ImageDigest(repB.JobID)
		if !ok || d != refDigest {
			t.Fatalf("node %d warm image digest %+v (ok=%v), want %+v", nm.Node(), d, ok, refDigest)
		}
	}

	// One-chunk rebuild: exactly one chunk in the union, at most two
	// chunk payloads (one per MM subtree) plus control frames on the wire.
	repC, err := SubmitJob(mm.Addr(), deltaSpec(n, 0xfeed, map[int]uint64{5: 0xbeef}))
	if err != nil {
		t.Fatal(err)
	}
	if repC.ChunksSent != 1 {
		t.Fatalf("1-chunk delta streamed %d chunks, want 1", repC.ChunksSent)
	}
	if limit := int64(2*cfg.FragBytes + 64<<10); repC.SendBytes > limit {
		t.Fatalf("1-chunk delta cost %d egress bytes, want <=%d (2 chunk payloads + control)",
			repC.SendBytes, limit)
	}
	var patched ImageDigest
	for i, nm := range nms {
		d, ok := nm.ImageDigest(repC.JobID)
		if !ok {
			t.Fatalf("node %d has no image for the patched job", nm.Node())
		}
		if d == refDigest {
			t.Fatalf("node %d patched image digest equals the unpatched image", nm.Node())
		}
		if i == 0 {
			patched = d
		} else if d != patched {
			t.Fatalf("node %d patched digest %+v differs from node 0's %+v", nm.Node(), d, patched)
		}
	}
	// Cache counters flowed: every NM served the warm launches from cache.
	for _, nm := range nms {
		st, enabled := nm.CacheStats()
		if !enabled || st.Hits == 0 || st.BytesSaved == 0 {
			t.Fatalf("node %d cache stats %+v (enabled=%v), want hits", nm.Node(), st, enabled)
		}
	}
}

// TestDeltaPoisonedCacheFallsBack is the corrupt-cache satellite: a
// disk-backed cache entry is poisoned between launches. The relaunch must
// not advertise the bad chunk (Get re-verifies at splice time), fetch it
// over the wire instead, and commit a byte-identical image — with no
// replan, because corruption in a cache is a miss, not a fault.
func TestDeltaPoisonedCacheFallsBack(t *testing.T) {
	const n = 4
	cfg := deltaMMConfig()
	frags := chaosBinary / cfg.FragBytes
	// Disk-backed caches AND a real spool: the relaunch materializes the
	// image on disk and the seal re-reads every byte against the manifest's
	// chunk hashes, so a node that reports a digest holds the bytes.
	mm, nms, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
		return NMConfig{CacheBytes: 8 << 20, CacheDir: t.TempDir(), SpoolDir: t.TempDir()}
	})

	spec := deltaSpec(n, 0xabcd, nil)
	repA, err := SubmitJob(mm.Addr(), spec)
	if err != nil {
		t.Fatal(err)
	}
	refDigest, _ := nms[0].ImageDigest(repA.JobID)

	// Poison chunk 3 in one NM's on-disk cache.
	const victim, badChunk = 2, 3
	size := chunkSizeFor(&spec, cfg.FragBytes, badChunk)
	data := make([]byte, size)
	fillChunkInto(&spec, 0, badChunk, data) // job ID is ignored for seeded content
	hash := chunkcache.Hash64(data)
	if !nms[victim].cache.Poison(hash, size) {
		t.Fatalf("chunk %d not present in node %d's cache", badChunk, victim)
	}

	repB, err := SubmitJob(mm.Addr(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if repB.Replans != 0 {
		t.Fatalf("poisoned cache entry caused %d replans, want 0 (it must degrade to a miss)", repB.Replans)
	}
	if repB.ChunksSent != 1 {
		t.Fatalf("relaunch streamed %d chunks, want exactly the poisoned one", repB.ChunksSent)
	}
	for _, nm := range nms {
		d, ok := nm.ImageDigest(repB.JobID)
		if !ok || d != refDigest {
			t.Fatalf("node %d relaunch digest %+v (ok=%v), want byte-identical %+v",
				nm.Node(), d, ok, refDigest)
		}
		if d.Frags != frags {
			t.Fatalf("node %d holds %d chunks, want %d", nm.Node(), d.Frags, frags)
		}
	}
	// The wire fetch repaired the cache: the entry verifies again.
	if !nms[victim].cache.Use(hash, 0, size) {
		t.Fatalf("node %d cache entry for chunk %d not repopulated from the wire", victim, badChunk)
	}
}

// TestChaosDeltaMidTransferKill kills an interior relay mid-*delta*
// stream (fixed seed matrix, under -race in CI): caches are warmed by a
// cold launch, a patched rebuild streams only the patched chunks, and the
// victim dies partway through. Recovery must re-derive the need masks
// from the survivors' HAVE ledgers — the warm chunks stay off the wire
// across the replan — and the survivors must hold byte-identical images.
func TestChaosDeltaMidTransferKill(t *testing.T) {
	const n = 7
	cfg := chaosMMConfig()
	frags := chaosBinary / cfg.FragBytes
	victim := treePositions(t, n, cfg.Fanout)["interior"]

	// Rebuild the last 24 of 32 chunks, so the delta stream is long
	// enough to contain every seed-chosen kill point.
	patch := make(map[int]uint64)
	for i := frags - 24; i < frags; i++ {
		patch[i] = 0x9999
	}

	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("node%d-seed%d", victim, seed), func(t *testing.T) {
			// The victim's parent link persists across jobs, so its frag
			// counter spans both: 32 cold chunks, then 4..19 delta chunks.
			killAt := frags + 4 + faultconn.NewRng(seed).Intn(16)
			var victimNM atomic.Pointer[NM]
			mm, nms, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
				base := NMConfig{CacheBytes: 8 << 20}
				if node != victim {
					return base
				}
				base.WrapConn = func(c net.Conn) net.Conn {
					plan := faultconn.NewPlan()
					plan.CloseAtReadFrag = killAt
					plan.OnFault = func(string) {
						go func() {
							if nm := victimNM.Load(); nm != nil {
								nm.Close()
							}
						}()
					}
					return faultconn.Wrap(c, plan)
				}
				return base
			})
			victimNM.Store(nms[victim])

			if _, err := SubmitJob(mm.Addr(), deltaSpec(n, 0x5eed, nil)); err != nil {
				t.Fatalf("cold warmup launch failed: %v", err)
			}
			rep, err := SubmitJob(mm.Addr(), deltaSpec(n, 0x5eed, patch))
			if err != nil {
				t.Fatalf("delta launch did not recover from killing node %d at frag %d: %v",
					victim, killAt, err)
			}
			if len(rep.Failed) != 1 || rep.Failed[0] != victim {
				t.Fatalf("report names failed nodes %v, want [%d]", rep.Failed, victim)
			}
			if rep.Replans < 1 {
				t.Fatalf("recovery happened without a replan? %+v", rep)
			}
			// The replan re-derived need from survivor HAVE ledgers: even
			// with a full replay of the patched chunks, the 8 warm chunks
			// never hit the wire again.
			if max := 2 * len(patch); rep.ChunksSent > max {
				t.Fatalf("delta recovery streamed %d chunks, want <=%d (warm chunks must stay cached)",
					rep.ChunksSent, max)
			}
			if rep.BytesSaved == 0 {
				t.Fatal("delta recovery reports zero bytes saved; HAVE ledgers not consulted")
			}
			assertSurvivorImages(t, nms, victim, rep.JobID, frags)
		})
	}
}

// launchBudget is what one launch costs the MM: frames written across
// every NM link, the distribution bytes the report bills, and the chunks
// it streamed.
type launchBudget struct {
	frames     int64
	sendBytes  int64
	chunksSent int
}

// TestLaunchFrameBudget pins the MM's traffic for a 16-NM cold launch and
// its warm relaunch, at one stripe and at two: a change to how trees are
// laid, announced or answered must show here. The image is 4 MiB + 100 B
// in 64 KiB chunks, 65 of them. A launch at k stripes writes 2k manifests
// (one per direct child per stripe, each carrying that child's subtree)
// and 16 launches, and a cold one also its 130 frags: 148/150 cold and
// 18/20 warm frames. (With a plan round and need masks the same launches
// cost 166/170 and 36/40.) The bytes are what conn.send wrote for the
// manifests and frags.
func TestLaunchFrameBudget(t *testing.T) {
	const n = 16
	for _, tc := range []struct {
		stripes    int
		cold, warm launchBudget
	}{
		{1, launchBudget{148, 8392410, 65}, launchBudget{18, 1652, 0}},
		{2, launchBudget{150, 8394062, 65}, launchBudget{20, 3304, 0}},
	} {
		cfg := MMConfig{Fanout: 2, FragBytes: 64 << 10, Stripes: tc.stripes}
		mm, _, _ := chaosCluster(t, n, cfg, func(int) NMConfig { return NMConfig{CacheBytes: 8 << 20} })
		spec := deltaSpec(n, 0xb0d9e7, nil)
		spec.BinaryBytes = 4<<20 + 100
		for i, want := range []launchBudget{tc.cold, tc.warm} {
			before, _ := mm.ControlEgress()
			rep, err := SubmitJob(mm.Addr(), spec)
			if err != nil {
				t.Fatal(err)
			}
			after, _ := mm.ControlEgress()
			if got := (launchBudget{after - before, rep.SendBytes, rep.ChunksSent}); got != want {
				t.Errorf("stripes=%d launch %d: %+v, want %+v", tc.stripes, i, got, want)
			}
		}
	}
}

// frameCensus counts, by type, the frames written on every conn it
// wraps. Wrapping both ends of every link counts each frame once, at its
// writer.
type frameCensus struct {
	mu     sync.Mutex
	frames [256]int
}

func (fc *frameCensus) wrap(c net.Conn) net.Conn { return &countingConn{Conn: c, census: fc} }

// take returns the counts so far, by frame name, and starts over.
func (fc *frameCensus) take() map[string]int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	out := make(map[string]int)
	for t, n := range fc.frames {
		if n > 0 {
			out[wire.Shapes[t].Name] = n
		}
	}
	fc.frames = [256]int{}
	return out
}

// countingConn walks wire's table over the bytes written on it.
type countingConn struct {
	net.Conn
	census *frameCensus
	mu     sync.Mutex
	hdr    []byte // the current frame's type byte and fixed part so far
	tail   int    // bytes of the current frame's tail still to come
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	for _, b := range p {
		if c.tail > 0 {
			c.tail--
			continue
		}
		if c.hdr = append(c.hdr, b); len(c.hdr) == 1 {
			c.census.mu.Lock()
			c.census.frames[b]++
			c.census.mu.Unlock()
		}
		if sh := wire.Shapes[c.hdr[0]]; len(c.hdr) == 1+sh.Fixed {
			c.tail = sh.Tail(c.hdr[1:])
			c.hdr = c.hdr[:0]
		}
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// TestLaunchFrameCensus counts every frame a 16-NM launch puts on any
// link, by type, for a cold launch and its warm relaunch at one stripe
// and at two. The warm launch is one sweep down each stripe's tree and
// one up, then the launch and its terminations: n·k manifests, n·k HAVE
// ledgers, n launches and n terminations — 64 frames at k=1, 96 at k=2,
// and no plan, plan-ack, need mask or fragment ack. The cold launch adds
// one copy of every chunk per node and the acks that credit them.
func TestLaunchFrameCensus(t *testing.T) {
	const n, chunks = 16, 65
	for _, k := range []int{1, 2} {
		var census frameCensus
		cfg := MMConfig{Fanout: 2, FragBytes: 64 << 10, Stripes: k, WrapConn: census.wrap}
		mm, _, _ := chaosCluster(t, n, cfg, func(int) NMConfig {
			return NMConfig{CacheBytes: 8 << 20, WrapConn: census.wrap}
		})
		spec := deltaSpec(n, 0xce2505, nil)
		spec.BinaryBytes = 4<<20 + 100
		census.take() // registration
		round := map[string]int{"manifest": n * k, "have": n * k, "launch": n, "term": n}
		for _, launch := range []string{"cold", "warm"} {
			if _, err := mm.RunJob(spec); err != nil {
				t.Fatalf("stripes=%d %s launch: %v", k, launch, err)
			}
			got := census.take()
			want := round
			if launch == "cold" {
				want = map[string]int{"frag": n * chunks, "ack": got["ack"]}
				for name, c := range round {
					want[name] = c
				}
				if got["ack"] == 0 {
					t.Errorf("stripes=%d cold launch: no fragment was acknowledged", k)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("stripes=%d %s launch put %v on the wire, want %v", k, launch, got, want)
			}
		}
	}
}
