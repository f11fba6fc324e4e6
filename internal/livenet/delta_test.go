package livenet

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
	cc := writeConn(&buf)
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
	cc := writeConn(&buf)
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
	cacheDirs := make([]string, n)
	mm, nms, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
		cacheDirs[node] = t.TempDir()
		return NMConfig{CacheBytes: 8 << 20, CacheDir: cacheDirs[node], SpoolDir: t.TempDir()}
	})

	spec := deltaSpec(n, 0xabcd, nil)
	repA, err := SubmitJob(mm.Addr(), spec)
	if err != nil {
		t.Fatal(err)
	}
	refDigest, _ := nms[0].ImageDigest(repA.JobID)

	// Poison chunk 3 in one NM's on-disk cache: flip a byte of the
	// entry's file, named by its key.
	const victim, badChunk = 2, 3
	size := chunkSizeFor(&spec, cfg.FragBytes, badChunk)
	data := make([]byte, size)
	fillChunkInto(&spec, 0, badChunk, data) // job ID is ignored for seeded content
	hash := chunkcache.Hash64(data)
	path := filepath.Join(cacheDirs[victim], fmt.Sprintf("%016x-%d.chunk", hash, size))
	b, err := os.ReadFile(path)
	if err != nil || len(b) != size {
		t.Fatalf("chunk %d not present in node %d's cache: %v", badChunk, victim, err)
	}
	b[size/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
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
			killAt := frags + 4 + seedIntn(seed, 16)
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
// and 2 launches (one per direct child of stripe 0's tree, which relays
// it on), and a cold one also its 130 frags: 134/136 cold and 4/6 warm
// frames. (With a launch per node the same launches cost 148/150 and
// 18/20; with a plan round and need masks as well, 166/170 and 36/40.)
// The bytes are what conn.send wrote for the manifests and frags.
func TestLaunchFrameBudget(t *testing.T) {
	const n = 16
	for _, tc := range []struct {
		stripes    int
		cold, warm launchBudget
	}{
		{1, launchBudget{134, 8392410, 65}, launchBudget{4, 1652, 0}},
		{2, launchBudget{136, 8394062, 65}, launchBudget{6, 3304, 0}},
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
// wraps, and the bytes they come to; it keeps every Launch, decoded, and
// counts fragments by stripe. Wrapping both ends of every link counts
// each frame once, at its writer.
type frameCensus struct {
	mu       sync.Mutex
	frames   [256]int
	bytes    [256]int
	stripes  [256]int // fragments by stripe byte
	launched []sentLaunch
}

// sentLaunch is one Launch frame a census saw, and its bytes on the wire.
type sentLaunch struct {
	Launch
	size int
}

func (fc *frameCensus) wrap(c net.Conn) net.Conn { return &countingConn{Conn: c, census: fc} }

// take returns the frame counts so far, by frame name, and starts the
// whole census over.
func (fc *frameCensus) take() map[string]int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	out := make(map[string]int)
	for t, n := range fc.frames {
		if n > 0 {
			out[wire.Shapes[t].Name] = n
		}
	}
	fc.frames, fc.bytes, fc.stripes, fc.launched = [256]int{}, [256]int{}, [256]int{}, nil
	return out
}

// sizes returns the bytes of the frames counted so far, by frame name.
func (fc *frameCensus) sizes() map[string]int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	out := make(map[string]int)
	for t, n := range fc.bytes {
		if n > 0 {
			out[wire.Shapes[t].Name] = n
		}
	}
	return out
}

// launches returns the Launch frames counted so far, in write order.
func (fc *frameCensus) launches() []sentLaunch {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return slices.Clone(fc.launched)
}

// stripeFrags returns the fragments of stripe s counted so far.
func (fc *frameCensus) stripeFrags(s int) int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.stripes[s]
}

// count adds a frame whose type byte and fixed part are hdr and whose
// tail is tail bytes long.
func (fc *frameCensus) count(hdr []byte, tail int) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.frames[hdr[0]]++
	fc.bytes[hdr[0]] += len(hdr) + tail
	if hdr[0] == wire.Frag {
		fc.stripes[hdr[wire.FragLen]]++
	}
}

// countingConn walks wire's table over the bytes written on it.
type countingConn struct {
	net.Conn
	census *frameCensus
	mu     sync.Mutex
	frame  []byte // the current frame's type byte and fixed part so far, and a Launch's tail
	tail   int    // bytes of the current frame's tail still to come
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	for rest := p; len(rest) > 0; {
		if c.tail > 0 {
			n := min(c.tail, len(rest))
			if c.frame[0] == wire.Launch {
				c.frame = append(c.frame, rest[:n]...)
			}
			c.tail, rest = c.tail-n, rest[n:]
		} else {
			c.frame, rest = append(c.frame, rest[0]), rest[1:]
			sh := wire.Shapes[c.frame[0]]
			if len(c.frame) < 1+sh.Fixed {
				continue
			}
			c.tail = sh.Tail(c.frame[1:])
			c.census.count(c.frame, c.tail)
		}
		if c.tail == 0 {
			if c.frame[0] == wire.Launch {
				m, err := (&conn{r: bufio.NewReader(bytes.NewReader(c.frame))}).recv()
				if err != nil {
					panic(fmt.Sprintf("census: a launch frame that does not decode: %v", err))
				}
				c.census.mu.Lock()
				c.census.launched = append(c.census.launched, sentLaunch{Launch: *m.Launch, size: len(c.frame)})
				c.census.mu.Unlock()
			}
			c.frame = c.frame[:0]
		}
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// checkDenseRanks fails unless the Launch frames sent carry the indices
// 0 … m-1, each once: the job's survivors, each with ranks of its own.
func checkDenseRanks(t *testing.T, sent []sentLaunch, m int) {
	t.Helper()
	idx := make([]int, 0, len(sent))
	for _, l := range sent {
		idx = append(idx, l.Index)
	}
	slices.Sort(idx)
	if len(idx) != m {
		t.Fatalf("%d launches carried indices %v, want 0 … %d once each", len(idx), idx, m-1)
	}
	for i, x := range idx {
		if x != i {
			t.Fatalf("the launches carried indices %v, want 0 … %d once each", idx, m-1)
		}
	}
}

// exitLaunchBytes is one Launch frame of an "exit" program on the wire:
// type byte, body length and a 65-byte body — the job, the program
// (its kind's length and four bytes, duration, grid, iterations), the
// processes per node, the index, the row and the gang flag.
const exitLaunchBytes = 1 + 4 + 8 + (4 + 4 + 3*8) + 8 + 8 + 8 + 1

// TestLaunchFrameCensus counts every frame a 16-NM launch puts on any
// link, by type, for a cold launch and its warm relaunch at one stripe
// and at two. The warm launch is one sweep down each stripe's tree and
// one up, then the launch and its terminations: n·k manifests, n·k HAVE
// ledgers, n launches and n terminations — 64 frames at k=1, 96 at k=2,
// and no plan, plan-ack, need mask or fragment ack. The cold launch adds
// one copy of every chunk per node and the acks that credit them. The
// launches come to n·exitLaunchBytes.
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
			if b := census.sizes()["launch"]; b != n*exitLaunchBytes {
				t.Errorf("stripes=%d %s launch: the launches came to %d bytes, want %d", k, launch, b, n*exitLaunchBytes)
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

// TestLaunchBytesFlatInClusterSize: a Launch carries nothing that grows
// with the job. On 16 and on 64 lite NMs every NM receives exactly one
// (n frames, and every NM forks once), every copy is exitLaunchBytes
// long at both sizes, and the indices they carry are dense. A frame
// carrying a list of the nodes would be longer at 64 than at 16.
func TestLaunchBytesFlatInClusterSize(t *testing.T) {
	for _, n := range []int{16, 64} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			hub, err := NewPeerHub("")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(hub.Close)
			var census frameCensus
			cfg := MMConfig{Fanout: 4, Lite: true, WrapConn: census.wrap}
			mm, nms, _ := chaosCluster(t, n, cfg, func(int) NMConfig {
				return NMConfig{Hub: hub, Lite: true, WrapConn: census.wrap}
			})
			spec := deltaSpec(n, 0xf1a7, nil)
			spec.BinaryBytes = 64 << 10
			if _, err := SubmitJob(mm.Addr(), spec); err != nil {
				t.Fatal(err)
			}
			sent := census.launches()
			if len(sent) != n {
				t.Fatalf("%d launch frames for %d NMs", len(sent), n)
			}
			for _, l := range sent {
				if l.size != exitLaunchBytes {
					t.Fatalf("a launch of %d bytes on %d NMs, want %d", l.size, n, exitLaunchBytes)
				}
			}
			for _, nm := range nms {
				if got := nmLaunches(nm); got != 1 {
					t.Fatalf("node %d forked %d processes, want 1", nm.Node(), got)
				}
			}
			checkDenseRanks(t, sent, n)
		})
	}
}

// stampConn notes in at when the first frame of type kind is written on
// it, as nanoseconds on the monotonic clock since zero: at the Write call
// (the writer is committed to the frame), or with after set once the
// Write returns (only then can a reader have it). Every frame leaves in
// one Write, so the type byte opens it.
type stampConn struct {
	net.Conn
	kind  byte
	after bool
	zero  time.Time
	at    *atomic.Int64
}

func (c *stampConn) Write(p []byte) (int, error) {
	mark := func() {
		if len(p) == 0 || p[0] != c.kind {
			return
		}
		now := int64(time.Since(c.zero))
		for old := c.at.Load(); (old == 0 || now < old) && !c.at.CompareAndSwap(old, now); old = c.at.Load() {
		}
	}
	if !c.after {
		mark()
	}
	n, err := c.Conn.Write(p)
	if c.after {
		mark()
	}
	return n, err
}

// TestFreshImageStreamsBehindManifest: a seeded image the MM has never
// launched streams right behind its manifests. On links that delay every
// write, the MM starts writing fragment 0 before any NM has finished
// writing a HAVE, so before the MM can have read one. Everything else
// still waits for the HAVE round and streams only what it names: a
// relaunch streams nothing, a one-chunk patch one chunk, and the replan
// after a death mid-stream resends only what the survivors' ledgers
// lack, to byte-identical images. A seed the MM forgot costs one image
// streamed whole, and nothing else.
func TestFreshImageStreamsBehindManifest(t *testing.T) {
	t.Run("fresh", func(t *testing.T) {
		const n = 7
		var frag0, have atomic.Int64
		zero := time.Now()
		delayed := func(c net.Conn, d time.Duration) net.Conn {
			plan := faultconn.NewPlan()
			plan.WriteDelay = d
			return faultconn.Wrap(c, plan)
		}
		cfg := deltaMMConfig()
		cfg.WrapConn = func(c net.Conn) net.Conn {
			return &stampConn{Conn: delayed(c, time.Millisecond), kind: wire.Frag, zero: zero, at: &frag0}
		}
		mm, nms, _ := chaosCluster(t, n, cfg, func(int) NMConfig {
			return NMConfig{CacheBytes: 8 << 20, WrapConn: func(c net.Conn) net.Conn {
				return &stampConn{Conn: delayed(c, 25*time.Millisecond), kind: wire.Have, after: true, zero: zero, at: &have}
			}}
		})
		spec := deltaSpec(n, 0xf4e54, nil)
		spec.BinaryBytes = 4 * cfg.FragBytes
		rep, err := mm.RunJob(spec)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ChunksSent != 4 {
			t.Fatalf("fresh launch streamed %d chunks, want 4", rep.ChunksSent)
		}
		if f, h := time.Duration(frag0.Load()), time.Duration(have.Load()); f == 0 || h == 0 || f >= h {
			t.Fatalf("the MM wrote fragment 0 at %v and the first HAVE was written at %v: the stream waited for the HAVE round", f, h)
		}
		assertSurvivorImages(t, nms, -1, rep.JobID, 4)

		// Every NM holds the image, but an MM that forgot the seed takes
		// it for fresh: that costs the bytes, and every node takes what
		// it holds as a duplicate.
		mm.mu.Lock()
		mm.seeds = nil
		mm.mu.Unlock()
		if rep, err = mm.RunJob(spec); err != nil || rep.ChunksSent != 4 || rep.Replans != 0 {
			t.Fatalf("relaunch of a forgotten seed: %d chunks streamed, %d replans, err %v; want 4, none, nil", rep.ChunksSent, rep.Replans, err)
		}
		assertSurvivorImages(t, nms, -1, rep.JobID, 4)
	})

	t.Run("relaunch-patch-replan", func(t *testing.T) {
		const n = 7
		cfg := chaosMMConfig()
		frags := chaosBinary / cfg.FragBytes
		victim := treePositions(t, n, cfg.Fanout)["interior"]
		// The victim's parent link carries every launch's fragments: the
		// fresh image's, none of the relaunch's, the patched chunk, then
		// the second fresh image's until the victim dies within it.
		killAt := frags + 1 + 10
		var victimNM atomic.Pointer[NM]
		mm, nms, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
			base := NMConfig{CacheBytes: 8 << 20}
			if node == victim {
				base.WrapConn = func(c net.Conn) net.Conn {
					plan := faultconn.NewPlan()
					plan.CloseAtReadFrag = killAt
					plan.OnFault = func(string) { go victimNM.Load().Close() }
					return faultconn.Wrap(c, plan)
				}
			}
			return base
		})
		victimNM.Store(nms[victim])
		for _, launch := range []struct {
			name string
			spec JobSpec
			sent int
		}{
			{"fresh", deltaSpec(n, 0xa11ce, nil), frags},
			{"relaunch", deltaSpec(n, 0xa11ce, nil), 0},
			{"1-chunk patch", deltaSpec(n, 0xa11ce, map[int]uint64{5: 0xbeef}), 1},
		} {
			rep, err := mm.RunJob(launch.spec)
			if err != nil {
				t.Fatalf("%s: %v", launch.name, err)
			}
			if rep.ChunksSent != launch.sent || rep.Replans != 0 {
				t.Fatalf("%s streamed %d chunks with %d replans, want %d and none", launch.name, rep.ChunksSent, rep.Replans, launch.sent)
			}
			assertSurvivorImages(t, nms, -1, rep.JobID, frags)
		}
		rep, err := mm.RunJob(deltaSpec(n, 0xb0b, nil))
		if err != nil {
			t.Fatalf("fresh launch did not recover from node %d's death: %v", victim, err)
		}
		if !slices.Equal(rep.Failed, []int{victim}) || rep.Replans < 1 {
			t.Fatalf("report: failed %v, replans %d; want [%d] and a replan", rep.Failed, rep.Replans, victim)
		}
		// The replan's epoch waited for the survivors' ledgers and kept
		// what a subtree holds off its link; a fresh epoch saves nothing.
		// (Orphans of the victim may hold no chunk, so every chunk can be
		// in the union, but no more than once per epoch.)
		if rep.BytesSaved == 0 || rep.ChunksSent > (1+rep.Replans)*frags {
			t.Fatalf("the replan streamed %d chunks in all (of %d) and saved %d bytes: it did not wait for the HAVE round",
				rep.ChunksSent, frags, rep.BytesSaved)
		}
		assertSurvivorImages(t, nms, victim, rep.JobID, frags)
	})
}

// TestManifestCacheKeepsHotImage: the MM's manifest cache evicts its
// least recently used entry, so an image relaunched between fresh ones
// keeps its manifest however many fresh images pass through. And an image
// is fresh only when it is seeded, unpatched and of a seed never launched.
func TestManifestCacheKeepsHotImage(t *testing.T) {
	mm := &MM{cfg: MMConfig{FragBytes: 1 << 10}}
	build := func(seed uint64, patch map[int]uint64) (*manifestData, bool) {
		j := &liveJob{spec: JobSpec{BinaryBytes: 4 << 10, ImageSeed: seed, ImagePatch: patch}, frags: 4}
		return mm.buildManifest(j), j.fresh
	}
	hot, fresh := build(1, nil)
	if !fresh {
		t.Fatal("the first image of a seed is not fresh")
	}
	for i := 0; i < 40; i++ {
		if _, fresh := build(uint64(100+i), nil); !fresh {
			t.Fatalf("fresh image %d is not fresh", i)
		}
		if d, fresh := build(1, nil); d != hot || fresh {
			t.Fatalf("after %d fresh images the hot image's manifest was rebuilt (%v) or is fresh (%v)", i+1, d != hot, fresh)
		}
	}
	for _, tc := range []struct {
		name  string
		seed  uint64
		patch map[int]uint64
	}{
		{"a patch of a launched seed", 1, map[int]uint64{2: 7}},
		{"a patch of a new seed", 1000, map[int]uint64{2: 7}},
		{"the new seed unpatched", 1000, nil},
		{"an unseeded image", 0, nil},
	} {
		if _, fresh := build(tc.seed, tc.patch); fresh {
			t.Errorf("%s is fresh", tc.name)
		}
	}
}
