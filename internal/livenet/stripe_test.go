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

// TestStripeLayout pins the rotation arithmetic the striped plan is
// built on: disjoint interior prefixes, inverse position maps, and the
// round-robin chunk split.
func TestStripeLayout(t *testing.T) {
	const n, k = 16, 2
	if r := stripeRotation(1, k, n); r != 8 {
		t.Fatalf("stripeRotation(1,2,16) = %d, want 8", r)
	}
	for q := 0; q < n; q++ {
		for s := 0; s < k; s++ {
			idx := stripeNodeAt(q, s, k, n)
			if back := stripePosOf(idx, s, k, n); back != q {
				t.Fatalf("stripePosOf(stripeNodeAt(%d,%d)) = %d", q, s, back)
			}
		}
	}
	// n=16, fanout=2: positions 0..6 are relays. With the n/k rotation the
	// interior node sets of the two stripes are disjoint.
	interior := func(s int) map[int]bool {
		m := map[int]bool{}
		for q := 0; q < n; q++ {
			if len(nodeChildren(q, n, 2)) > 0 {
				m[stripeNodeAt(q, s, k, n)] = true
			}
		}
		return m
	}
	i0, i1 := interior(0), interior(1)
	for node := range i0 {
		if i1[node] {
			t.Fatalf("node %d interior in both stripes", node)
		}
	}
	// Chunk split: 33 chunks over 2 stripes = 17 + 16.
	if a, b := stripeChunks(33, 0, 2), stripeChunks(33, 1, 2); a != 17 || b != 16 {
		t.Fatalf("stripeChunks(33) = %d,%d, want 17,16", a, b)
	}
	if c := stripeChunks(33, 0, 1); c != 33 {
		t.Fatalf("stripeChunks k=1 = %d, want 33", c)
	}
}

// TestLiveStripedEquivalence (acceptance): the same job through stripes
// 1, 2, and 4 delivers byte-identical per-node images, the same
// fragment accounting, and tree-bounded MM egress — striping changes
// which link carries a chunk, never the bytes that arrive.
func TestLiveStripedEquivalence(t *testing.T) {
	const n, binary = 16, 2 << 20
	spec := JobSpec{
		Name: "striped-equiv", BinaryBytes: binary, Nodes: n, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	}
	run := func(stripes int) (Report, map[int]ImageDigest) {
		mm, nms := startCluster(t, n, MMConfig{Fanout: 2, FragBytes: 128 << 10, Stripes: stripes})
		rep, err := SubmitJob(mm.Addr(), spec)
		if err != nil {
			t.Fatalf("stripes=%d: %v", stripes, err)
		}
		digests := map[int]ImageDigest{}
		for _, nm := range nms {
			d, ok := nm.ImageDigest(rep.JobID)
			if !ok {
				t.Fatalf("stripes=%d: node %d has no image", stripes, nm.Node())
			}
			digests[nm.Node()] = d
		}
		return rep, digests
	}
	ref, refDigests := run(1)
	for _, stripes := range []int{2, 4} {
		rep, digests := run(stripes)
		for node, d := range digests {
			if d != refDigests[node] {
				t.Fatalf("stripes=%d: node %d image %+v diverges from single-tree %+v",
					stripes, node, d, refDigests[node])
			}
		}
		if rep.Chunks != ref.Chunks || rep.ChunksSent != ref.Chunks {
			t.Fatalf("stripes=%d: chunks=%d sent=%d, want %d cold chunks",
				stripes, rep.Chunks, rep.ChunksSent, ref.Chunks)
		}
		if len(rep.StripeReplans) != stripes {
			t.Fatalf("stripes=%d: StripeReplans has %d entries", stripes, len(rep.StripeReplans))
		}
		// The union of the stripe trees still sends each chunk to fanout
		// subtree roots: MM egress stays ~fanout x image, not stripes x.
		if max := int64(3 * binary); rep.SendBytes > max {
			t.Fatalf("stripes=%d: MM pushed %d bytes, want <= %d", stripes, rep.SendBytes, max)
		}
	}
}

// TestDeltaStripedWarmRelaunch (acceptance): warm launches stream zero
// chunks at any stripe count — the per-stripe HAVE rounds each discover
// their slice of the image is cached, and no stripe opens its stream.
func TestDeltaStripedWarmRelaunch(t *testing.T) {
	const n = 8
	cfg := deltaMMConfig()
	cfg.Stripes = 2
	frags := chaosBinary / cfg.FragBytes
	mm, nms, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
		return NMConfig{CacheBytes: 8 << 20}
	})
	repA, err := SubmitJob(mm.Addr(), deltaSpec(n, 0x57a1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if repA.ChunksSent != frags {
		t.Fatalf("cold striped launch streamed %d chunks, want %d", repA.ChunksSent, frags)
	}
	refDigest, ok := nms[0].ImageDigest(repA.JobID)
	if !ok {
		t.Fatal("node 0 has no cold image")
	}
	repB, err := SubmitJob(mm.Addr(), deltaSpec(n, 0x57a1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if repB.ChunksSent != 0 {
		t.Fatalf("warm striped relaunch streamed %d chunks, want 0", repB.ChunksSent)
	}
	if repB.SendBytes > 64<<10 {
		t.Fatalf("warm striped relaunch cost %d egress bytes, want control-plane-sized", repB.SendBytes)
	}
	for _, nm := range nms {
		if d, ok := nm.ImageDigest(repB.JobID); !ok || d != refDigest {
			t.Fatalf("node %d warm digest %+v (ok=%v), want %+v", nm.Node(), d, ok, refDigest)
		}
	}
	// A one-chunk patch streams exactly that chunk, over its own stripe.
	repC, err := SubmitJob(mm.Addr(), deltaSpec(n, 0x57a1, map[int]uint64{5: 0xbeef}))
	if err != nil {
		t.Fatal(err)
	}
	if repC.ChunksSent != 1 {
		t.Fatalf("striped 1-chunk delta streamed %d chunks, want 1", repC.ChunksSent)
	}
}

// TestChaosStripedInteriorKill (satellite): with stripes=2 on 8 nodes,
// node 1 relays for stripe 0 but is a leaf of stripe 1's rotated tree.
// Killing it mid-transfer must replan ONLY stripe 0 — stripe 1 prunes
// the dead leaf without an epoch bump or manifest round — and the
// launch completes on the survivors with byte-identical images inside
// the usual recovery envelope.
func TestChaosStripedInteriorKill(t *testing.T) {
	const n, victim = 8, 1
	cfg := chaosMMConfig()
	cfg.Stripes = 2
	frags := chaosBinary / cfg.FragBytes
	// Sanity-pin the scenario to the rotation rule: interior in stripe 0,
	// leaf in stripe 1.
	if len(nodeChildren(stripePosOf(victim, 0, 2, n), n, cfg.Fanout)) == 0 {
		t.Fatalf("node %d is not a stripe-0 relay", victim)
	}
	if len(nodeChildren(stripePosOf(victim, 1, 2, n), n, cfg.Fanout)) != 0 {
		t.Fatalf("node %d is not a stripe-1 leaf", victim)
	}
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			// Each stripe delivers 16 of the 32 chunks, so a per-conn kill
			// point must land inside one stripe's stream.
			killAt := 4 + faultconn.NewRng(seed).Intn(8)
			var victimNM atomic.Pointer[NM]
			mm, nms, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
				if node != victim {
					return NMConfig{}
				}
				return NMConfig{WrapConn: func(c net.Conn) net.Conn {
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
				}}
			})
			victimNM.Store(nms[victim])
			rep, err := SubmitJob(mm.Addr(), JobSpec{
				Name: "striped-chaos", BinaryBytes: chaosBinary, Nodes: n, PEsPerNode: 1,
				Program: ProgramSpec{Kind: "exit"},
			})
			if err != nil {
				t.Fatalf("striped launch did not recover from killing node %d at frag %d: %v",
					victim, killAt, err)
			}
			if len(rep.Failed) != 1 || rep.Failed[0] != victim {
				t.Fatalf("report names failed nodes %v, want [%d]", rep.Failed, victim)
			}
			if len(rep.StripeReplans) != 2 {
				t.Fatalf("StripeReplans = %v, want 2 entries", rep.StripeReplans)
			}
			if rep.StripeReplans[0] < 1 {
				t.Fatalf("stripe 0 lost its relay but never replanned: %v", rep.StripeReplans)
			}
			if rep.StripeReplans[1] != 0 {
				t.Fatalf("stripe 1 replanned %d times for a dead leaf, want 0 (prune only)",
					rep.StripeReplans[1])
			}
			if rep.Recovery <= 0 || rep.Recovery > 4*time.Second {
				t.Fatalf("recovery took %v, want within the diagnosis+replan envelope", rep.Recovery)
			}
			assertSurvivorImages(t, nms, victim, rep.JobID, frags)
		})
	}
}

// TestStaleEpochManifestIsolated (satellite): a Manifest from a
// superseded epoch racing a replan on one stripe must be dropped in
// full — it may not install its tree on that stripe, bind its parent or
// draw an answer, and it may not touch any other stripe's epoch, parent
// or relay, or the written bitmap.
func TestStaleEpochManifestIsolated(t *testing.T) {
	nm := &NM{
		bins:    make(map[int]*binState),
		relays:  make(map[int]*relayState),
		digests: make(map[int]ImageDigest),
	}
	const job = 7
	man := func(stripe, epoch int) *Manifest {
		return &Manifest{Job: job, Epoch: epoch, Stripe: stripe, Stripes: 2, ChunkBytes: 4,
			TotalBytes: 16, Hashes: make([]uint64, 4)}
	}

	// Stripe 0's manifest opens the transfer; stripe 1 has replanned to
	// epoch 2 and its manifest installed that.
	parent0, parent1 := discardConn(), discardConn()
	nm.onManifest(man(0, 0), parent0)
	st, rs := nm.bins[job], nm.relays[job]
	if st == nil || st.man == nil || st.k != 2 || rs == nil || len(rs.stripes) != 2 {
		t.Fatalf("stripe 0 manifest did not open the transfer: %+v %+v", st, rs)
	}
	nm.onManifest(man(1, 2), parent1)
	if rs.stripes[0].parent != parent0 || rs.stripes[1].parent != parent1 || rs.stripes[1].epoch != 2 {
		t.Fatal("current-epoch manifests did not bind their stripes")
	}
	written := append([]uint64(nil), st.written...)

	// A stale manifest for stripe 1 (epoch 1) must change nothing.
	var answers bytes.Buffer
	stale := man(1, 1)
	stale.Tree = []TreeNode{{Node: 9, Addr: "nowhere", Size: 1}}
	nm.onManifest(stale, &conn{w: bufio.NewWriter(&answers)})
	if s1 := rs.stripes[1]; s1.parent != parent1 || s1.epoch != 2 || len(s1.children) != 0 {
		t.Fatalf("stale manifest disturbed stripe 1: %+v", s1)
	}
	if answers.Len() != 0 {
		t.Fatalf("stale manifest was answered with %d bytes", answers.Len())
	}
	if s0 := rs.stripes[0]; s0.parent != parent0 || s0.epoch != 0 {
		t.Fatal("stale stripe-1 manifest disturbed stripe 0's binding")
	}
	if nm.bins[job] != st || !reflect.DeepEqual(st.written, written) {
		t.Fatal("stale manifest touched the receive state")
	}
}

// TestPlanRewiresOnlyNamedStripe: the one onManifest installs a stripe's
// relay at launch and rewires it at a replan alike, one stripe at a time.
// A manifest of a newer epoch resets its stripe to that epoch and the
// tree it carries, bound to the link it came down with its answers
// restarted, and leaves the other stripe's epoch, children, propagated
// credit, HAVE flag and bound parent untouched. A re-run of the current
// epoch's round reinstalls nothing: the children, and what they
// reported, stay.
func TestPlanRewiresOnlyNamedStripe(t *testing.T) {
	var up bytes.Buffer
	nm := &NM{
		node:   3,
		c:      &conn{w: bufio.NewWriter(&up)},
		bins:   make(map[int]*binState),
		relays: make(map[int]*relayState),
		dialed: map[string]*conn{"a": discardConn(), "b": discardConn(), "c": discardConn()},
	}
	const job = 7
	man := func(stripe, epoch int, kid TreeNode) *Manifest {
		return &Manifest{Job: job, Epoch: epoch, Stripe: stripe, Stripes: 2, ChunkBytes: 4, TotalBytes: 16,
			Hashes: make([]uint64, 4), Tree: []TreeNode{kid}}
	}

	parent0, parent1 := discardConn(), discardConn()
	nm.onManifest(man(0, 0, TreeNode{Node: 1, Addr: "a", Size: 1}), parent0)
	nm.onManifest(man(1, 0, TreeNode{Node: 2, Addr: "b", Size: 1}), parent1)
	rs := nm.relays[job]
	if rs == nil || len(rs.stripes) != 2 {
		t.Fatalf("launch manifests installed %+v", rs)
	}
	s0, s1 := rs.stripes[0], rs.stripes[1]
	if len(s0.children) != 1 || s0.children[0].node != 1 || s0.children[0].c != nm.dialed["a"] || s0.parent != parent0 ||
		len(s1.children) != 1 || s1.children[0].node != 2 || s1.children[0].c != nm.dialed["b"] || s1.parent != parent1 {
		t.Fatalf("launch manifests installed stripe 0 %+v, stripe 1 %+v", s0, s1)
	}
	// Mid-transfer state on both stripes.
	s0.sentUp, s0.haveSent = 5, true
	s1.sentUp, s1.haveSent = 6, true
	kid0 := s0.children[0]
	kid0.acked, kid0.pruned = 2, true

	relinked := discardConn()
	nm.onManifest(man(1, 3, TreeNode{Node: 4, Addr: "c", Size: 1}), relinked)
	if nm.relays[job] != rs || rs.stripes[0] != s0 || rs.stripes[1] != s1 {
		t.Fatal("a one-stripe rewire replaced the job's relay state")
	}
	if s1.epoch != 3 || len(s1.children) != 1 || s1.children[0].node != 4 || s1.children[0].c != nm.dialed["c"] ||
		s1.parent != relinked || s1.sentUp != 0 || s1.haveSent {
		t.Fatalf("stripe 1 after its rewire: %+v", s1)
	}
	if s0.epoch != 0 || len(s0.children) != 1 || s0.children[0] != kid0 ||
		s0.parent != parent0 || s0.sentUp != 5 || !s0.haveSent {
		t.Fatalf("stripe 0 disturbed by stripe 1's rewire: %+v", s0)
	}

	// Stripe 0's round re-runs in its epoch.
	nm.onManifest(man(0, 0, TreeNode{Node: 1, Addr: "a", Size: 1}), parent0)
	if len(s0.children) != 1 || s0.children[0] != kid0 || !kid0.pruned || kid0.acked != 2 || s0.sentUp != 5 || !s0.haveSent {
		t.Fatalf("a same-epoch re-run reinstalled stripe 0: %+v, child %+v", s0, kid0)
	}
	if up.Len() != 0 {
		t.Fatalf("cached children were reported to the MM: %d bytes", up.Len())
	}
}

// TestRehomeReinstallsKeptState: a job re-placed after a failed attempt
// may land on nodes that kept that attempt's relays and image. The MM
// opens every stripe past any epoch the job has used, so such a node
// takes the new attempt's manifest for a new epoch — installs the new
// tree, rebinds, answers afresh — rather than for a stale or re-run one,
// and its kept image answers as a full HAVE, which is all the credit the
// stripe needs. End to end: a transfer that stalls with nobody dead (one
// node withholds every ack) is re-placed on the same three nodes and
// completes on their HAVE ledgers alone.
func TestRehomeReinstallsKeptState(t *testing.T) {
	mm := &MM{cfg: MMConfig{Fanout: 2, Stripes: 2}}
	j := &liveJob{id: 7, frags: 4, nodes: testLinks(4)}
	mm.rewireTree(j)
	j.stripes[0].epoch = 2 // stripe 0 replanned twice in the failed attempt
	mm.rewireTree(j)
	for _, ss := range j.stripes {
		if ss.epoch != 3 {
			t.Fatalf("re-placement opened stripe %d at epoch %d, want 3", ss.id, ss.epoch)
		}
	}

	nm := &NM{
		node:    3,
		c:       discardConn(),
		bins:    make(map[int]*binState),
		relays:  make(map[int]*relayState),
		digests: make(map[int]ImageDigest),
		dialed:  map[string]*conn{"c": discardConn()},
	}
	const job, chunks, size = 9, 2, 64
	image := fragPattern(job, 0, chunks*size)
	man := func(stripe, epoch int, tree ...TreeNode) *Manifest {
		m := &Manifest{Job: job, Epoch: epoch, Stripe: stripe, Stripes: 2, ChunkBytes: size, TotalBytes: chunks * size,
			Hashes: make([]uint64, chunks), Tree: tree}
		for i := 0; i < chunks; i++ {
			c := image[i*size : (i+1)*size]
			m.Hashes[i] = chunkcache.Hash64(c)
		}
		return m
	}
	old := discardConn()
	nm.onManifest(man(0, 2), old)
	nm.onManifest(man(1, 0), old)
	for i := 0; i < chunks; i++ {
		f := newFrag(size)
		copy(f.Data, image[i*size:(i+1)*size])
		f.Job, f.Index, f.Stripe = job, i, i%2
		nm.handleFrag(f, old)
	}
	if _, ok := nm.ImageDigest(job); !ok {
		t.Fatal("the failed attempt did not leave the image")
	}

	// The re-placed attempt makes this node interior on stripe 0.
	var up bytes.Buffer
	link := &conn{w: bufio.NewWriter(&up)}
	nm.onManifest(man(0, 3, TreeNode{Node: 4, Addr: "c", Size: 1}), link)
	sr := nm.relays[job].stripes[0]
	if sr.epoch != 3 || sr.parent != link || len(sr.children) != 1 || sr.children[0].node != 4 || sr.haveSent {
		t.Fatalf("the re-placed attempt's manifest did not reinstall stripe 0: %+v", sr)
	}
	nm.onChildHave(&Have{Job: job, Node: 4, Epoch: 3, Bits: []uint64{0b11}}, nm.dialed["c"])
	nm.onManifest(man(0, 0, TreeNode{Node: 5, Addr: "d", Size: 1}), discardConn())
	if sr.epoch != 3 || sr.children[0].node != 4 {
		t.Fatalf("an epoch-0 manifest displaced the re-placed attempt's relay: %+v", sr)
	}
	var acks int
	var full bool
	for c := (&conn{r: bufio.NewReader(&up)}); ; {
		m, err := c.recv()
		if err != nil {
			break
		}
		switch {
		case m.FragAck != nil:
			acks++
		case m.Have != nil:
			full = full || m.Have.Epoch == 3 && m.Have.Bits[0] == 0b11
		}
	}
	if !full || acks != 0 {
		t.Fatalf("the re-placed attempt heard: full epoch-3 HAVE %v, %d acks; want the HAVE alone", full, acks)
	}

	cfg := MMConfig{Fanout: 2, FragBytes: 32 << 10, AckTimeout: 300 * time.Millisecond, JobRetries: 1}
	// Node 1 never credits the window: the first attempt times out.
	lmm, nms, _ := chaosCluster(t, 3, cfg, func(node int) NMConfig {
		if node != 1 {
			return NMConfig{}
		}
		return NMConfig{WrapConn: dropFrames(wire.Ack, 64)}
	})
	rep, err := SubmitJob(lmm.Addr(), JobSpec{Name: "rehome", BinaryBytes: 64 << 10, Nodes: 3, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"}})
	if err != nil {
		t.Fatalf("the re-placed job failed: %v", err)
	}
	if rep.Retries != 1 || len(rep.Failed) != 0 {
		t.Fatalf("report: %d retries, failed %v; want one re-placement and no failed node", rep.Retries, rep.Failed)
	}
	assertSurvivorImages(t, nms, -1, rep.JobID, 2)
}

// TestStripedFragAllocs pins the striped hot path at the same alloc
// ceiling as the legacy one: a fragment or cumulative ack carrying a
// nonzero stripe byte must encode without per-frame garbage.
func TestStripedFragAllocs(t *testing.T) {
	data := fragPattern(5, 11, 256<<10)
	c := discardConn()
	f := &Frag{Job: 5, Index: 11, Stripe: 3, Data: data}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := c.send(Message{Frag: f}); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("striped fragment send allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := c.send(Message{FragAck: &FragAck{Job: 5, Index: 11, Node: 1, Stripe: 3, OK: true}}); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Fatalf("striped ack send allocates %.1f/op, want <= 1", avg)
	}
}

// TestManifestRoundRerunKeepsEpochHaves: a stripe whose first manifest
// round was interrupted by another stripe's failure, and which then only
// pruned a dead leaf, runs the round again in the SAME epoch. The NMs
// answer once per epoch, so the reports the MM already holds must carry
// over — resetting them left the round waiting out AckTimeout for HAVEs
// nobody would send again (seen as "chunk ledger (HAVE) unreported" in
// TestChaosStripedInteriorKill once the victim died that early).
func TestManifestRoundRerunKeepsEpochHaves(t *testing.T) {
	mm := &MM{cfg: MMConfig{FragBytes: 4, Fanout: 2, AckTimeout: 300 * time.Millisecond}}
	a, b := &nmLink{node: 4, c: discardConn()}, &nmLink{node: 5, c: discardConn()}
	j := &liveJob{id: 1, frags: 4, nodes: []*nmLink{a, b},
		man: &manifestData{hashes: make([]uint64, 4), total: 16}}
	j.cond = sync.NewCond(&j.mu)
	ss := &stripeState{id: 0, needManifest: true}
	mm.rewireStripe(j, ss, 1)
	// Both subtrees reported during the interrupted round; node 5's claims
	// nothing (its leaf died).
	ss.kids[0].have, ss.kids[1].have = []uint64{0b1111}, []uint64{0}
	j.stripes = []*stripeState{ss}
	if err := mm.manifestStripe(j, ss); err != nil {
		t.Fatalf("same-epoch manifest round discarded the reports it had: %v", err)
	}
	if len(ss.sendList) != 4 || j.bytesSaved != 4 {
		t.Fatalf("send list %v, %d bytes saved: want node 5 alone to need all 4 one-byte chunks", ss.sendList, j.bytesSaved)
	}
}

// TestStrayAnswersAreDropped: an ack, a HAVE, a pong or a strobe ack
// naming a node that is not a direct child of the MM in the tree it
// speaks for finds no record, and must not grow one.
func TestStrayAnswersAreDropped(t *testing.T) {
	mm := &MM{cfg: MMConfig{Fanout: 2}, jobs: map[int]*liveJob{}, probes: map[int64]*probeRound{}}
	j := &liveJob{id: 1, nodes: testLinks(7)}
	j.cond = sync.NewCond(&j.mu)
	mm.jobs[j.id] = j
	ss := &stripeState{id: 0}
	mm.rewireStripe(j, ss, 1)
	j.stripes = []*stripeState{ss}
	if len(ss.kids) != 2 || ss.kid(0) == nil || ss.kid(1) == nil || ss.kid(2) != nil {
		t.Fatalf("kids of a 7-node fanout-2 tree: %+v", ss.kids)
	}
	// Node 2 is in the tree, below node 0; node 99 is in no tree.
	for _, node := range []int{2, 99} {
		mm.onFragAck(&FragAck{Job: 1, Index: 3, Node: node, OK: true})
		mm.onHave(&Have{Job: 1, Node: node, Bits: []uint64{1}})
	}
	mm.onFragAck(&FragAck{Job: 1, Index: 0, Node: 1, OK: true})
	mm.onHave(&Have{Job: 1, Node: 1, Bits: []uint64{}})
	if k := ss.kids[0]; len(ss.kids) != 2 || k.acked != 0 || k.have != nil || k.held != nil {
		t.Fatalf("stray stripe answers changed the records: %d kids, kid 0 %+v", len(ss.kids), k)
	}
	if k := ss.kids[1]; k.acked != 1 || k.have == nil {
		t.Fatalf("a direct child's answers did not land: %+v", k)
	}

	links := testLinks(7)
	mm.ctl.epoch = 1
	for _, tk := range layTree(links, 2).kids {
		mm.ctl.kids = append(mm.ctl.kids, ctlKid{treeKid: tk})
	}
	for _, node := range []int{2, 99} {
		mm.onPong(&Pong{Seq: 5, Node: node, Epoch: 1, MinSeq: 5})
		mm.onStrobeAck(&StrobeAck{Seq: 5, Node: node, Epoch: 1})
	}
	mm.onPong(&Pong{Seq: 4, Node: 1, Epoch: 1, MinSeq: 4})
	mm.onStrobeAck(&StrobeAck{Seq: 4, Node: 1, Epoch: 1})
	if k := mm.ctl.kids[0]; len(mm.ctl.kids) != 2 || k.ledger != (mmLedger{}) || k.strobeAck != 0 {
		t.Fatalf("stray control answers changed the records: %d kids, kid 0 %+v", len(mm.ctl.kids), k)
	}
	if k := mm.ctl.kids[1]; k.ledger.seq != 4 || k.strobeAck != 4 {
		t.Fatalf("a direct child's control answers did not land: %+v", k)
	}
}

// TestChildDeadCompletesFold: a leaf that dies before answering holds
// its parent's HAVE fold. The MM's prune (ChildDead) takes it out of the
// fold, so the parent's HAVE goes up at once — vouching for the
// surviving subtree, not zeroed by the corpse — and carries that
// subtree's credit, with no ack after it.
func TestChildDeadCompletesFold(t *testing.T) {
	nm := &NM{
		node:    3,
		c:       discardConn(),
		bins:    make(map[int]*binState),
		relays:  make(map[int]*relayState),
		digests: make(map[int]ImageDigest),
		dialed:  map[string]*conn{"a": discardConn(), "b": discardConn()},
	}
	const job, chunks, size = 9, 2, 64
	image := fragPattern(job, 0, chunks*size)
	man := &Manifest{Job: job, Stripes: 1, ChunkBytes: size, TotalBytes: chunks * size,
		Hashes: make([]uint64, chunks),
		Tree:   []TreeNode{{Node: 1, Addr: "a", Size: 1}, {Node: 2, Addr: "b", Size: 1}}}
	for i := 0; i < chunks; i++ {
		c := image[i*size : (i+1)*size]
		man.Hashes[i] = chunkcache.Hash64(c)
	}
	var up bytes.Buffer
	nm.onManifest(man, &conn{w: bufio.NewWriter(&up)})
	for i := 0; i < chunks; i++ {
		f := newFrag(size)
		f.Job, f.Index = job, i
		copy(f.Data, image[i*size:(i+1)*size])
		nm.handleFrag(f, nm.relays[job].stripes[0].parent)
	}
	nm.onChildHave(&Have{Job: job, Node: 1, Bits: []uint64{0b11}}, nm.dialed["a"])
	if up.Len() != 0 {
		t.Fatalf("the fold went up with node 2 still owing: %d bytes", up.Len())
	}
	nm.onChildDead(&ChildDead{Job: job, Node: 2})
	var haves, acks int
	var full bool
	for c := (&conn{r: bufio.NewReader(&up)}); ; {
		m, err := c.recv()
		if err != nil {
			break
		}
		switch {
		case m.Have != nil:
			haves++
			full = m.Have.Bits[0] == 0b11
		case m.FragAck != nil:
			acks++
		}
	}
	if haves != 1 || !full || acks != 0 {
		t.Fatalf("after the prune the parent heard %d HAVEs (full %v) and %d acks; want one full HAVE alone", haves, full, acks)
	}
}

// TestPruneReturnsHeldBudget: pruning a direct child that still holds
// link budget for unacknowledged chunks hands all of it back — the prune
// itself, not a caller that happened to have released everything first.
func TestPruneReturnsHeldBudget(t *testing.T) {
	mm := &MM{cfg: MMConfig{Fanout: 1}}
	links := testLinks(3)
	for _, l := range links {
		l.c = discardConn()
		l.budget = newLinkBudget(1 << 20)
	}
	j := &liveJob{id: 1, nodes: links}
	j.cond = sync.NewCond(&j.mu)
	ss := &stripeState{id: 0}
	mm.rewireStripe(j, ss, 1)
	j.stripes = []*stripeState{ss}
	victim := ss.kid(1)
	lb := victim.link.budget
	for i := 0; i < 3; i++ {
		if err := lb.acquire(1000, time.Now().Add(time.Second)); err != nil {
			t.Fatal(err)
		}
		j.holdChunk(victim, i, 1000)
	}
	if lb.used != 3000 {
		t.Fatalf("budget in use = %d before the prune, want 3000", lb.used)
	}
	if err := mm.pruneStripe(j, ss, map[int]string{1: "test"}); err != nil {
		t.Fatal(err)
	}
	if lb.used != 0 {
		t.Fatalf("budget in use = %d after pruning its holder, want 0", lb.used)
	}
	if len(ss.kids) != 2 || ss.kid(1) != nil {
		t.Fatalf("pruned kid still has a record: %+v", ss.kids)
	}
}
