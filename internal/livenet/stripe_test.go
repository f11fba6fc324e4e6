package livenet

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
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
// a node dies mid-transfer — node 1, a stripe-0 relay and a stripe-1
// leaf, or node 3, a leaf in both stripes. Wherever the victim sat,
// every stripe replans (one recovery path: a new epoch and its manifest
// round), so each stripe's count is the job's replans, and the launch
// completes on the survivors with byte-identical images and dense ranks
// inside the usual recovery envelope.
func TestChaosStripedInteriorKill(t *testing.T) {
	const n = 8
	cfg := chaosMMConfig()
	cfg.Stripes = 2
	frags := chaosBinary / cfg.FragBytes
	// Sanity-pin each victim to the rotation rule: whether it relays in
	// stripe 0 and in stripe 1.
	victims := []struct {
		node           int
		relay0, relay1 bool
	}{
		{node: 1, relay0: true},
		{node: 3},
	}
	for _, v := range victims {
		for s, relay := range []bool{v.relay0, v.relay1} {
			if got := len(nodeChildren(stripePosOf(v.node, s, 2, n), n, cfg.Fanout)) > 0; got != relay {
				t.Fatalf("node %d relays in stripe %d: %v, want %v", v.node, s, got, relay)
			}
		}
	}
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, v := range victims {
				t.Run(fmt.Sprintf("node%d", v.node), func(t *testing.T) {
					stripedKill(t, cfg, n, v.node, seed, frags)
				})
			}
		})
	}
}

// stripedKill runs one TestChaosStripedInteriorKill case: victim's NM
// closes once its conn has read a seeded number of fragments.
func stripedKill(t *testing.T, cfg MMConfig, n, victim int, seed uint64, frags int) {
	// Each stripe delivers 16 of the 32 chunks, so a per-conn kill
	// point must land inside one stripe's stream.
	killAt := 4 + seedIntn(seed, 8)
	var victimNM atomic.Pointer[NM]
	var census frameCensus
	cfg.WrapConn = census.wrap
	mm, nms, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
		if node != victim {
			return NMConfig{WrapConn: census.wrap}
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
	if rep.Replans < 1 {
		t.Fatalf("node %d died mid-transfer but the job did not replan", victim)
	}
	for s, r := range rep.StripeReplans {
		if r != rep.Replans {
			t.Fatalf("stripe %d replanned %d times in a job of %d replans: %v", s, r, rep.Replans, rep.StripeReplans)
		}
	}
	if rep.Recovery <= 0 || rep.Recovery > 4*time.Second {
		t.Fatalf("recovery took %v, want within the diagnosis+replan envelope", rep.Recovery)
	}
	assertSurvivorImages(t, nms, victim, rep.JobID, frags)
	checkDenseRanks(t, census.launches(), n-1)
}

// TestChaosLaunchPastDrainedStripeDeath: a replan re-lays every stripe,
// one that drained before the death included, so the Launch rides a
// stripe-0 tree of survivors only. Caches are warmed by a cold launch; a
// rebuild patches only stripe 1's chunks, so stripe 0 drains on its HAVE
// round, and node 2 — a relay of stripe 0 (for nodes 6 and 7) and a
// leaf of stripe 1 — dies partway through stripe 1's delta stream. Both
// stripes replan; stripe 0's second manifest round finds every chunk in
// place and streams none (no stripe-0 fragment, and ChunksSent is stripe
// 1's alone). The MM writes only its own children in the re-laid tree,
// nodes 6 and 7 take their Launch from their new parents, and every
// survivor runs its process.
func TestChaosLaunchPastDrainedStripeDeath(t *testing.T) {
	const n, victim = 8, 2
	cfg := chaosMMConfig()
	cfg.Stripes = 2
	frags := chaosBinary / cfg.FragBytes
	if got := nodeChildren(stripePosOf(victim, 0, 2, n), n, cfg.Fanout); !reflect.DeepEqual(got, []int{6, 7}) {
		t.Fatalf("node %d relays to %v in stripe 0, want [6 7]", victim, got)
	}
	if len(nodeChildren(stripePosOf(victim, 1, 2, n), n, cfg.Fanout)) != 0 {
		t.Fatalf("node %d relays in stripe 1", victim)
	}
	// The delta rebuilds stripe 1's chunks from 17 on: 8 of its 16.
	patch := make(map[int]uint64)
	for i := 17; i < frags; i += 2 {
		patch[i] = 0x5ca1e
	}
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			// The victim reads stripe 1's fragments on one link from its
			// parent, which persists across jobs: 16 cold ones, then the
			// delta's. It dies on the 3rd to 6th of those.
			killAt := frags/2 + 2 + seedIntn(seed, 4)
			var victimNM atomic.Pointer[NM]
			var mmCensus, nmCensus frameCensus
			cfg := cfg
			cfg.WrapConn = mmCensus.wrap
			mm, nms, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
				base := NMConfig{CacheBytes: 8 << 20, WrapConn: nmCensus.wrap}
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
			if _, err := SubmitJob(mm.Addr(), deltaSpec(n, 0xd7a1, nil)); err != nil {
				t.Fatalf("cold warm-up launch failed: %v", err)
			}
			mmCensus.take()
			nmCensus.take()
			rep, err := SubmitJob(mm.Addr(), deltaSpec(n, 0xd7a1, patch))
			if err != nil {
				t.Fatalf("delta launch did not recover from killing node %d at frag %d: %v", victim, killAt, err)
			}
			if len(rep.Failed) != 1 || rep.Failed[0] != victim {
				t.Fatalf("report names failed nodes %v, want [%d]", rep.Failed, victim)
			}
			if !reflect.DeepEqual(rep.StripeReplans, []int{1, 1}) {
				t.Fatalf("StripeReplans = %v, want [1 1]: a replan re-lays every stripe", rep.StripeReplans)
			}
			if f := mmCensus.stripeFrags(0); f != 0 {
				t.Fatalf("the MM wrote %d stripe-0 fragments; every survivor held stripe 0's chunks", f)
			}
			if rep.ChunksSent < len(patch) || rep.ChunksSent > 2*len(patch) {
				t.Fatalf("ChunksSent = %d, want stripe 1's alone: its %d patched chunks, some of them twice", rep.ChunksSent, len(patch))
			}
			mmLaunches := mmCensus.launches()
			if len(mmLaunches) > cfg.Fanout {
				t.Fatalf("the MM wrote %d launches, want at most %d: one per direct child of the re-laid tree", len(mmLaunches), cfg.Fanout)
			}
			for _, nm := range nms {
				want := 2 // one process for each job
				if nm.Node() == victim {
					want = 1 // the cold launch's only
				}
				if got := nmLaunches(nm); got != want {
					t.Fatalf("node %d forked %d processes over both jobs, want %d", nm.Node(), got, want)
				}
			}
			checkDenseRanks(t, append(mmLaunches, nmCensus.launches()...), n-1)
			assertSurvivorImages(t, nms, victim, rep.JobID, frags)
		})
	}
}

// TestChaosDeathNeedsNoPeerDown: the MM's own link to a dead node is
// evidence enough. A depth-1 relay dies mid-stream, and every PeerDown an
// NM sends is lost, so the parent that relays to the victim in the other
// stripe never reports it. Both stripes end on the MM's evidence at
// once, one replan excludes the victim alone, and the survivors' images
// are identical.
func TestChaosDeathNeedsNoPeerDown(t *testing.T) {
	const n, victim = 16, 1
	cfg := chaosMMConfig()
	cfg.Stripes = 2
	cfg.AckTimeout = 5 * time.Second
	if !slices.Contains(mmChildren(n, cfg.Fanout), victim) || len(nodeChildren(victim, n, cfg.Fanout)) == 0 {
		t.Fatalf("node %d is not a depth-1 relay of stripe 0", victim)
	}
	killAt := 4 + seedIntn(chaosSeeds[0], 8)
	var victimNM atomic.Pointer[NM]
	mm, nms, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
		var dials atomic.Int32
		c := NMConfig{Dialer: func(addr string) (net.Conn, error) {
			// An NM's first dial is its MM link, which PeerDown rides.
			c, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil || dials.Add(1) != 1 {
				return c, err
			}
			plan := faultconn.NewPlan()
			for i := 0; i < 8; i++ {
				plan.CtlFaults = append(plan.CtlFaults, faultconn.CtlFault{Kind: wire.PeerDown, Index: i, Op: "drop"})
			}
			return faultconn.Wrap(c, plan), nil
		}}
		if node == victim {
			c.WrapConn = func(c net.Conn) net.Conn {
				plan := faultconn.NewPlan()
				plan.CloseAtReadFrag = killAt
				plan.OnFault = func(string) {
					if nm := victimNM.Load(); nm != nil {
						go nm.Close()
					}
				}
				return faultconn.Wrap(c, plan)
			}
		}
		return c
	})
	victimNM.Store(nms[victim])
	rep, err := mm.RunJob(JobSpec{
		Name: "no-peerdown", BinaryBytes: chaosBinary, Nodes: n, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	})
	if err != nil {
		t.Fatalf("launch did not recover from killing node %d at frag %d: %v", victim, killAt, err)
	}
	if len(rep.Failed) != 1 || rep.Failed[0] != victim || rep.Replans != 1 {
		t.Fatalf("report names failed nodes %v after %d replans, want [%d] after 1", rep.Failed, rep.Replans, victim)
	}
	if rep.Send >= time.Second {
		t.Fatalf("send took %v: the job waited for a report that never came", rep.Send)
	}
	assertSurvivorImages(t, nms, victim, rep.JobID, chaosBinary/cfg.FragBytes)
}

// blackhole is a Dialer that dials TCP, except to the address dead holds
// once it is set: a dial there blocks 2 s — or until unblock closes — and
// fails as a dial to a host that is gone does, not refused.
func blackhole(dead *atomic.Pointer[string], unblock <-chan struct{}) Dialer {
	return func(addr string) (net.Conn, error) {
		if a := dead.Load(); a != nil && *a == addr {
			select {
			case <-time.After(2 * time.Second):
			case <-unblock:
			}
			return nil, fmt.Errorf("dial %s: i/o timeout (blackholed)", addr)
		}
		return net.DialTimeout("tcp", addr, 5*time.Second)
	}
}

// TestChaosBlackholedRelayDial: no read loop waits on a relay dial. A
// depth-1 relay dies mid-stream, and from then on every dial to its
// address blackholes. Its parents in the other stripe and in the control
// tree redial it on its link writer, off the read loops that must relay
// the replanned trees, so one replan excludes the victim alone, the job
// sends in well under one blocked dial, and the survivors' images are
// identical.
func TestChaosBlackholedRelayDial(t *testing.T) {
	const n, victim = 16, 1
	cfg := chaosMMConfig()
	cfg.Stripes = 2
	cfg.AckTimeout = 5 * time.Second
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			killAt := 4 + seedIntn(seed, 8)
			var victimNM atomic.Pointer[NM]
			var dead atomic.Pointer[string]
			unblock := make(chan struct{})
			mm, nms, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
				c := NMConfig{Dialer: blackhole(&dead, unblock)}
				if node == victim {
					c.WrapConn = func(c net.Conn) net.Conn {
						plan := faultconn.NewPlan()
						plan.CloseAtReadFrag = killAt
						plan.OnFault = func(string) {
							if nm := victimNM.Load(); nm != nil {
								addr := nm.PeerAddr()
								dead.Store(&addr)
								go nm.Close()
							}
						}
						return faultconn.Wrap(c, plan)
					}
				}
				return c
			})
			t.Cleanup(func() { close(unblock) }) // before the cluster's shutdown
			victimNM.Store(nms[victim])
			rep, err := mm.RunJob(JobSpec{
				Name: "blackholed", BinaryBytes: chaosBinary, Nodes: n, PEsPerNode: 1,
				Program: ProgramSpec{Kind: "exit"},
			})
			if err != nil {
				t.Fatalf("launch did not recover from killing node %d at frag %d: %v", victim, killAt, err)
			}
			if len(rep.Failed) != 1 || rep.Failed[0] != victim || rep.Replans != 1 {
				t.Fatalf("report names failed nodes %v after %d replans, want [%d] after 1", rep.Failed, rep.Replans, victim)
			}
			if rep.Send >= time.Second {
				t.Fatalf("send took %v: the job waited on a blackholed dial", rep.Send)
			}
			assertSurvivorImages(t, nms, victim, rep.JobID, chaosBinary/cfg.FragBytes)
		})
	}
}

// TestChaosBlackholedLaunchRelay: a stripe-0 child becomes unreachable
// once the transfer has drained — its relay link dies as its parent
// writes it the Launch, and its address blackholes. The parent relays
// each child's Launch on that child's own link writer, so neither the
// parent nor the child's sibling waits out the redial: both fork within
// 500 ms of the failed write. The writer then reports the child, and the
// MM writes it the Launch itself.
func TestChaosBlackholedLaunchRelay(t *testing.T) {
	const n, parent, victim, sibling = 4, 0, 2, 3 // MM -> {0, 1}; node 0 relays to {2, 3}
	var victimAddr, dead atomic.Pointer[string]
	var wrapped atomic.Bool
	var failedAt atomic.Int64
	fired := make(chan struct{})
	unblock := make(chan struct{})
	mm, nms, _ := chaosCluster(t, n, chaosMMConfig(), func(node int) NMConfig {
		dial := blackhole(&dead, unblock)
		if node != parent {
			return NMConfig{Dialer: dial}
		}
		return NMConfig{Dialer: func(addr string) (net.Conn, error) {
			c, err := dial(addr)
			a := victimAddr.Load()
			if err != nil || a == nil || *a != addr || wrapped.Swap(true) {
				return c, err
			}
			plan := faultconn.NewPlan()
			plan.CtlFaults = []faultconn.CtlFault{{Kind: wire.Launch, Index: 0, Op: "close"}}
			plan.OnFault = func(string) {
				dead.Store(a)
				failedAt.Store(time.Now().UnixNano())
				close(fired)
			}
			return faultconn.Wrap(c, plan), nil
		}}
	})
	t.Cleanup(func() {
		select {
		case <-unblock:
		default:
			close(unblock) // before the cluster's shutdown
		}
	})
	if kids := nodeChildren(parent, n, 2); !slices.Equal(kids, []int{victim, sibling}) {
		t.Fatalf("node %d relays to %v, want [%d %d]", parent, kids, victim, sibling)
	}
	addr := nms[victim].PeerAddr()
	victimAddr.Store(&addr)
	type result struct {
		rep Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := mm.RunJob(JobSpec{Name: "blackholed-launch", BinaryBytes: chaosBinary, Nodes: n, PEsPerNode: 1,
			Program: ProgramSpec{Kind: "exit"}})
		done <- result{rep, err}
	}()
	select {
	case <-fired:
	case r := <-done:
		t.Fatalf("the job ended before node %d relayed its Launch: %+v, %v", parent, r.rep, r.err)
	case <-time.After(10 * time.Second):
		t.Fatal("node 0 never relayed a Launch")
	}
	// A node has forked, and its exit processes ended, once it counts its
	// launch and holds no gate.
	ran := func(nm *NM) bool {
		nm.mu.Lock()
		defer nm.mu.Unlock()
		return nm.launches > 0 && len(nm.jobs) == 0
	}
	deadline := time.Unix(0, failedAt.Load()).Add(500 * time.Millisecond)
	for !ran(nms[parent]) || !ran(nms[sibling]) {
		if time.Now().After(deadline) {
			t.Fatalf("500 ms after the failed write, node %d ran: %v, node %d ran: %v; a Launch waits on a blackholed dial",
				parent, ran(nms[parent]), sibling, ran(nms[sibling]))
		}
		time.Sleep(time.Millisecond)
	}
	close(unblock)
	r := <-done
	if r.err != nil || len(r.rep.Failed) != 0 || nmLaunches(nms[victim]) != 1 {
		t.Fatalf("job: %v, failed %v; node %d forked %d processes; want a clean job with one on every node",
			r.err, r.rep.Failed, victim, nmLaunches(nms[victim]))
	}
}

// stallProbe is an MM WrapConn that records the type of every frame each
// link wrote, and holds every write to the link the MM wrote its first
// fragment to until release closes.
type stallProbe struct {
	mu      sync.Mutex
	held    net.Conn
	written map[net.Conn][]byte
	release chan struct{}
}

func (p *stallProbe) wrap(c net.Conn) net.Conn { return stallConn{c, p} }

type stallConn struct {
	net.Conn
	p *stallProbe
}

func (c stallConn) Write(b []byte) (int, error) {
	p := c.p
	p.mu.Lock()
	if p.held == nil && b[0] == wire.Frag {
		p.held = c.Conn
	}
	held := p.held == c.Conn
	p.mu.Unlock()
	if held {
		<-p.release
	}
	n, err := c.Conn.Write(b)
	p.mu.Lock()
	p.written[c.Conn] = append(p.written[c.Conn], b[0])
	p.mu.Unlock()
	return n, err
}

// fed reports whether a link other than the held one has written a
// manifest and a fragment.
func (p *stallProbe) fed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c, types := range p.written {
		if c != p.held && slices.Contains(types, wire.Manifest) && slices.Contains(types, wire.Frag) {
			return true
		}
	}
	return false
}

// TestMMFanOutStalledChild: the MM writes a round to all its tree
// children at once. Every write to the child stripe 0's first fragment
// goes to is held; its sibling must still get its manifest and that
// fragment while the write is held, and once it is let go the job
// completes with identical images on every node.
func TestMMFanOutStalledChild(t *testing.T) {
	const n = 4 // MM -> {0, 1}; each relays to one more
	probe := &stallProbe{written: map[net.Conn][]byte{}, release: make(chan struct{})}
	cfg := chaosMMConfig()
	cfg.WrapConn = probe.wrap
	mm, nms, _ := chaosCluster(t, n, cfg, nil)
	var once sync.Once
	let := func() { once.Do(func() { close(probe.release) }) }
	t.Cleanup(let) // before the cluster's shutdown
	type result struct {
		rep Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := mm.RunJob(JobSpec{Name: "fan-out", BinaryBytes: chaosBinary, Nodes: n, PEsPerNode: 1,
			Program: ProgramSpec{Kind: "exit"}})
		done <- result{rep, err}
	}()
	for deadline := time.Now().Add(2 * time.Second); !probe.fed(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("2 s into the held write, no sibling has its manifest and fragment 0: the MM's writes to its children wait on one another")
		}
	}
	select {
	case r := <-done:
		t.Fatalf("the job ended while a child's write was held: %+v, %v", r.rep, r.err)
	default:
	}
	let()
	r := <-done
	if r.err != nil || len(r.rep.Failed) != 0 || r.rep.Replans != 0 {
		t.Fatalf("job: %v, failed %v after %d replans; want a clean job", r.err, r.rep.Failed, r.rep.Replans)
	}
	assertSurvivorImages(t, nms, -1, r.rep.JobID, chaosBinary/cfg.FragBytes)
}

// TestStaleEpochManifestIsolated (satellite): a Manifest from a
// superseded epoch racing a replan on one stripe must be dropped in
// full — it may not install its tree on that stripe, bind its parent or
// draw an answer, and it may not touch any other stripe's epoch, parent
// or relay, or the written bitmap.
func TestStaleEpochManifestIsolated(t *testing.T) {
	nm := bareNM(0, discardConn())
	const job = 7
	man := func(stripe, epoch int) *Manifest {
		return &Manifest{Job: job, Epoch: epoch, Stripe: stripe, Stripes: 2, ChunkBytes: 4,
			TotalBytes: 16, Hashes: make([]uint64, 4)}
	}

	// Stripe 0's manifest opens the transfer; stripe 1 has replanned to
	// epoch 2 and its manifest installed that.
	parent0, parent1 := discardConn(), discardConn()
	nm.onManifest(man(0, 0), parent0)
	st := nm.jobs[job]
	if st == nil || st.man == nil || st.k != 2 || len(st.stripes) != 2 {
		t.Fatalf("stripe 0 manifest did not open the transfer: %+v", st)
	}
	nm.onManifest(man(1, 2), parent1)
	if st.stripes[0].parent != parent0 || st.stripes[1].parent != parent1 || st.stripes[1].epoch != 2 {
		t.Fatal("current-epoch manifests did not bind their stripes")
	}
	written := append([]uint64(nil), st.written...)

	// A stale manifest for stripe 1 (epoch 1) must change nothing.
	var answers bytes.Buffer
	stale := man(1, 1)
	stale.Tree = []TreeNode{{Node: 9, Addr: "nowhere", Size: 1}}
	nm.onManifest(stale, writeConn(&answers))
	if s1 := st.stripes[1]; s1.parent != parent1 || s1.epoch != 2 || len(s1.children) != 0 {
		t.Fatalf("stale manifest disturbed stripe 1: %+v", s1)
	}
	if answers.Len() != 0 {
		t.Fatalf("stale manifest was answered with %d bytes", answers.Len())
	}
	if s0 := st.stripes[0]; s0.parent != parent0 || s0.epoch != 0 {
		t.Fatal("stale stripe-1 manifest disturbed stripe 0's binding")
	}
	if nm.jobs[job] != st || !reflect.DeepEqual(st.written, written) {
		t.Fatal("stale manifest touched the receive state")
	}
}

// TestPlanRewiresOnlyNamedStripe: the one onManifest installs a stripe's
// relay at launch and rewires it at a replan alike, one stripe at a time.
// A manifest of a newer epoch resets its stripe to that epoch and the
// tree it carries, bound to the link it came down with its answers
// restarted, and leaves the other stripe's epoch, children, propagated
// credit, HAVE flag and bound parent untouched. A manifest of the
// current epoch delivered again — a relay redial can deliver one twice —
// reinstalls nothing: the children, and what they reported, stay.
func TestPlanRewiresOnlyNamedStripe(t *testing.T) {
	var up bytes.Buffer
	nm := bareNM(3, writeConn(&up))
	for _, addr := range []string{"a", "b", "c"} {
		nm.writers[addr] = &linkWriter{c: discardConn()}
	}
	const job = 7
	man := func(stripe, epoch int, kid TreeNode) *Manifest {
		return &Manifest{Job: job, Epoch: epoch, Stripe: stripe, Stripes: 2, ChunkBytes: 4, TotalBytes: 16,
			Hashes: make([]uint64, 4), Tree: []TreeNode{kid}}
	}

	parent0, parent1 := discardConn(), discardConn()
	nm.onManifest(man(0, 0, TreeNode{Node: 1, Addr: "a", Size: 1}), parent0)
	nm.onManifest(man(1, 0, TreeNode{Node: 2, Addr: "b", Size: 1}), parent1)
	nm.wg.Wait() // the children's link writers bind them
	rs := nm.jobs[job]
	if rs == nil || len(rs.stripes) != 2 {
		t.Fatalf("launch manifests installed %+v", rs)
	}
	s0, s1 := rs.stripes[0], rs.stripes[1]
	if len(s0.children) != 1 || s0.children[0].node != 1 || s0.children[0].c != nm.writers["a"].c || s0.parent != parent0 ||
		len(s1.children) != 1 || s1.children[0].node != 2 || s1.children[0].c != nm.writers["b"].c || s1.parent != parent1 {
		t.Fatalf("launch manifests installed stripe 0 %+v, stripe 1 %+v", s0, s1)
	}
	// Mid-transfer state on both stripes.
	s0.sentUp, s0.haveSent = 5, true
	s1.sentUp, s1.haveSent = 6, true
	kid0 := s0.children[0]
	kid0.acked = 2

	relinked := discardConn()
	nm.onManifest(man(1, 3, TreeNode{Node: 4, Addr: "c", Size: 1}), relinked)
	nm.wg.Wait()
	if nm.jobs[job] != rs || rs.stripes[0] != s0 || rs.stripes[1] != s1 {
		t.Fatal("a one-stripe rewire replaced the job's relay state")
	}
	if s1.epoch != 3 || len(s1.children) != 1 || s1.children[0].node != 4 || s1.children[0].c != nm.writers["c"].c ||
		s1.parent != relinked || s1.sentUp != 0 || s1.haveSent {
		t.Fatalf("stripe 1 after its rewire: %+v", s1)
	}
	if s0.epoch != 0 || len(s0.children) != 1 || s0.children[0] != kid0 ||
		s0.parent != parent0 || s0.sentUp != 5 || !s0.haveSent {
		t.Fatalf("stripe 0 disturbed by stripe 1's rewire: %+v", s0)
	}

	// Stripe 0's manifest arrives again in its epoch.
	nm.onManifest(man(0, 0, TreeNode{Node: 1, Addr: "a", Size: 1}), parent0)
	if len(s0.children) != 1 || s0.children[0] != kid0 || kid0.acked != 2 || s0.sentUp != 5 || !s0.haveSent {
		t.Fatalf("a same-epoch manifest reinstalled stripe 0: %+v, child %+v", s0, kid0)
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
	mm.rewireTree(j, mm.stripeCountFor(j))
	j.epoch = 2 // the failed attempt replanned twice
	mm.rewireTree(j, mm.stripeCountFor(j))
	if j.epoch != 3 || len(j.stripes) != 2 {
		t.Fatalf("re-placement opened %d stripes at epoch %d, want 2 at 3", len(j.stripes), j.epoch)
	}

	nm := bareNM(3, discardConn())
	nm.writers["c"] = &linkWriter{c: discardConn()}
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
		nm.handleFrag(f)
	}
	if _, ok := nm.ImageDigest(job); !ok {
		t.Fatal("the failed attempt did not leave the image")
	}

	// The re-placed attempt makes this node interior on stripe 0.
	var up bytes.Buffer
	link := writeConn(&up)
	nm.onManifest(man(0, 3, TreeNode{Node: 4, Addr: "c", Size: 1}), link)
	nm.wg.Wait()
	sr := nm.jobs[job].stripes[0]
	if sr.epoch != 3 || sr.parent != link || len(sr.children) != 1 || sr.children[0].node != 4 || sr.haveSent {
		t.Fatalf("the re-placed attempt's manifest did not reinstall stripe 0: %+v", sr)
	}
	nm.onChildHave(&Have{Job: job, Node: 4, Epoch: 3, Bits: []uint64{0b11}}, nm.writers["c"].c)
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

// TestStrayAnswersAreDropped: an ack, a HAVE or a pong naming a node
// that is not a direct child of the MM in the tree it speaks for finds no
// record, and must not grow one.
func TestStrayAnswersAreDropped(t *testing.T) {
	mm := &MM{cfg: MMConfig{Fanout: 2}, jobs: map[int]*liveJob{}, probes: map[int64]*probeRound{}}
	j := &liveJob{id: 1, nodes: testLinks(7)}
	j.cond = sync.NewCond(&j.mu)
	mm.jobs[j.id] = j
	mm.rewireTree(j, 1)
	ss := j.stripes[0]
	if len(ss.kids) != 2 || kidOf(ss.kids, 0) == nil || kidOf(ss.kids, 1) == nil || kidOf(ss.kids, 2) != nil {
		t.Fatalf("kids of a 7-node fanout-2 tree: %+v", ss.kids)
	}
	// Node 2 is in the tree, below node 0; node 99 is in no tree.
	for _, node := range []int{2, 99} {
		mm.onFragAck(&FragAck{Job: 1, Index: 3, Node: node, OK: true})
		mm.onHave(&Have{Job: 1, Node: node, Bits: []uint64{1}})
	}
	mm.onFragAck(&FragAck{Job: 1, Index: 0, Node: 1, OK: true})
	mm.onHave(&Have{Job: 1, Node: 1, Bits: []uint64{}})
	if k := ss.kids[0]; len(ss.kids) != 2 || k.acked != 0 || k.have != nil {
		t.Fatalf("stray stripe answers changed the records: %d kids, kid 0 %+v", len(ss.kids), k)
	}
	if k := ss.kids[1]; k.acked != 1 || k.have == nil {
		t.Fatalf("a direct child's answers did not land: %+v", k)
	}

	links := testLinks(7)
	mm.ctl.epoch = 1
	mm.ctl.kids = newKids(layTree(links, 2))
	for _, node := range []int{2, 99} {
		mm.onPong(&Pong{Seq: 5, Node: node, Epoch: 1})
	}
	mm.onPong(&Pong{Seq: 4, Node: 1, Epoch: 1})
	if k := mm.ctl.kids[0]; len(mm.ctl.kids) != 2 || k.ledger != (pongLedger{}) || k.acked != 0 {
		t.Fatalf("stray control answers changed the records: %d kids, kid 0 %+v", len(mm.ctl.kids), k)
	}
	if k := mm.ctl.kids[1]; k.ledger.seq != 4 || k.acked != 4 {
		t.Fatalf("a direct child's control answers did not land: %+v", k)
	}
}

// TestNMAnswersMatchedByLink: on an NM, a tree answer belongs to the
// child bound to the link it arrived on, whatever node it names. A pong
// naming a control child but arriving on a link no child is bound to
// changes no record; on the child's own link it lands.
func TestNMAnswersMatchedByLink(t *testing.T) {
	bound3, bound4, stray := discardConn(), discardConn(), discardConn()
	nm := &NM{node: 1}
	nm.ctl = &nmCtl{treeRole: treeRole{epoch: 3, parent: discardConn(), children: []*relayChild{
		{node: 3, size: 1, c: bound3},
		{node: 4, size: 1, c: bound4},
	}}}
	kid3, kid4 := nm.ctl.children[0], nm.ctl.children[1]
	nm.onCtlPong(&Pong{Seq: 5, Node: 3, Epoch: 3, Absent: 1}, stray)
	for _, k := range nm.ctl.children {
		if k.ledger != (pongLedger{}) {
			t.Fatalf("a pong on an unbound link changed node %d's record: ledger %+v", k.node, k.ledger)
		}
	}
	nm.onCtlPong(&Pong{Seq: 5, Node: 3, Epoch: 3, Absent: 1}, bound3)
	if kid3.ledger != (pongLedger{seq: 5, absent: 1}) {
		t.Fatalf("a pong on the child's own link did not land: ledger %+v", kid3.ledger)
	}
	if kid4.ledger != (pongLedger{}) {
		t.Fatalf("node 3's pong changed node 4's record: ledger %+v", kid4.ledger)
	}
}
