package livenet

import (
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/livenet/faultconn"
	"repro/internal/livenet/wire"
	"repro/internal/rng"
)

// chaosSeeds is the fixed seed matrix the CI chaos step runs; each seed
// deterministically picks the fragment at which the victim dies.
var chaosSeeds = []uint64{1, 2, 3}

// seedIntn is the first draw in [0, n) of the splitmix64 stream seeded
// with seed: how a chaos schedule picks its fault point.
func seedIntn(seed uint64, n int) int {
	s := rng.SplitMix64(seed)
	return s.Intn(n)
}

// chaosCluster boots an MM and n NMs where each NM's config comes from
// nmCfg(node) — the hook the chaos suite uses to arm fault plans on
// selected victims. Shutdown is explicit (returned close func), so leak
// tests can assert the goroutine count after teardown.
func chaosCluster(t testing.TB, n int, cfg MMConfig, nmCfg func(node int) NMConfig) (*MM, []*NM, func()) {
	t.Helper()
	mm, err := NewMM("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var nms []*NM
	for i := 0; i < n; i++ {
		var c NMConfig
		if nmCfg != nil {
			c = nmCfg(i)
		}
		nm, err := NewNMConfig(mm.Addr(), i, 4, c)
		if err != nil {
			t.Fatal(err)
		}
		nms = append(nms, nm)
	}
	shutdown := func() {
		for _, nm := range nms {
			nm.Close()
		}
		mm.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(mm.NMs()) < n {
		if time.Now().After(deadline) {
			shutdown()
			t.Fatalf("only %d of %d NMs registered", len(mm.NMs()), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Cleanup(shutdown)
	return mm, nms, shutdown
}

// chaosMMConfig is the shared fast-failure-detection tuning: 1 MB image
// in 32 fragments, so kill points land mid-transfer.
func chaosMMConfig() MMConfig {
	return MMConfig{
		Fanout:     2,
		FragBytes:  32 << 10,
		AckTimeout: 700 * time.Millisecond,
	}
}

const chaosBinary = 1 << 20 // 32 fragments of 32 KiB

// treePositions returns one node per tree role on an n-node fanout-f
// tree: a root child (direct MM child), an interior relay (has children
// but is not an MM child), and a leaf.
func treePositions(t *testing.T, n, fanout int) map[string]int {
	t.Helper()
	roots := mmChildren(n, fanout)
	isRoot := make(map[int]bool)
	for _, p := range roots {
		isRoot[p] = true
	}
	pos := map[string]int{"root-child": roots[0], "leaf": n - 1}
	for p := 0; p < n; p++ {
		if !isRoot[p] && len(nodeChildren(p, n, fanout)) > 0 {
			pos["interior"] = p
			break
		}
	}
	if _, ok := pos["interior"]; !ok {
		t.Fatalf("no interior position on a %d-node fanout-%d tree", n, fanout)
	}
	if len(nodeChildren(pos["leaf"], n, fanout)) != 0 {
		t.Fatalf("position %d is not a leaf", pos["leaf"])
	}
	return pos
}

// assertSurvivorImages checks that every survivor holds a complete,
// byte-identical image for the job.
func assertSurvivorImages(t *testing.T, nms []*NM, victim, job, frags int) {
	t.Helper()
	var ref ImageDigest
	seen := false
	for _, nm := range nms {
		if nm.Node() == victim {
			continue
		}
		d, ok := nm.ImageDigest(job)
		if !ok {
			t.Fatalf("survivor %d has no image for job %d", nm.Node(), job)
		}
		if d.Frags != frags {
			t.Fatalf("survivor %d holds %d fragments, want %d", nm.Node(), d.Frags, frags)
		}
		if !seen {
			ref, seen = d, true
		} else if d != ref {
			t.Fatalf("survivor %d image digest %+v differs from %+v", nm.Node(), d, ref)
		}
	}
}

// TestChaosKillEachTreePosition is the core acceptance scenario: for
// every tree role (root child, interior relay, leaf) and every seed in
// the fixed matrix, the NM at that position is hard-killed
// mid-transfer (its inbound conn dies at a seed-chosen fragment and the
// whole dæmon goes down with it). The launch must complete on the
// survivors with byte-identical images, naming the victim in the
// report.
func TestChaosKillEachTreePosition(t *testing.T) {
	const n = 7
	cfg := chaosMMConfig()
	positions := treePositions(t, n, cfg.Fanout)
	for role, victim := range positions {
		for _, seed := range chaosSeeds {
			t.Run(fmt.Sprintf("%s-node%d-seed%d", role, victim, seed), func(t *testing.T) {
				// The victim dies somewhere in the middle half of the
				// stream, position chosen by the seed.
				killAt := 8 + seedIntn(seed, 16)
				// The fault plan is armed before the victim NM exists, so
				// the kill callback resolves it through an atomic holder.
				var victimNM atomic.Pointer[NM]
				mm, nms, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
					if node != victim {
						return NMConfig{}
					}
					return NMConfig{WrapConn: func(c net.Conn) net.Conn {
						plan := faultconn.NewPlan()
						plan.CloseAtReadFrag = killAt
						plan.OnFault = func(string) {
							// A read-side kill models a crashed dæmon, not
							// just a dropped link: take the whole NM down.
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
					Name: "chaos", BinaryBytes: chaosBinary, Nodes: n, PEsPerNode: 1,
					Program: ProgramSpec{Kind: "exit"},
				})
				if err != nil {
					t.Fatalf("launch did not recover from killing %s node %d at frag %d: %v",
						role, victim, killAt, err)
				}
				if len(rep.Failed) != 1 || rep.Failed[0] != victim {
					t.Fatalf("report names failed nodes %v, want [%d]", rep.Failed, victim)
				}
				if rep.Replans < 1 {
					t.Fatalf("recovery happened without a replan? %+v", rep)
				}
				assertSurvivorImages(t, nms, victim, rep.JobID, chaosBinary/cfg.FragBytes)
				for _, nm := range nms {
					if got := nmLaunches(nm); nm.Node() == victim && got != 0 {
						t.Fatalf("dead node %d launched %d processes", victim, got)
					}
				}
			})
		}
	}
}

// TestChaosOneWayPartition: a leaf NM keeps its outbound path (it
// registers, its conns look open) but never receives another byte — an
// asymmetric partition. It never confirms the relay plan, and no closed
// link names it, so recovery probes: it fails the isolation probe and is
// excluded; the launch completes on the rest.
func TestChaosOneWayPartition(t *testing.T) {
	const n, victim = 5, 4
	cfg := chaosMMConfig()
	mm, nms, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
		if node != victim {
			return NMConfig{}
		}
		return NMConfig{WrapConn: func(c net.Conn) net.Conn {
			plan := faultconn.NewPlan()
			plan.BlockReads = true
			return faultconn.Wrap(c, plan)
		}}
	})
	rep, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "partition", BinaryBytes: chaosBinary, Nodes: n, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	})
	if err != nil {
		t.Fatalf("launch did not route around partitioned node %d: %v", victim, err)
	}
	if len(rep.Failed) != 1 || rep.Failed[0] != victim {
		t.Fatalf("report names failed nodes %v, want [%d]", rep.Failed, victim)
	}
	mm.mu.Lock()
	probed := mm.probeSeq > 0
	mm.mu.Unlock()
	if !probed {
		t.Fatal("a failure no link named was diagnosed without an isolation probe")
	}
	assertSurvivorImages(t, nms, victim, rep.JobID, chaosBinary/cfg.FragBytes)
}

// TestNamedDeathProbesNobody: an interior relay dies mid-stream, and its
// MM link closes with it, so the MM's own evidence names the dead node.
// Recovery takes that word: the MM writes no isolation probe (no ping
// at all, as no heartbeat runs, and no probe sequence is drawn), replans
// once, and the launch completes on the survivors with byte-identical
// images. TestChaosOneWayPartition is the other path: a failure nothing
// names still probes.
func TestNamedDeathProbesNobody(t *testing.T) {
	const n = 7
	cfg := chaosMMConfig()
	victim := treePositions(t, n, cfg.Fanout)["interior"]
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("node%d-seed%d", victim, seed), func(t *testing.T) {
			killAt := 8 + seedIntn(seed, 16)
			var census frameCensus
			cfg := cfg
			cfg.WrapConn = census.wrap
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
				Name: "named-death", BinaryBytes: chaosBinary, Nodes: n, PEsPerNode: 1,
				Program: ProgramSpec{Kind: "exit"},
			})
			if err != nil {
				t.Fatalf("launch did not recover from killing node %d at frag %d: %v", victim, killAt, err)
			}
			if pings := census.take()["ping"]; pings != 0 {
				t.Errorf("the MM wrote %d pings to diagnose a death its own link named", pings)
			}
			mm.mu.Lock()
			seq := mm.probeSeq
			mm.mu.Unlock()
			if seq != 0 {
				t.Errorf("recovery drew %d probe rounds, want none", seq)
			}
			if rep.Replans != 1 || len(rep.Failed) != 1 || rep.Failed[0] != victim {
				t.Fatalf("replans %d, failed %v; want 1 replan and [%d]", rep.Replans, rep.Failed, victim)
			}
			assertSurvivorImages(t, nms, victim, rep.JobID, chaosBinary/cfg.FragBytes)
		})
	}
}

// TestChaosCorruptRelayFailsFast: wire-level corruption on a relay link
// is a content failure, not a liveness failure — the job must fail fast
// naming the rejecting node, with no replan attempt.
func TestChaosCorruptRelayFailsFast(t *testing.T) {
	const n = 3 // MM -> {0, 1}, node 0 relays to node 2
	cfg := chaosMMConfig()
	mm, _, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
		if node != 0 {
			return NMConfig{}
		}
		return NMConfig{Dialer: func(addr string) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			plan := faultconn.NewPlan()
			plan.CorruptFrag = 2
			return faultconn.Wrap(c, plan), nil
		}}
	})
	start := time.Now()
	_, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "corrupt", BinaryBytes: chaosBinary, Nodes: n, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	})
	if err == nil {
		t.Fatal("corrupted relay stream must fail the job")
	}
	if !strings.Contains(err.Error(), "node 2") || !strings.Contains(err.Error(), "rejected fragment") {
		t.Fatalf("error should name the rejecting node and fragment: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("content failure took %v — it must fail fast, not wait out recovery", elapsed)
	}
}

// TestChaosDuplicateAndDelayTolerated: a relay link that duplicates one
// frag frame and delays every write must not corrupt delivery — the
// receiver re-acks the duplicate without rewriting it.
func TestChaosDuplicateAndDelayTolerated(t *testing.T) {
	const n = 3
	cfg := chaosMMConfig()
	mm, nms, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
		if node != 0 {
			return NMConfig{}
		}
		return NMConfig{Dialer: func(addr string) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			plan := faultconn.NewPlan()
			plan.DuplicateFrag = 1
			plan.WriteDelay = time.Millisecond
			return faultconn.Wrap(c, plan), nil
		}}
	})
	rep, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "dup", BinaryBytes: chaosBinary, Nodes: n, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	})
	if err != nil {
		t.Fatalf("duplicated frame broke the launch: %v", err)
	}
	if len(rep.Failed) != 0 {
		t.Fatalf("no node should be declared failed, got %v", rep.Failed)
	}
	frags := chaosBinary / cfg.FragBytes
	for _, nm := range nms {
		if nm.FragsWritten() != frags {
			t.Fatalf("node %d wrote %d fragments, want %d (duplicate must not be double-counted)",
				nm.Node(), nm.FragsWritten(), frags)
		}
	}
	assertSurvivorImages(t, nms, -1, rep.JobID, frags)
}

// TestChaosDialRetryAbsorbsTransients: an NM whose first two dial
// attempts fail still comes up — the capped-backoff retry in the dial
// path absorbs transient connection faults before they become failures.
func TestChaosDialRetryAbsorbsTransients(t *testing.T) {
	faults := make(chan string, 8)
	mm, _, _ := chaosCluster(t, 2, chaosMMConfig(), func(node int) NMConfig {
		if node != 1 {
			return NMConfig{}
		}
		return NMConfig{Dialer: faultconn.FlakyDialer(2, func(k string) { faults <- k })}
	})
	rep, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "flaky", BinaryBytes: 256 << 10, Nodes: 2, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	})
	if err != nil {
		t.Fatalf("launch failed despite dial retry: %v", err)
	}
	if rep.Total <= 0 {
		t.Fatal("bad report")
	}
	if len(faults) != 2 {
		t.Fatalf("%d injected dial failures consumed, want 2", len(faults))
	}
}

// TestChaosSpoolAtomicity: with SpoolDir set, a failed transfer must
// leave no binary (and no temp debris) on disk, while a successful one
// publishes the image under its final name — the temp-file + rename
// contract.
func TestChaosSpoolAtomicity(t *testing.T) {
	const n = 3
	cfg := chaosMMConfig()
	spools := make([]string, n)
	for i := range spools {
		spools[i] = t.TempDir()
	}
	mm, _, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
		c := NMConfig{SpoolDir: spools[node]}
		if node == 0 {
			c.Dialer = func(addr string) (net.Conn, error) {
				nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
				if err != nil {
					return nil, err
				}
				plan := faultconn.NewPlan()
				plan.CorruptFrag = 3
				return faultconn.Wrap(nc, plan), nil
			}
		}
		return c
	})

	// Job 1 dies on the corrupted relay link; nobody may keep an image.
	if _, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "doomed", BinaryBytes: chaosBinary, Nodes: n, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	}); err == nil {
		t.Fatal("corrupted job should fail")
	}
	// The Abort fan-out is asynchronous: poll until every spool dir is
	// empty (no committed image, no temp debris).
	deadline := time.Now().Add(3 * time.Second)
	for {
		dirty := ""
		for i, dir := range spools {
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				dirty = fmt.Sprintf("node %d: %s", i, e.Name())
			}
		}
		if dirty == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spool not clean after abort: %s left behind", dirty)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Job 2 runs on nodes 1..2 only (excluding the corrupting link's
	// dialer on node 0 is not possible per-job, but the corrupt trigger
	// already fired once per conn plan and relay links are per-pair, so
	// just submit on 2 nodes that don't traverse node 0).
	rep, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "ok", BinaryBytes: 256 << 10, Nodes: 2, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	})
	if err != nil {
		t.Fatalf("clean job failed: %v", err)
	}
	// A published image sits under its final name and nothing else is
	// left in the spool dir: no temp file survives a commit.
	published := 0
	for i, dir := range spools {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if want := fmt.Sprintf("node%d-job%d.bin", i, rep.JobID); e.Name() != want {
				t.Fatalf("node %d spooled %s, want only %s", i, e.Name(), want)
			}
			fi, err := e.Info()
			if err != nil {
				t.Fatalf("published binary missing: %v", err)
			}
			if fi.Size() != 256<<10 {
				t.Fatalf("published binary is %d bytes, want %d", fi.Size(), 256<<10)
			}
			published++
		}
	}
	if published != 2 {
		t.Fatalf("%d nodes published the image, want 2", published)
	}
}

// TestChaosHeartbeatDetectionBound: the heartbeat detector must flag a
// killed node within 2 periods + the probe grace (one period), with
// scheduling slack — and must not flag healthy nodes.
func TestChaosHeartbeatDetectionBound(t *testing.T) {
	mm, nms, _ := chaosCluster(t, 3, MMConfig{}, nil)
	const period = 100 * time.Millisecond
	type hit struct {
		node int
		at   time.Time
	}
	hits := make(chan hit, 3)
	stop := mm.StartHeartbeat(period, func(node int) { hits <- hit{node, time.Now()} })
	defer stop()
	time.Sleep(4 * period) // settle: every node answering
	select {
	case h := <-hits:
		t.Fatalf("false positive on node %d", h.node)
	default:
	}
	killed := time.Now()
	nms[2].Close()
	select {
	case h := <-hits:
		if h.node != 2 {
			t.Fatalf("detected node %d, want 2", h.node)
		}
		// Bound: 2 missed periods + probe grace (1 period), plus slack
		// for ticker phase and scheduling.
		if lat := h.at.Sub(killed); lat > 2*period+period+250*time.Millisecond {
			t.Fatalf("detection took %v, want within 2 periods + grace (%v nominal)", lat, 3*period)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("failure never detected")
	}
}

// TestChaosCtlFrameFaultsAbsorbed: losing, duplicating, and delaying
// individual heartbeat frames — pings on the MM's child links, pong
// ledgers on an aggregator's uplink — must never convict a healthy
// node. A missed round costs one absence streak; conviction requires a
// failed directed probe, and every probed node here is alive. The
// detector must also still catch a real failure afterwards.
func TestChaosCtlFrameFaultsAbsorbed(t *testing.T) {
	const n = 5
	const period = 100 * time.Millisecond
	cfg := chaosMMConfig()
	// Every conn the MM accepts drops its 3rd outgoing ping, duplicates
	// its 5th, and holds its 7th for over half a period. Only the two
	// direct-child links carry pings, so that is where the faults land.
	cfg.WrapConn = func(c net.Conn) net.Conn {
		plan := faultconn.NewPlan()
		plan.CtlFaults = []faultconn.CtlFault{
			{Kind: 'P', Index: 2, Op: "drop"},
			{Kind: 'P', Index: 4, Op: "dup"},
			{Kind: 'P', Index: 6, Op: "delay", Delay: 60 * time.Millisecond},
		}
		return faultconn.Wrap(c, plan)
	}
	// Node 1 aggregates a subtree; its uplink loses one pong ledger and
	// duplicates another.
	mm, nms, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
		if node != 1 {
			return NMConfig{}
		}
		return NMConfig{WrapConn: func(c net.Conn) net.Conn {
			plan := faultconn.NewPlan()
			plan.CtlFaults = []faultconn.CtlFault{
				{Kind: 'Q', Index: 3, Op: "drop"},
				{Kind: 'Q', Index: 5, Op: "dup"},
			}
			return faultconn.Wrap(c, plan)
		}}
	})
	fails := make(chan int, n)
	stop := mm.StartHeartbeat(period, func(node int) { fails <- node })
	defer stop()
	time.Sleep(12 * period) // long enough for every armed fault to fire
	select {
	case node := <-fails:
		t.Fatalf("healthy node %d convicted under control-frame faults", node)
	default:
	}
	// The plane must still be live: a genuinely dead node is detected.
	nms[4].Close()
	select {
	case node := <-fails:
		if node != 4 {
			t.Fatalf("detected node %d, want 4", node)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("real failure undetected after absorbing frame faults")
	}
}

// TestChaosRelayRedialLiveChild: an interior NM's relay link to a live
// child dies under it, before the child's manifest or before one of its
// fragments. The link's writer redials once and installs the child
// again on the new link ahead of the frame, so the child's answers go up that link:
// the launch completes on every node, with no replan and byte-identical
// images.
func TestChaosRelayRedialLiveChild(t *testing.T) {
	const n, interior = 4, 0 // MM -> {0, 1}; node 0 relays to {2, 3}
	cfg := chaosMMConfig()
	for _, tc := range []struct {
		name  string
		fault faultconn.CtlFault
	}{
		{"manifest", faultconn.CtlFault{Kind: wire.Manifest, Index: 0, Op: "close"}},
		{"frag0", faultconn.CtlFault{Kind: wire.Frag, Index: 0, Op: "close"}},
		{"frag2", faultconn.CtlFault{Kind: wire.Frag, Index: 2, Op: "close"}},
		{"frag7", faultconn.CtlFault{Kind: wire.Frag, Index: 7, Op: "close"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fired := make(chan struct{}, 1)
			var childAddr atomic.Pointer[string]
			var dialed atomic.Bool
			mm, nms, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
				if node != interior {
					return NMConfig{}
				}
				return NMConfig{Dialer: func(addr string) (net.Conn, error) {
					// The first relay link to node 2 dies before the frame.
					c, err := net.DialTimeout("tcp", addr, 5*time.Second)
					if a := childAddr.Load(); err != nil || a == nil || *a != addr || dialed.Swap(true) {
						return c, err
					}
					plan := faultconn.NewPlan()
					plan.CtlFaults = []faultconn.CtlFault{tc.fault}
					plan.OnFault = func(string) { fired <- struct{}{} }
					return faultconn.Wrap(c, plan), nil
				}}
			})
			addr := nms[2].PeerAddr()
			childAddr.Store(&addr)
			rep, err := SubmitJob(mm.Addr(), JobSpec{
				Name: "redial", BinaryBytes: chaosBinary, Nodes: n, PEsPerNode: 1,
				Program: ProgramSpec{Kind: "exit"},
			})
			if err != nil {
				t.Fatalf("launch failed: %v", err)
			}
			select {
			case <-fired:
			default:
				t.Fatal("the fault never fired")
			}
			if len(rep.Failed) != 0 || rep.Replans != 0 {
				t.Fatalf("report: failed %v, replans %d; want none of either", rep.Failed, rep.Replans)
			}
			assertSurvivorImages(t, nms, -1, rep.JobID, chaosBinary/cfg.FragBytes)
		})
	}
}

// TestChaosControlPlanOnTree: the control tree is announced down itself,
// as a stripe tree is. A membership change — a join, then a leave — puts
// at most Fanout plan frames on the MM's links and exactly one plan per
// live member across all links, and every member's absence streak returns
// to zero under the new epoch. And when an interior NM's first relay link
// dies before the plan's first byte, its child still installs the epoch
// over the link the next period's relay redials: the ledgers vouch for it
// within three periods, and nobody is convicted.
func TestChaosControlPlanOnTree(t *testing.T) {
	const period = 30 * time.Millisecond
	for _, n := range []int{4, 16} {
		t.Run(fmt.Sprintf("census-n%d", n), func(t *testing.T) {
			var mmCensus, nmCensus frameCensus
			cfg := MMConfig{Fanout: 2, WrapConn: mmCensus.wrap}
			nmCfg := func(int) NMConfig { return NMConfig{WrapConn: nmCensus.wrap} }
			mm, nms, _ := chaosCluster(t, n-1, cfg, nmCfg)
			fails := make(chan int, n)
			stop := mm.StartHeartbeat(period, func(node int) { fails <- node })
			defer stop()
			awaitCtlTree(t, mm, nms)
			mmCensus.take()
			nmCensus.take()
			plans := func(change string, members int) {
				t.Helper()
				fromMM, fromNMs := mmCensus.take()["ctl-plan"], nmCensus.take()["ctl-plan"]
				if fromMM > cfg.Fanout {
					t.Errorf("%s: the MM wrote %d plans, want at most %d", change, fromMM, cfg.Fanout)
				}
				if fromMM+fromNMs != members {
					t.Errorf("%s: %d plans from the MM and %d from NMs for %d members, want one each",
						change, fromMM, fromNMs, members)
				}
			}

			joined, err := NewNMConfig(mm.Addr(), n-1, 4, nmCfg(n-1))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(joined.Close)
			awaitCtlTree(t, mm, append(nms, joined))
			plans("join", n)

			joined.Close()
			awaitCtlTree(t, mm, nms)
			plans("leave", n-1)
			for len(fails) > 0 {
				if node := <-fails; node != n-1 {
					t.Fatalf("node %d convicted; only the node that left may be", node)
				}
			}
		})
	}

	t.Run("plan-redial", func(t *testing.T) {
		const n, interior, child = 4, 0, 2 // MM -> {0, 1}; node 0 relays to {2, 3}
		fired := make(chan struct{}, 1)
		var childAddr atomic.Pointer[string]
		var dialed atomic.Bool
		mm, nms, _ := chaosCluster(t, n, MMConfig{Fanout: 2}, func(node int) NMConfig {
			if node != interior {
				return NMConfig{}
			}
			return NMConfig{Dialer: func(addr string) (net.Conn, error) {
				// The first relay link to the child dies before the plan's
				// first byte.
				c, err := net.DialTimeout("tcp", addr, 5*time.Second)
				if a := childAddr.Load(); err != nil || a == nil || *a != addr || dialed.Swap(true) {
					return c, err
				}
				plan := faultconn.NewPlan()
				plan.CtlFaults = []faultconn.CtlFault{{Kind: wire.CtlPlan, Index: 0, Op: "close"}}
				plan.OnFault = func(string) { fired <- struct{}{} }
				return faultconn.Wrap(c, plan), nil
			}}
		})
		addr := nms[child].PeerAddr()
		childAddr.Store(&addr)
		fails := make(chan int, n)
		stop := mm.StartHeartbeat(period, func(node int) { fails <- node })
		defer stop()
		select {
		case <-fired:
		case <-time.After(5 * time.Second):
			t.Fatal("the fault never fired: no NM relayed a plan")
		}
		mm.mu.Lock()
		s0 := mm.ctl.seq
		mm.mu.Unlock()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("no ledger vouched for node %d after its plan's link died", child)
			}
			mm.mu.Lock()
			var seq int64
			if kid := kidOf(mm.ctl.kids, interior); kid != nil {
				if j := slices.Index(kid.subtree, child); kid.ledger.absent&(1<<j) == 0 {
					seq = kid.ledger.seq
				}
			}
			mm.mu.Unlock()
			if seq > 0 {
				if seq > s0+3 {
					t.Fatalf("node %d first vouched for in round %d, the plan was lost in round %d", child, seq, s0)
				}
				break
			}
		}
		nms[child].mu.Lock()
		installed := nms[child].ctl != nil
		nms[child].mu.Unlock()
		if !installed {
			t.Fatalf("node %d vouched for without a plan installed", child)
		}
		awaitCtlTree(t, mm, nms)
		select {
		case node := <-fails:
			t.Fatalf("node %d convicted", node)
		default:
		}
	})

	t.Run("dial-fails-one-round", func(t *testing.T) {
		// A control child the hop cannot reach is down for one round only:
		// the next ping dials it again. Node 0's first relay dial to node 2
		// fails every attempt; the period leaves room for the backoff.
		const n, interior, child = 4, 0, 2 // MM -> {0, 1}; node 0 relays to {2, 3}
		const period = 250 * time.Millisecond
		failed := make(chan struct{}, 1)
		var childAddr atomic.Pointer[string]
		var dials atomic.Int32
		mm, nms, _ := chaosCluster(t, n, MMConfig{Fanout: 2}, func(node int) NMConfig {
			if node != interior {
				return NMConfig{}
			}
			return NMConfig{Dialer: func(addr string) (net.Conn, error) {
				if a := childAddr.Load(); a != nil && *a == addr {
					if d := dials.Add(1); d <= dialAttempts {
						if d == dialAttempts {
							failed <- struct{}{}
						}
						return nil, errors.New("injected dial failure")
					}
				}
				return net.DialTimeout("tcp", addr, 5*time.Second)
			}}
		})
		addr := nms[child].PeerAddr()
		childAddr.Store(&addr)
		fails := make(chan int, n)
		stop := mm.StartHeartbeat(period, func(node int) { fails <- node })
		defer stop()
		select {
		case <-failed:
		case <-time.After(5 * time.Second):
			t.Fatal("node 0 never dialed a relay link")
		}
		mm.mu.Lock()
		s0 := mm.ctl.seq
		mm.mu.Unlock()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("no ledger vouched for node %d after its relay dial failed", child)
			}
			mm.mu.Lock()
			var seq int64
			if kid := kidOf(mm.ctl.kids, interior); kid != nil {
				if j := slices.Index(kid.subtree, child); kid.ledger.absent&(1<<j) == 0 {
					seq = kid.ledger.seq
				}
			}
			mm.mu.Unlock()
			if seq > 0 {
				if seq > s0+3 {
					t.Fatalf("node %d first vouched for in round %d, its dial failed in round %d", child, seq, s0)
				}
				break
			}
		}
		awaitCtlTree(t, mm, nms)
		select {
		case node := <-fails:
			t.Fatalf("node %d convicted", node)
		default:
		}
	})
}

// awaitCtlTree waits until the MM's control tree spans exactly live,
// every one of them has installed the tree's epoch, and the ledgers of
// that epoch vouched for every one, each absence streak at zero.
func awaitCtlTree(t *testing.T, mm *MM, live []*NM) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the control tree never settled over %d nodes", len(live))
		}
		mm.mu.Lock()
		epoch := mm.ctl.epoch
		ok := len(mm.ctl.members) == len(live)
		for _, kid := range mm.ctl.kids {
			ok = ok && kid.ledger.seq > 0 && kid.ledger.absent == 0
		}
		for _, nm := range live {
			m := mm.members[nm.node]
			ok = ok && m != nil && m.link != nil && !m.convicted && m.streak == 0
		}
		mm.mu.Unlock()
		for _, nm := range live {
			nm.mu.Lock()
			ok = ok && nm.ctl != nil && nm.ctl.epoch == epoch
			nm.mu.Unlock()
		}
		if ok {
			return
		}
	}
}

// TestChaosKillMidTransferControlPlaneActive: the full control plane —
// tree heartbeat and gang strobes — runs while an interior relay is
// hard-killed mid-transfer. The launch must recover onto the survivors
// with byte-identical images, the heartbeat must never convict a
// survivor despite the epoch churn (stale ledgers and strobe acks from
// the old topology are rejected, not miscounted), and strobes must keep
// flowing through the recovery.
func TestChaosKillMidTransferControlPlaneActive(t *testing.T) {
	const n = 7
	// The period sets the suspicion window (2 periods + probe grace).
	// Under the race detector on a loaded single-CPU host a live NM can
	// be starved past 100 ms mid-replay, so use a period comfortably
	// above scheduler-stall noise — the false-conviction assertion is
	// the point of this test, and it must not fire on starvation.
	const period = 250 * time.Millisecond
	cfg := chaosMMConfig()
	cfg.GangQuantum = 20 * time.Millisecond
	cfg.MPL = 2
	victim := treePositions(t, n, cfg.Fanout)["interior"]
	killAt := 8 + seedIntn(chaosSeeds[0], 16)
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
	fails := make(chan int, n)
	stop := mm.StartHeartbeat(period, func(node int) { fails <- node })
	defer stop()
	time.Sleep(3 * period) // heartbeat settled over the full tree
	rep, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "ctl-chaos", BinaryBytes: chaosBinary, Nodes: n, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "spin", Duration: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("launch did not recover from killing node %d at frag %d with control plane active: %v",
			victim, killAt, err)
	}
	if len(rep.Failed) != 1 || rep.Failed[0] != victim {
		t.Fatalf("report names failed nodes %v, want [%d]", rep.Failed, victim)
	}
	assertSurvivorImages(t, nms, victim, rep.JobID, chaosBinary/cfg.FragBytes)
	if mm.status().Strobes == 0 {
		t.Fatal("MM issued no strobes while gang scheduling was active")
	}
	strobesSeen := 0
	for _, nm := range nms {
		if nm.Node() != victim {
			strobesSeen += nmStrobes(nm)
		}
	}
	if strobesSeen == 0 {
		t.Fatal("survivors saw no strobes through the recovery")
	}
	// The heartbeat may convict the victim in parallel with the
	// transfer's own diagnosis; it must never convict anyone else.
	for {
		select {
		case node := <-fails:
			if node != victim {
				t.Fatalf("heartbeat falsely convicted survivor %d during recovery", node)
			}
			continue
		default:
		}
		break
	}
}

// TestChaosTermDeadlineNamed: a node that delivers the binary but never
// reports termination must trip the *termination* deadline (not the
// transfer one), and the error names the silent node.
func TestChaosTermDeadlineNamed(t *testing.T) {
	mm, _, _ := chaosCluster(t, 2, MMConfig{
		AckTimeout:  2 * time.Second,
		TermTimeout: 500 * time.Millisecond,
	}, func(node int) NMConfig {
		if node != 1 {
			return NMConfig{}
		}
		return NMConfig{WrapConn: dropFrames(wire.Term, 1)}
	})
	_, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "silent", BinaryBytes: 64 << 10, Nodes: 2, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	})
	if err == nil {
		t.Fatal("job with a silent node should fail")
	}
	if !strings.Contains(err.Error(), ErrTermTimeout.Error()) {
		t.Fatalf("error is not the named termination-phase error: %v", err)
	}
	if !strings.Contains(err.Error(), "missing 1") {
		t.Fatalf("termination error should name node 1: %v", err)
	}
	if strings.Contains(err.Error(), ErrTransferTimeout.Error()) {
		t.Fatalf("termination failure mislabeled as transfer failure: %v", err)
	}
}

// TestChaosLaunchedNodeDeathEndsTermWait: a node that took its Launch
// and then lost its MM link can never report termination, so the job
// fails at once, naming the node and the termination phase, instead of
// sitting out the program's duration plus TermTimeout.
func TestChaosLaunchedNodeDeathEndsTermWait(t *testing.T) {
	const n, victim = 3, 1
	mm, nms, _ := chaosCluster(t, n, MMConfig{TermTimeout: 30 * time.Second}, nil)
	go func() {
		for deadline := time.Now().Add(5 * time.Second); nmLaunches(nms[victim]) == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		nms[victim].Close()
	}()
	start := time.Now()
	_, err := mm.RunJob(JobSpec{
		Name: "launched-death", BinaryBytes: 64 << 10, Nodes: n, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "sleep", Duration: 2 * time.Second},
	})
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("the job took %v to notice a launched node's death", took)
	}
	if !errors.Is(err, ErrTermTimeout) || !strings.Contains(err.Error(), fmt.Sprintf("node %d", victim)) {
		t.Fatalf("job error = %v, want ErrTermTimeout naming node %d", err, victim)
	}
}

// errors.Is sanity for the two phase errors across wrapping.
func TestPhaseErrorsAreDistinct(t *testing.T) {
	wrapped := fmt.Errorf("outer: %w", ErrTransferTimeout)
	if !errors.Is(wrapped, ErrTransferTimeout) || errors.Is(wrapped, ErrTermTimeout) {
		t.Fatal("phase error identity broken")
	}
}

// assertPlacedImages checks that every placed survivor of one job holds
// a complete, byte-identical image (the placed-subset analogue of
// assertSurvivorImages, for multi-tenant jobs that occupy only part of
// the cluster).
func assertPlacedImages(t *testing.T, nms []*NM, placed []int, victim, job, frags int) {
	t.Helper()
	var ref ImageDigest
	seen := false
	for _, node := range placed {
		if node == victim {
			continue
		}
		d, ok := nms[node].ImageDigest(job)
		if !ok {
			t.Fatalf("placed survivor %d has no image for job %d", node, job)
		}
		if d.Frags != frags {
			t.Fatalf("survivor %d holds %d fragments of job %d, want %d", node, d.Frags, job, frags)
		}
		if !seen {
			ref, seen = d, true
		} else if d != ref {
			t.Fatalf("survivor %d image digest %+v differs from %+v for job %d", node, d, ref, job)
		}
	}
}

// TestChaosConcurrentJobsInteriorKill: three jobs stream concurrently
// through the same interior relay node while a fourth runs elsewhere;
// the relay is hard-killed mid-stream. Only the jobs placed on the
// victim may replan — each completing on its survivors with
// byte-identical images — and the bystander job must finish with no
// replan at all. Explicit Place pins node 2 at interior tree position 2
// of each affected job (parents 0, 7, and 1 respectively), so three
// distinct relay conns feed the victim and every one is armed to die at
// the seed-chosen fragment: no affected job can complete its 32-chunk
// stream without tripping the kill. The link that trips it dies at once;
// the process follows as soon as all four jobs are placed.
func TestChaosConcurrentJobsInteriorKill(t *testing.T) {
	const n = 8
	const victim = 2
	cfg := chaosMMConfig()
	specs := []JobSpec{
		{Name: "via-A", BinaryBytes: chaosBinary, Nodes: 7, PEsPerNode: 1,
			Place: []int{0, 1, 2, 3, 4, 5, 6}, Program: ProgramSpec{Kind: "exit"}},
		{Name: "via-B", BinaryBytes: chaosBinary, Nodes: 7, PEsPerNode: 1,
			Place: []int{7, 6, 2, 5, 0, 3, 4}, Program: ProgramSpec{Kind: "exit"}},
		{Name: "via-D", BinaryBytes: chaosBinary, Nodes: 7, PEsPerNode: 1,
			Place: []int{1, 3, 2, 0, 5, 6, 7}, Program: ProgramSpec{Kind: "exit"}},
		{Name: "bystander", BinaryBytes: chaosBinary, Nodes: 4, PEsPerNode: 1,
			Place: []int{3, 4, 5, 6}, Program: ProgramSpec{Kind: "exit"}},
	}
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			killAt := 8 + seedIntn(seed, 16)
			var victimNM atomic.Pointer[NM]
			var mmRef atomic.Pointer[MM]
			mm, nms, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
				if node != victim {
					return NMConfig{}
				}
				return NMConfig{WrapConn: func(c net.Conn) net.Conn {
					plan := faultconn.NewPlan()
					plan.CloseAtReadFrag = killAt
					plan.OnFault = func(string) {
						go func() {
							// The first job's stream can trip the kill before
							// the last submission is placed, and a job pinned
							// to a node already dead fails placement instead of
							// streaming through it — not this scenario.
							for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
								if mm := mmRef.Load(); mm != nil && mm.status().Launched >= len(specs) {
									break
								}
							}
							if nm := victimNM.Load(); nm != nil {
								nm.Close()
							}
						}()
					}
					return faultconn.Wrap(c, plan)
				}}
			})
			victimNM.Store(nms[victim])
			mmRef.Store(mm)

			reports := make([]Report, len(specs))
			errs := make([]error, len(specs))
			var wg sync.WaitGroup
			for i, spec := range specs {
				wg.Add(1)
				go func(i int, spec JobSpec) {
					defer wg.Done()
					reports[i], errs[i] = SubmitJob(mm.Addr(), spec)
				}(i, spec)
			}
			wg.Wait()

			frags := chaosBinary / cfg.FragBytes
			for i, spec := range specs {
				if errs[i] != nil {
					t.Fatalf("job %q did not recover from killing node %d at frag %d: %v",
						spec.Name, victim, killAt, errs[i])
				}
				onVictim := false
				for _, node := range spec.Place {
					if node == victim {
						onVictim = true
					}
				}
				if onVictim {
					if len(reports[i].Failed) != 1 || reports[i].Failed[0] != victim {
						t.Fatalf("job %q names failed nodes %v, want [%d]", spec.Name, reports[i].Failed, victim)
					}
					if reports[i].Replans < 1 {
						t.Fatalf("job %q recovered without a replan? %+v", spec.Name, reports[i])
					}
				} else {
					if len(reports[i].Failed) != 0 || reports[i].Replans != 0 {
						t.Fatalf("bystander job %q replanned (failed %v, replans %d) though it never placed on node %d",
							spec.Name, reports[i].Failed, reports[i].Replans, victim)
					}
				}
				assertPlacedImages(t, nms, spec.Place, victim, reports[i].JobID, frags)
			}
		})
	}
}
