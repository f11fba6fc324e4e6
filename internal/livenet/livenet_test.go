package livenet

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/livenet/faultconn"
	"repro/internal/livenet/wire"
)

// startCluster boots an MM and n NMs on the loopback interface.
func startCluster(t testing.TB, n int, cfg MMConfig) (*MM, []*NM) {
	t.Helper()
	mm, err := NewMM("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mm.Close)
	var nms []*NM
	for i := 0; i < n; i++ {
		nm, err := NewNM(mm.Addr(), i, 4)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nm.Close)
		nms = append(nms, nm)
	}
	// Registration is asynchronous; wait for all NMs to appear.
	deadline := time.Now().Add(5 * time.Second)
	for len(mm.NMs()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d NMs registered", len(mm.NMs()), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return mm, nms
}

// nmLaunches reads how many processes an NM has forked.
func nmLaunches(nm *NM) int {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	return nm.launches
}

// nmStrobes reads how many gang context switches an NM has enacted.
func nmStrobes(nm *NM) int {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	return nm.strobesSeen
}

// nodeRow reads a node's membership row.
func nodeRow(mm *MM, node int) member {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.row(node)
}

func TestLiveLaunchDoNothing(t *testing.T) {
	mm, nms := startCluster(t, 4, MMConfig{})
	rep, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "dn", BinaryBytes: 4 << 20, Nodes: 4, PEsPerNode: 2,
		Program: ProgramSpec{Kind: "exit"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Send <= 0 || rep.Total < rep.Send {
		t.Fatalf("nonsensical report: %+v", rep)
	}
	if rep.Total > 10*time.Second {
		t.Fatalf("4 MB live launch on loopback took %v", rep.Total)
	}
	wantFrags := (4 << 20) / (256 << 10)
	for _, nm := range nms {
		if nm.FragsWritten() != wantFrags {
			t.Errorf("node %d wrote %d fragments, want %d", nm.Node(), nm.FragsWritten(), wantFrags)
		}
		if got := nmLaunches(nm); got != 2 {
			t.Errorf("node %d forked %d processes, want 2", nm.Node(), got)
		}
	}
	if got := mm.status().Completed; got != 1 {
		t.Errorf("Completed = %d", got)
	}
}

func TestLiveSweepKernelJob(t *testing.T) {
	mm, _ := startCluster(t, 2, MMConfig{})
	start := time.Now()
	rep, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "sweep", BinaryBytes: 1 << 20, Nodes: 2, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "sweep", Grid: 24, Iters: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Execute <= 0 {
		t.Fatalf("sweep job reported zero execute time: %+v", rep)
	}
	_ = start
}

func TestLiveSleepJobDuration(t *testing.T) {
	mm, _ := startCluster(t, 2, MMConfig{})
	const d = 300 * time.Millisecond
	rep, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "sleep", BinaryBytes: 64 << 10, Nodes: 2, PEsPerNode: 2,
		Program: ProgramSpec{Kind: "sleep", Duration: d},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Execute < d {
		t.Fatalf("execute %v < sleep duration %v", rep.Execute, d)
	}
}

func TestLiveInsufficientNodes(t *testing.T) {
	mm, _ := startCluster(t, 2, MMConfig{})
	_, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "big", BinaryBytes: 1024, Nodes: 8, PEsPerNode: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "NMs registered") {
		t.Fatalf("expected insufficient-nodes error, got %v", err)
	}
}

func TestLiveConcurrentJobs(t *testing.T) {
	mm, _ := startCluster(t, 4, MMConfig{})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = SubmitJob(mm.Addr(), JobSpec{
				Name: "dn", BinaryBytes: 512 << 10, Nodes: 2, PEsPerNode: 1,
				Program: ProgramSpec{Kind: "exit"},
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
	if got := mm.status().Completed; got != 4 {
		t.Errorf("Completed = %d, want 4", got)
	}
}

func TestLiveNodeFailureStallsTransfer(t *testing.T) {
	mm, nms := startCluster(t, 3, MMConfig{AckTimeout: time.Second})
	// Kill one NM before submitting: its link drops, so it unregisters
	// and the job should only see the survivors.
	nms[1].Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(mm.NMs()) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("dead NM never unregistered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "dn", BinaryBytes: 256 << 10, Nodes: 2, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	})
	if err != nil {
		t.Fatalf("launch on survivors failed: %v", err)
	}
	if rep.Total <= 0 {
		t.Fatal("bad report")
	}
}

func TestLiveHeartbeatDetectsFailure(t *testing.T) {
	mm, nms := startCluster(t, 3, MMConfig{})
	failedCh := make(chan int, 3)
	stop := mm.StartHeartbeat(50*time.Millisecond, func(node int) { failedCh <- node })
	defer stop()
	time.Sleep(300 * time.Millisecond)
	select {
	case n := <-failedCh:
		t.Fatalf("false positive: node %d", n)
	default:
	}
	nms[2].Close()
	select {
	case n := <-failedCh:
		if n != 2 {
			t.Fatalf("detected node %d, want 2", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("failure never detected")
	}
}

func TestFragPatternIntegrity(t *testing.T) {
	a := fragPattern(3, 7, 1024)
	if !bytes.Equal(a, fragPattern(3, 7, 1024)) {
		t.Fatal("pattern not deterministic")
	}
	if bytes.Equal(a, fragPattern(3, 8, 1024)) {
		t.Fatal("different fragments share a pattern")
	}
}

// TestLiveTreeRelayCounts: with fanout 2 on 8 nodes, the MM streams to
// two children only and interior NMs carry the rest of the copies.
func TestLiveTreeRelayCounts(t *testing.T) {
	mm, nms := startCluster(t, 8, MMConfig{Fanout: 2, FragBytes: 64 << 10})
	rep, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "tree", BinaryBytes: 512 << 10, Nodes: 8, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	})
	if err != nil {
		t.Fatal(err)
	}
	frags := (512 << 10) / (64 << 10)
	// Every node writes the full image exactly once.
	for _, nm := range nms {
		if nm.FragsWritten() != frags {
			t.Errorf("node %d wrote %d fragments, want %d", nm.Node(), nm.FragsWritten(), frags)
		}
	}
	// 8 nodes, 2 MM children: 6 copies flow over relay links.
	relayed := 0
	for _, nm := range nms {
		relayed += nm.FragsRelayed()
	}
	if want := 6 * frags; relayed != want {
		t.Errorf("relayed %d fragment copies, want %d", relayed, want)
	}
	// MM egress ~= 2 subtree streams, not 8 unicasts.
	if max := int64(3 * 512 << 10); rep.SendBytes > max {
		t.Errorf("MM pushed %d bytes, want <= %d (tree should bound egress)", rep.SendBytes, max)
	}
}

// dropFrames is a WrapConn that silently drops the first n frames of type
// kind each wrapped conn writes: a node that stops crediting the window
// (acks), or one that never reports back (terminations).
func dropFrames(kind byte, n int) func(net.Conn) net.Conn {
	return func(c net.Conn) net.Conn {
		plan := faultconn.NewPlan()
		for i := 0; i < n; i++ {
			plan.CtlFaults = append(plan.CtlFaults, faultconn.CtlFault{Kind: kind, Index: i, Op: "drop"})
		}
		return faultconn.Wrap(c, plan)
	}
}

// corruptFrag is a WrapConn that flips a payload byte of the k-th
// fragment each wrapped conn writes.
func corruptFrag(k int) func(net.Conn) net.Conn {
	return func(c net.Conn) net.Conn {
		plan := faultconn.NewPlan()
		plan.CorruptFrag = k
		return faultconn.Wrap(c, plan)
	}
}

// TestLiveCorruptFragmentRejected (satellite): a fragment corrupted in
// flight on the MM's links must be rejected by its hash at an NM and fail
// the job with a diagnosable error instead of hanging the window.
func TestLiveCorruptFragmentRejected(t *testing.T) {
	for _, fanout := range []int{1, 2} {
		// Every link from the MM carries the fragments in order, so its
		// second is fragment 1.
		mm, _ := startCluster(t, 4, MMConfig{Fanout: fanout, FragBytes: 64 << 10, AckTimeout: 5 * time.Second,
			WrapConn: corruptFrag(1)})
		start := time.Now()
		_, err := SubmitJob(mm.Addr(), JobSpec{
			Name: "corrupt", BinaryBytes: 256 << 10, Nodes: 4, PEsPerNode: 1,
			Program: ProgramSpec{Kind: "exit"},
		})
		if err == nil {
			t.Fatalf("fanout %d: corrupted transfer succeeded", fanout)
		}
		if !strings.Contains(err.Error(), "corrupt") || !strings.Contains(err.Error(), "rejected fragment 1") {
			t.Fatalf("fanout %d: undiagnosable error: %v", fanout, err)
		}
		if elapsed := time.Since(start); elapsed > 4*time.Second {
			t.Fatalf("fanout %d: rejection took %v; window hung", fanout, elapsed)
		}
	}
}

// TestLiveMidTreeCorruptionPropagates (satellite): corruption introduced
// by a relaying NM is caught by the child's hash check and the nack names
// the rejecting node all the way up the tree.
func TestLiveMidTreeCorruptionPropagates(t *testing.T) {
	// Tree for 3 nodes at fanout 2: MM -> {0, 1}, node 0 -> {2}. Corrupt
	// on node 0's relay link; node 2 must reject.
	mm, _, _ := chaosCluster(t, 3, MMConfig{Fanout: 2, FragBytes: 64 << 10, AckTimeout: 5 * time.Second},
		func(node int) NMConfig {
			if node != 0 {
				return NMConfig{}
			}
			return NMConfig{WrapConn: corruptFrag(0)}
		})
	_, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "midtree", BinaryBytes: 128 << 10, Nodes: 3, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	})
	if err == nil {
		t.Fatal("mid-tree corruption went unnoticed")
	}
	if !strings.Contains(err.Error(), "node 2 rejected fragment 0") {
		t.Fatalf("nack lost the rejecting node: %v", err)
	}
}

// TestLiveAckTimeoutNamesNodes (satellite): a stalled window's error
// names the specific nodes still owing credit — whether the stall is
// the tail drain of an image that fits the window or the window itself
// filling mid-stream.
func TestLiveAckTimeoutNamesNodes(t *testing.T) {
	const ackTimeout = 400 * time.Millisecond
	for _, tc := range []struct {
		name         string
		nodes, bytes int
		owing        string // node 1's entry in the error
	}{
		// Tree for 3 nodes at fanout 2: MM -> {0, 1}, node 0 -> {2}. The
		// binary fits the window (2 fragments <= 8 slots), so the only
		// wait is the tail drain, for both chunks.
		{"tail", 3, 128 << 10, "node 1 (acked 0 of 2)"},
		// MM -> {0, 1}, depth 1, so a window of 4: the stream blocks on
		// the fifth of 12 fragments, awaiting credit for the first.
		{"mid-stream", 2, 12 * 64 << 10, "node 1 (acked 0 of 1)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Node 1 is a direct MM child and a leaf; it writes fragments
			// but never credits the window.
			mm, _, _ := chaosCluster(t, tc.nodes, MMConfig{Fanout: 2, FragBytes: 64 << 10, AckTimeout: ackTimeout},
				func(node int) NMConfig {
					if node != 1 {
						return NMConfig{}
					}
					return NMConfig{WrapConn: dropFrames(wire.Ack, 16)}
				})
			start := time.Now()
			_, err := SubmitJob(mm.Addr(), JobSpec{
				Name: "stall", BinaryBytes: tc.bytes, Nodes: tc.nodes, PEsPerNode: 1,
				Program: ProgramSpec{Kind: "exit"},
			})
			elapsed := time.Since(start)
			// Node 1 answers the isolation probe, so it is not excluded:
			// the job fails with the stall instead of completing without it.
			if err == nil {
				t.Fatal("stalled transfer succeeded")
			}
			if !strings.Contains(err.Error(), ErrTransferTimeout.Error()) || !strings.Contains(err.Error(), tc.owing) {
				t.Fatalf("timeout does not name the owing node and its credit: %v", err)
			}
			if strings.Contains(err.Error(), "node 0 ") || strings.Contains(err.Error(), "node 2 ") {
				t.Fatalf("timeout blames a healthy subtree: %v", err)
			}
			// A single AckTimeout budget, not stacked per-fragment budgets.
			if elapsed > 2*ackTimeout {
				t.Fatalf("stall consumed %v; timeout budget double-counted (AckTimeout %v)", elapsed, ackTimeout)
			}
		})
	}
}

// TestLiveTreeFlatEquivalence (satellite): the same job spec through the
// flat fan-out and the fanout-2 tree delivers byte-identical per-node
// images (digest equality) and the same termination accounting.
func TestLiveTreeFlatEquivalence(t *testing.T) {
	spec := JobSpec{
		Name: "equiv", BinaryBytes: 300<<10 + 123, Nodes: 5, PEsPerNode: 2,
		Program: ProgramSpec{Kind: "exit"},
	}
	type result struct {
		digests map[int]ImageDigest
		frags   map[int]int
		report  Report
	}
	run := func(fanout int) result {
		mm, nms := startCluster(t, 5, MMConfig{Fanout: fanout, FragBytes: 64 << 10})
		rep, err := SubmitJob(mm.Addr(), spec)
		if err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		if got := mm.status().Completed; got != 1 {
			t.Fatalf("fanout %d: completed = %d", fanout, got)
		}
		r := result{digests: map[int]ImageDigest{}, frags: map[int]int{}, report: rep}
		for _, nm := range nms {
			d, ok := nm.ImageDigest(rep.JobID)
			if !ok {
				t.Fatalf("fanout %d: node %d has no image digest", fanout, nm.Node())
			}
			r.digests[nm.Node()] = d
			r.frags[nm.Node()] = nm.FragsWritten()
		}
		return r
	}
	flat := run(1)
	tree := run(2)
	if flat.report.JobID != tree.report.JobID {
		t.Fatalf("job ids diverge: %d vs %d", flat.report.JobID, tree.report.JobID)
	}
	for node, fd := range flat.digests {
		td, ok := tree.digests[node]
		if !ok {
			t.Fatalf("tree run missing node %d", node)
		}
		if fd != td {
			t.Fatalf("node %d image diverges: flat %+v vs tree %+v", node, fd, td)
		}
		if fd.Bytes != spec.BinaryBytes {
			t.Fatalf("node %d image is %d bytes, want %d", node, fd.Bytes, spec.BinaryBytes)
		}
		if flat.frags[node] != tree.frags[node] {
			t.Fatalf("node %d fragment counts diverge: %d vs %d", node, flat.frags[node], tree.frags[node])
		}
	}
}

// TestLiveTreeEgressAdvantage (acceptance): at 16 nodes and fixed binary
// size, the fanout-2 tree pushes >= 3x fewer bytes through the MM's
// sockets than the flat fan-out, with byte-identical delivered images.
// Egress bytes are exact; how the two topologies compare on the clock is
// a question for a benchmark with a bound, not for a loopback unit test.
func TestLiveTreeEgressAdvantage(t *testing.T) {
	const nodes, binary = 16, 2 << 20
	spec := JobSpec{
		Name: "egress", BinaryBytes: binary, Nodes: nodes, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	}
	run := func(fanout int) (Report, map[int]ImageDigest) {
		mm, nms := startCluster(t, nodes, MMConfig{Fanout: fanout, FragBytes: 512 << 10})
		rep, err := SubmitJob(mm.Addr(), spec)
		if err != nil {
			t.Fatalf("fanout %d: %v", fanout, err)
		}
		digests := map[int]ImageDigest{}
		for _, nm := range nms {
			if d, ok := nm.ImageDigest(rep.JobID); ok {
				digests[nm.Node()] = d
			}
		}
		return rep, digests
	}
	flatRep, flatDigests := run(1)
	treeRep, treeDigests := run(2)
	if flatRep.SendBytes < nodes*binary {
		t.Fatalf("flat egress %d implausibly small", flatRep.SendBytes)
	}
	if ratio := float64(flatRep.SendBytes) / float64(treeRep.SendBytes); ratio < 3 {
		t.Fatalf("MM egress: flat %d vs tree %d bytes (ratio %.1f, want >= 3)",
			flatRep.SendBytes, treeRep.SendBytes, ratio)
	}
	if len(flatDigests) != nodes || len(treeDigests) != nodes {
		t.Fatalf("digests missing: flat %d, tree %d", len(flatDigests), len(treeDigests))
	}
	for node, fd := range flatDigests {
		if fd != treeDigests[node] {
			t.Fatalf("node %d image diverges across topologies", node)
		}
	}
}

func TestQueryStatus(t *testing.T) {
	mm, _ := startCluster(t, 3, MMConfig{})
	st, err := QueryStatus(mm.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) != 3 || st.Jobs != 0 || st.Gang {
		t.Fatalf("status = %+v", st)
	}
	if _, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "dn", BinaryBytes: 1024, Nodes: 2, PEsPerNode: 1,
	}); err != nil {
		t.Fatal(err)
	}
	st, err = QueryStatus(mm.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 1 || st.Launched != 1 {
		t.Fatalf("post-job status = %+v", st)
	}
}

// TestFirstTransferFailureWins: a relay child a manifest names but that
// cannot be dialed surfaces as a PeerDown naming it and its parent. Of
// two such failures the first is the job's — the second is as likely its
// consequence as a cause of its own — and the transfer's wait returns it
// at once rather than sit out its deadline. A manifest or a HAVE stamped
// with a superseded epoch is inert: the NM neither installs, relays nor
// answers it, and the MM neither records nor credits it.
func TestFirstTransferFailureWins(t *testing.T) {
	var up, parent bytes.Buffer
	nm := bareNM(1, writeConn(&up))
	nm.cfg = NMConfig{Dialer: func(string) (net.Conn, error) { return nil, errors.New("connection refused") }}
	man := &Manifest{Job: 7, Epoch: 2, Stripes: 1, ChunkBytes: 4, TotalBytes: 16,
		Hashes: make([]uint64, 4), Tree: []TreeNode{{Node: 3, Addr: "addr-3", Size: 1}}}
	nm.onManifest(man, discardConn())
	nm.wg.Wait() // the child's link writer, which reports it
	m, err := (&conn{r: bufio.NewReader(&up)}).recv()
	if err != nil || m.PeerDown == nil || m.PeerDown.Job != 7 || m.PeerDown.Node != 3 || m.PeerDown.From != 1 {
		t.Fatalf("an undialable child was reported as %+v (%v), want a PeerDown naming node 3 from node 1", m.PeerDown, err)
	}
	first := m.PeerDown
	stale := *man
	stale.Epoch, stale.Tree = 1, []TreeNode{{Node: 4, Addr: "addr-4", Size: 1}}
	nm.onManifest(&stale, writeConn(&parent))
	if sr := nm.jobs[7].stripes[0]; up.Len() != 0 || parent.Len() != 0 || sr.epoch != 2 ||
		len(sr.children) != 1 || sr.children[0].node != 3 {
		t.Fatalf("a superseded manifest took effect: %d bytes up, %d to its sender, relay %+v", up.Len(), parent.Len(), sr)
	}

	ss := &stripeState{id: 0, kids: []*mmKid{{treeKid: treeKid{link: &nmLink{node: 1}}}}}
	kid := ss.kids[0]
	j := &liveJob{id: 7, frags: 4, stripes: []*stripeState{ss}, epoch: 2}
	j.cond = sync.NewCond(&j.mu)
	mm := &MM{jobs: map[int]*liveJob{j.id: j}}
	mm.onHave(&Have{Job: j.id, Node: 1, Epoch: 1, Bits: []uint64{0b1111}})
	if kid.have != nil || kid.acked != 0 || j.fail != nil {
		t.Fatalf("a superseded HAVE took effect: have %v, credit %d, fail %v", kid.have, kid.acked, j.fail)
	}
	mm.onPeerDown(first)
	mm.onPeerDown(&PeerDown{Job: j.id, Node: 5, From: 2, Err: "dial addr-5: connection refused"})
	mm.onPeerDown(&PeerDown{Job: 8, Node: 2, From: 1, Err: "no such job"})
	start := time.Now()
	err = j.await(ss, "chunk ledger (HAVE) unreported by nodes", start.Add(5*time.Second), func(names *[]string) int {
		nameOwing(names, 1)
		return 1
	})
	var down downError
	if !errors.As(err, &down) || down.node != 3 || !strings.Contains(err.Error(), "parent 1") {
		t.Fatalf("job failure = %v, want node 3 down as reported by node 1", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("the wait sat out %v on a job that had already failed", time.Since(start))
	}
	mm.onHave(&Have{Job: j.id, Node: 1, Epoch: 2, Bits: []uint64{0b1011}})
	if kid.have == nil || kid.acked != 2 {
		t.Fatalf("a current HAVE with prefix 2 left have %v, credit %d", kid.have, kid.acked)
	}

	// Termination reports take the same path: one for a job that is gone
	// and a duplicate change nothing. And once the job is launched the
	// transfer is over — a straggling complaint about it fails nothing.
	j.fail, j.phase, j.termed = nil, phaseLaunched, make(map[int]bool)
	mm.onTerm(&Term{Job: 8, Node: 1})
	mm.onTerm(&Term{Job: j.id, Node: 3})
	mm.onTerm(&Term{Job: j.id, Node: 3})
	if len(j.termed) != 1 || !j.termed[3] {
		t.Fatalf("termed = %v, want node 3 alone", j.termed)
	}
	mm.onPeerDown(&PeerDown{Job: j.id, Node: 4, From: 1, Err: "write: broken pipe"})
	mm.onFragAck(&FragAck{Job: j.id, Node: 2, Index: 1})
	if j.fail != nil {
		t.Fatalf("a transfer complaint failed a launched job: %v", j.fail)
	}
	err = j.await(nil, "launched nodes never reported termination: missing", time.Now(), func(names *[]string) int {
		nameOwing(names, 4)
		return 1
	})
	if !errors.Is(err, ErrTermTimeout) || !strings.Contains(err.Error(), "missing 4") || strings.Contains(err.Error(), "stripe") {
		t.Fatalf("termination wait timed out with %v, want ErrTermTimeout naming node 4 and no stripe", err)
	}
}

// wakeCounter is a job's cond locker that counts the wait's wakes: Wait
// re-locks through it, everything else locks j.mu directly.
type wakeCounter struct {
	mu    *sync.Mutex
	wakes atomic.Int64
}

func (w *wakeCounter) Lock()   { w.mu.Lock(); w.wakes.Add(1) }
func (w *wakeCounter) Unlock() { w.mu.Unlock() }

// TestAwaitWakeAllocs: a wake of the job's one wait that finds nodes
// still owing allocates nothing — the credit wait formats no per-kid
// description and the HAVE fold builds no name list until the
// deadline error needs them — so each of a wide job's acks costs the MM
// no garbage. Each wait is driven through a few wakes and then a
// thousand more with every node owing; the extra wakes must not
// allocate.
func TestAwaitWakeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates behind sync primitives; the non-race CI step enforces this")
	}
	const n = 8
	run := func(wakes int64, wait func(*MM, *liveJob, *stripeState) error, settle func(*stripeState)) uint64 {
		links := testLinks(n)
		for _, l := range links {
			l.c = discardConn()
		}
		ss := &stripeState{tree: layTree(links, 2)}
		ss.kids = newKids(ss.tree)
		j := &liveJob{id: 7, frags: 4, stripes: []*stripeState{ss},
			man: &manifestData{hashes: make([]uint64, 4)}}
		woke := &wakeCounter{mu: &j.mu}
		j.cond = sync.NewCond(woke)
		mm := &MM{cfg: MMConfig{AckTimeout: time.Minute}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		errc := make(chan error, 1)
		go func() { errc <- wait(mm, j, ss) }()
		for woke.wakes.Load() < wakes {
			j.mu.Lock()
			j.cond.Broadcast()
			j.mu.Unlock()
			runtime.Gosched()
		}
		j.mu.Lock()
		settle(ss)
		j.cond.Broadcast()
		j.mu.Unlock()
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for _, tc := range []struct {
		name   string
		wait   func(*MM, *liveJob, *stripeState) error
		settle func(*stripeState)
	}{
		{"credit", func(_ *MM, j *liveJob, ss *stripeState) error {
			return j.awaitCredit(ss, 4, time.Now().Add(time.Minute))
		}, func(ss *stripeState) {
			for _, kid := range ss.kids {
				kid.acked = 4
			}
		}},
		{"HAVE fold", func(mm *MM, j *liveJob, ss *stripeState) error {
			return mm.manifestStripe(j, ss)
		}, func(ss *stripeState) {
			for _, kid := range ss.kids {
				kid.have = []uint64{0b1111}
			}
		}},
	} {
		run(10, tc.wait, tc.settle)
		few, many := run(10, tc.wait, tc.settle), run(1010, tc.wait, tc.settle)
		if many > few+10 {
			t.Errorf("%s wait: 10 wakes took %d allocations, 1010 took %d — a wake with %d nodes owing allocates", tc.name, few, many, n)
		}
	}
}
