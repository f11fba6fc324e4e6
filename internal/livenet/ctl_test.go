package livenet

import (
	"bufio"
	"bytes"
	"testing"
	"time"
)

// TestControlAllocs pins the hot control plane — heartbeat pings, pings
// carrying a gang row, pong ledgers — at zero allocations per frame on
// both the encode and decode paths. These frames flow every round on
// every link; a single allocation here is a per-round, per-node GC tax.
func TestControlAllocs(t *testing.T) {
	ping := &Ping{Seq: 42, Epoch: 7}
	pong := &Pong{Seq: 42, Node: 3, Epoch: 7, Absent: 0b1010}
	strobe := &Ping{Seq: 43, Row: 3, Epoch: 7}

	ec := discardConn()
	if avg := testing.AllocsPerRun(200, func() {
		if sendAll(ec, Message{Ping: ping}, Message{Pong: pong}, Message{Ping: strobe}) != nil {
			t.Fatal("send failed")
		}
	}); avg != 0 {
		t.Fatalf("control encode allocates %.1f/op, want 0", avg)
	}

	// Capture one wire image of the three frames, then decode it
	// repeatedly through a reset reader.
	var buf bytes.Buffer
	cc := writeConn(&buf)
	if sendAll(cc, Message{Ping: ping}, Message{Pong: pong}, Message{Ping: strobe}) != nil {
		t.Fatal("capture failed")
	}
	wire := append([]byte(nil), buf.Bytes()...)
	br := bytes.NewReader(wire)
	dc := &conn{r: bufio.NewReader(br)}
	if avg := testing.AllocsPerRun(200, func() {
		br.Reset(wire)
		dc.r.Reset(br)
		for i := 0; i < 3; i++ {
			m, err := dc.recv()
			if err != nil {
				t.Fatal(err)
			}
			switch i {
			case 0:
				if m.Ping == nil || m.Ping.Seq != 42 || m.Ping.Row != 0 || m.Ping.Epoch != 7 {
					t.Fatal("ping mangled")
				}
			case 1:
				if m.Pong == nil || m.Pong.Node != 3 || m.Pong.Absent != 0b1010 {
					t.Fatal("pong mangled")
				}
			case 2:
				if m.Ping == nil || m.Ping.Seq != 43 || m.Ping.Row != 3 || m.Ping.Epoch != 7 {
					t.Fatal("ping with a row mangled")
				}
			}
		}
	}); avg != 0 {
		t.Fatalf("control decode allocates %.1f/op, want 0", avg)
	}
}

// TestSubtreePreorder validates the ledger bit-layout convention against
// the independent BFS membership: a laid position's subtree starts at
// its root, covers exactly the BFS membership, and lays each child's
// block out contiguously at offset 1 + sum of earlier siblings' sizes —
// the shift-compose rule ledgerLocked and the MM evaluator both assume.
func TestSubtreePreorder(t *testing.T) {
	for _, tc := range []struct{ n, fanout int }{{1, 2}, {5, 2}, {7, 2}, {13, 3}, {9, 1}} {
		tree := layTree(testLinks(tc.n), tc.fanout)
		for pos := 0; pos < tc.n; pos++ {
			pre := tree.pos[pos].subtree
			if pre[0] != pos {
				t.Fatalf("n=%d f=%d pos=%d: preorder starts at %d", tc.n, tc.fanout, pos, pre[0])
			}
			want := map[int]bool{}
			for _, p := range subtreeNodes(pos, tc.n, tc.fanout) {
				want[p] = true
			}
			if len(pre) != len(want) {
				t.Fatalf("n=%d f=%d pos=%d: preorder has %d nodes, BFS has %d", tc.n, tc.fanout, pos, len(pre), len(want))
			}
			for _, p := range pre {
				if !want[p] {
					t.Fatalf("n=%d f=%d pos=%d: %d in preorder but not in subtree", tc.n, tc.fanout, pos, p)
				}
			}
			off := 1
			for _, ch := range tree.pos[pos].kids {
				if pre[off] != ch {
					t.Fatalf("n=%d f=%d pos=%d: child %d not at offset %d (found %d)", tc.n, tc.fanout, pos, ch, off, pre[off])
				}
				off += len(tree.pos[ch].subtree)
			}
			if off != len(pre) {
				t.Fatalf("n=%d f=%d pos=%d: child blocks cover %d of %d slots", tc.n, tc.fanout, pos, off, len(pre))
			}
		}
	}
}

// TestLedgerAggregation exercises the NM-side fold: fresh children's
// bitmaps shift into place and a silent child's whole subtree is marked
// absent.
func TestLedgerAggregation(t *testing.T) {
	nm := &NM{node: 1}
	ctl := &nmCtl{treeRole: treeRole{
		epoch: 3,
		children: []*relayChild{
			{node: 3, size: 2},
			{node: 4, size: 3},
		},
	}}

	// Both children fresh for seq 10; child 3 reports its second node
	// (bit 1, node 7) absent.
	ctl.children[0].ledger = pongLedger{seq: 10, absent: 0b10}
	ctl.children[1].ledger = pongLedger{seq: 10, absent: 0}
	p := nm.ledgerLocked(ctl, 10)
	if p.Seq != 10 || p.Node != 1 || p.Epoch != 3 {
		t.Fatalf("ledger header wrong: %+v", p)
	}
	// Child 3's local bit 1 lands at parent bit 1+1=2; nothing else set.
	if p.Absent != 0b100 {
		t.Fatalf("Absent = %#b, want %#b", p.Absent, uint64(0b100))
	}

	// Child 4 goes silent: its whole 3-node block (bits 3..5) is absent.
	ctl.children[1].ledger.seq = 10 // stale relative to seq 11
	ctl.children[0].ledger = pongLedger{seq: 11, absent: 0}
	p = nm.ledgerLocked(ctl, 11)
	if p.Absent != 0b111000 {
		t.Fatalf("silent subtree: Absent = %#b, want %#b", p.Absent, uint64(0b111000))
	}

	// Degenerate width: a 70-node subtree saturates the mask without
	// shifting out of range.
	if subtreeMask(70) != ^uint64(0) {
		t.Fatal("oversized subtree mask must saturate")
	}
	if subtreeMask(0) != 0 {
		t.Fatal("empty mask must be zero")
	}
}

// TestLedgersVouchSinceJudgement: the detector vouches for a node that
// any ledger of a round since its last judgement showed present. Gang
// rounds supersede a heartbeat round's collection long before its period
// ends, so the latest ledger alone would miss a node that was late once;
// a ledger of a round before the judgement vouches for no one.
func TestLedgersVouchSinceJudgement(t *testing.T) {
	mm := &MM{}
	mm.ctl.epoch = 1
	mm.ctl.kids = newKids(layTree(testLinks(7), 2))
	mm.ctl.vouchFrom = 10
	kid := mm.ctl.kids[0]
	if kid.vouches(0, mm.ctl.vouchFrom) {
		t.Fatal("a child with no ledger vouched")
	}
	node := kid.link.node
	mm.onPong(&Pong{Seq: 9, Node: node, Epoch: 1})                 // before the judgement
	mm.onPong(&Pong{Seq: 10, Node: node, Epoch: 1, Absent: 0b110}) // positions 1, 2 late
	mm.onPong(&Pong{Seq: 11, Node: node, Epoch: 1, Absent: 0b101}) // positions 0, 2 late
	for j, want := range []bool{true, true, false} {
		if got := kid.vouches(j, mm.ctl.vouchFrom); got != want {
			t.Errorf("position %d: vouched %v, want %v", j, got, want)
		}
	}
}

// TestControlEgressFlatInClusterSize is the O(fanout) acceptance check:
// with the tree heartbeat active and the cluster idle, the MM writes
// Fanout ping frames per period — the same at 4 nodes as at 12. The
// flat design this replaces wrote n frames per period.
func TestControlEgressFlatInClusterSize(t *testing.T) {
	const period = 50 * time.Millisecond
	const window = 12 // periods in the sampling window
	perPeriod := func(n int) float64 {
		mm, _ := startCluster(t, n, MMConfig{Fanout: 2})
		stop := mm.StartHeartbeat(period, nil)
		defer stop()
		time.Sleep(4 * period) // settle: CtlPlans installed, ledgers warm
		f0, _ := mm.ControlEgress()
		time.Sleep(window * period)
		f1, _ := mm.ControlEgress()
		return float64(f1-f0) / window
	}
	small := perPeriod(4)
	big := perPeriod(12)
	// Steady state is exactly Fanout=2 frames per period; allow ticker
	// phase and a stray isolation probe on a loaded machine. The bound
	// must hold independent of n — at 12 nodes the flat detector would
	// measure ~12.
	const limit = 4.5
	if small > limit {
		t.Errorf("4-node MM control egress %.1f frames/period, want <= %.1f", small, limit)
	}
	if big > limit {
		t.Errorf("12-node MM control egress %.1f frames/period, want <= %.1f (flat would be ~12)", big, limit)
	}
}

// TestHeartbeatEmptyCluster is the stormd startup order: heartbeat (and
// strobe loop) started before any NM registers. The detector must tick
// harmlessly on the empty tree — syncCtl's unchanged fast path never
// rebuilds anything, so the latency meters have to work from their zero
// value — and pick the nodes up once they arrive.
func TestHeartbeatEmptyCluster(t *testing.T) {
	const period = 20 * time.Millisecond
	mm, err := NewMM("127.0.0.1:0", MMConfig{Fanout: 2, GangQuantum: period / 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mm.Close)
	stop := mm.StartHeartbeat(period, nil)
	defer stop()
	time.Sleep(4 * period) // ticks with zero members must not panic
	for i := 0; i < 3; i++ {
		nm, err := NewNM(mm.Addr(), i, 4)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nm.Close)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, n := mm.HeartbeatRTT()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat round completed after late registration")
		}
		time.Sleep(period)
	}
}

// TestProbeReturnsWhenAllAnswered: an isolation-probe round is over when
// every probed node is accounted for — it runs out its grace only for a
// node that stays silent.
func TestProbeReturnsWhenAllAnswered(t *testing.T) {
	mm, _ := startCluster(t, 4, MMConfig{})
	mm.mu.Lock()
	var links []*nmLink
	for _, m := range mm.members {
		links = append(links, m.link)
	}
	mm.mu.Unlock()
	const grace = 3 * time.Second
	start := time.Now()
	if dead := mm.probeNodes(links, grace); len(dead) != 0 {
		t.Fatalf("live nodes failed their probe: %v", dead)
	}
	if took := time.Since(start); took > grace/3 {
		t.Fatalf("a probe every node answered took %v of its %v grace", took, grace)
	}
}

// TestPingEnactsItsRow: a ping carrying a gang row switches the row on
// arrival, before the epoch check, so a ping of an epoch the node did not
// install still enacts it — but is then neither relayed nor answered. A
// probe (Epoch 0) is answered and enacts nothing, whatever it carries.
func TestPingEnactsItsRow(t *testing.T) {
	from, child := discardConn(), discardConn()
	nm := bareNM(1, discardConn())
	nm.jobs[1] = &nmJob{gate: newGate(false), row: 1}
	nm.jobs[2] = &nmJob{gate: newGate(true), row: 0}
	nm.writers[""] = &linkWriter{c: child}
	nm.ctl = &nmCtl{treeRole: treeRole{epoch: 3, parent: from, children: []*relayChild{{node: 2, size: 1, c: child}}}}
	rows := func() (open1, open2 bool) { return nm.jobs[1].gate.isOpen(), nm.jobs[2].gate.isOpen() }

	nm.onCtlPing(&Ping{Seq: 7, Row: 1 + 1, Epoch: 2}, from)
	if o1, o2 := rows(); !o1 || o2 || nm.strobesSeen != 1 {
		t.Fatalf("a stale-epoch ping carrying row 1: gates %v/%v, %d switches; want row 1 running", o1, o2, nm.strobesSeen)
	}
	if from.sentFrames.Load() != 0 || child.sentFrames.Load() != 0 || nm.ctl.collecting != 0 {
		t.Fatalf("a stale-epoch ping was answered (%d) or relayed (%d)", from.sentFrames.Load(), child.sentFrames.Load())
	}

	nm.onCtlPing(&Ping{Seq: 1 << 40, Row: 0 + 1}, from)
	if o1, o2 := rows(); !o1 || o2 || nm.strobesSeen != 1 {
		t.Fatalf("a probe switched rows: gates %v/%v, %d switches", o1, o2, nm.strobesSeen)
	}
	if from.sentFrames.Load() != 1 || child.sentFrames.Load() != 0 {
		t.Fatalf("a probe: %d answers, %d relays; want 1, 0", from.sentFrames.Load(), child.sentFrames.Load())
	}

	nm.onCtlPing(&Ping{Seq: 8, Row: 0 + 1, Epoch: 3}, from)
	nm.wg.Wait() // the child's link writer
	if o1, o2 := rows(); o1 || !o2 || nm.strobesSeen != 2 {
		t.Fatalf("a current ping carrying row 0: gates %v/%v, %d switches; want row 0 running", o1, o2, nm.strobesSeen)
	}
	if child.sentFrames.Load() != 1 || nm.ctl.collecting != 8 {
		t.Fatalf("a current ping: %d relays, collecting %d; want 1, 8", child.sentFrames.Load(), nm.ctl.collecting)
	}
}

// TestGangRoundsVouch: gang switches every 5 ms supersede each heartbeat
// round's collection long before its 50 ms period ends, so the detector
// must vouch from the ledgers of every round since its last judgement:
// through a second of gang rounds no node is probed or convicted, both
// meters fill, and every NM enacts switches.
func TestGangRoundsVouch(t *testing.T) {
	const n = 16
	mm, nms := startCluster(t, n, MMConfig{Fanout: 2, GangQuantum: 5 * time.Millisecond, MPL: 2, TermTimeout: 10 * time.Second})
	fails := make(chan int, n)
	stop := mm.StartHeartbeat(50*time.Millisecond, func(node int) { fails <- node })
	defer stop()
	if _, err := mm.RunJob(JobSpec{Name: "gang-vouch", BinaryBytes: 64 << 10, Nodes: n, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "sleep", Duration: time.Second}}); err != nil {
		t.Fatal(err)
	}
	select {
	case node := <-fails:
		t.Fatalf("node %d convicted", node)
	default:
	}
	mm.mu.Lock()
	probes := mm.probeSeq
	mm.mu.Unlock()
	if probes != 0 {
		t.Fatalf("%d isolation probes sent to a healthy cluster", probes)
	}
	if _, _, hb := mm.HeartbeatRTT(); hb == 0 {
		t.Fatal("no heartbeat round settled")
	}
	if _, _, st := mm.StrobeLatency(); st == 0 {
		t.Fatal("no gang-switch round settled")
	}
	for _, nm := range nms {
		if nmStrobes(nm) == 0 {
			t.Fatalf("node %d enacted no switch", nm.node)
		}
	}
}
