package livenet

import (
	"bufio"
	"bytes"
	"testing"
	"time"
)

// TestControlAllocs pins the hot control plane — heartbeat pings, pong
// ledgers, strobes, strobe acks — at zero allocations per frame on both
// the encode and decode paths. These frames flow every period on every
// link; a single allocation here is a per-period, per-node GC tax.
func TestControlAllocs(t *testing.T) {
	ping := &Ping{Seq: 42, Epoch: 7}
	pong := &Pong{Seq: 42, Node: 3, Epoch: 7, Absent: 0b1010}
	strobe := &Strobe{Seq: 9, Row: 2, Epoch: 7}
	sack := &StrobeAck{Seq: 9, Node: 3, Epoch: 7}

	ec := discardConn()
	if avg := testing.AllocsPerRun(200, func() {
		if sendAll(ec, Message{Ping: ping}, Message{Pong: pong}, Message{Strobe: strobe}, Message{StrobeAck: sack}) != nil {
			t.Fatal("send failed")
		}
	}); avg != 0 {
		t.Fatalf("control encode allocates %.1f/op, want 0", avg)
	}

	// Capture one wire image of the four frames, then decode it
	// repeatedly through a reset reader.
	var buf bytes.Buffer
	cc := &conn{w: bufio.NewWriter(&buf)}
	if sendAll(cc, Message{Ping: ping}, Message{Pong: pong}, Message{Strobe: strobe}, Message{StrobeAck: sack}) != nil {
		t.Fatal("capture failed")
	}
	wire := append([]byte(nil), buf.Bytes()...)
	br := bytes.NewReader(wire)
	dc := &conn{r: bufio.NewReader(br)}
	if avg := testing.AllocsPerRun(200, func() {
		br.Reset(wire)
		dc.r.Reset(br)
		for i := 0; i < 4; i++ {
			m, err := dc.recv()
			if err != nil {
				t.Fatal(err)
			}
			switch i {
			case 0:
				if m.Ping == nil || m.Ping.Seq != 42 || m.Ping.Epoch != 7 {
					t.Fatal("ping mangled")
				}
			case 1:
				if m.Pong == nil || m.Pong.Node != 3 || m.Pong.Absent != 0b1010 {
					t.Fatal("pong mangled")
				}
			case 2:
				if m.Strobe == nil || m.Strobe.Row != 2 || m.Strobe.Seq != 9 {
					t.Fatal("strobe mangled")
				}
			case 3:
				if m.StrobeAck == nil || m.StrobeAck.Seq != 9 || m.StrobeAck.Node != 3 {
					t.Fatal("strobe ack mangled")
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
