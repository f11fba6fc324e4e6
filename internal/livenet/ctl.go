package livenet

// The NM side of the cluster-wide control tree — the lightning-fast
// control plane. Heartbeat pings and gang strobes multicast down the
// same k-ary tree the binary distribution uses, and their answers
// aggregate back up it, so the MM's per-period control egress is
// O(fanout) regardless of cluster size:
//
//   - A Ping relays to this node's control children; their pong ledgers
//     (cumulative per subtree) are folded into one ledger that goes up
//     the conn the ping arrived on. A child that stays silent for a
//     whole period is reported absent — its entire subtree's bits —
//     rather than waited on, so a dead branch surfaces at the MM within
//     one period per level at worst and the MM's streak+probe logic
//     (detector.go) keeps the conviction bound at the flat detector's.
//   - A Strobe is enacted locally first (the context switch must not
//     queue behind the relay fan-out), then relayed; strobe acks
//     aggregate exactly like fragment acks — the minimum over the local
//     apply point and every child subtree's cumulative credit.
//
// The tree is laid as a stripe tree is: on a membership change the MM
// sends each direct child a CtlPlan carrying the child's subtree, and
// every NM installs its children from the plan and relays each its own
// slice — over the links the pings and strobes then take, so a link
// carries the plan ahead of any other control frame. The plan is a body
// frame sent on membership changes only; all per-period traffic is
// fixed-part frames of the same codec with zero steady-state allocations
// (TestControlAllocs).

// ctlChild is one control-tree child: where to relay, the plan that
// installs it, and the latest state it reported.
type ctlChild struct {
	node    int
	addr    string
	size    int     // nodes its ledgers vouch for, itself included
	off     int     // bit offset of this child's subtree in the parent's ledger
	plan    CtlPlan // the child's own slice of the tree
	planned *conn   // the link the plan last went down; nil before the first

	lastSeq    int64  // Seq of the child's latest pong ledger
	lastAbsent uint64 // its Absent bitmap (child-local bit positions)
	strobeAck  int64  // cumulative strobe credit from this subtree
}

// nmCtl is an NM's installed role in the control tree, replaced
// wholesale on every epoch change.
type nmCtl struct {
	epoch    int
	parent   *conn // conn the epoch's plan arrived on; answers go up it
	children []*ctlChild

	collecting int64 // heartbeat seq being aggregated (0 = none pending)

	strobeSeen int64 // latest strobe seq enacted locally
	strobeUp   int64 // cumulative strobe credit already propagated up
}

// subtreeMask returns a bitmap with the first n positions set (all 64
// when the subtree outgrows the ledger width).
func subtreeMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// onCtlPlan handles a control plan by its epoch. Plans come down from
// parents as well as from the MM, so one may arrive late: an older epoch's
// is dropped. The installed epoch's, re-sent on a redialed link, binds
// the parent to that link and changes nothing else. A newer epoch's
// installs this node's children from the plan's tree — each child's
// ledger bits at 1 plus the sizes of its earlier siblings — binds the
// parent, and relays each child its own slice.
func (nm *NM) onCtlPlan(p *CtlPlan, from *conn) {
	nm.mu.Lock()
	if nm.ctl != nil && p.Epoch <= nm.ctl.epoch {
		if p.Epoch == nm.ctl.epoch {
			nm.ctl.parent = from
		}
		nm.mu.Unlock()
		return
	}
	ctl := &nmCtl{epoch: p.Epoch, parent: from}
	off := 1
	for _, sub := range splitTree(p.Tree) {
		ctl.children = append(ctl.children, &ctlChild{node: sub[0].Node, addr: sub[0].Addr, size: len(sub), off: off,
			plan: CtlPlan{Epoch: p.Epoch, Tree: sub[1:]}})
		off += len(sub)
	}
	nm.ctl = ctl
	nm.mu.Unlock()
	for _, ch := range ctl.children {
		nm.relayCtl(ch, Message{CtlPlan: &ch.plan})
	}
}

// onCtlPing handles a heartbeat ping: a directed isolation probe
// (Epoch 0) is answered immediately and never relayed; a tree ping is
// relayed to the control children and answered with the aggregated
// subtree ledger — immediately for a leaf, on the last child's pong (or
// the next ping, whichever comes first) for an interior node.
func (nm *NM) onCtlPing(p *Ping, from *conn) {
	if p.Epoch == 0 {
		from.send(Message{Pong: &Pong{Seq: p.Seq, Node: nm.node}})
		return
	}
	seq, epoch := p.Seq, p.Epoch
	nm.mu.Lock()
	ctl := nm.ctl
	if ctl == nil || epoch != ctl.epoch {
		nm.mu.Unlock()
		return // stale topology: a ping of an epoch this node did not install
	}
	// A new ping supersedes the previous collection: flush it with the
	// silent children marked absent rather than waiting on them forever.
	var flush *Pong
	if ctl.collecting != 0 && ctl.collecting < seq {
		flush = nm.ledgerLocked(ctl, ctl.collecting)
		ctl.collecting = 0
	}
	var relay []*ctlChild
	if len(ctl.children) > 0 {
		ctl.collecting = seq
		relay = append(relay, ctl.children...)
	}
	nm.mu.Unlock()
	if flush != nil {
		from.send(Message{Pong: flush})
	}
	if len(relay) == 0 {
		from.send(Message{Pong: &Pong{Seq: seq, Node: nm.node, Epoch: epoch}})
		return
	}
	for _, ch := range relay {
		nm.relayCtl(ch, Message{Ping: &Ping{Seq: seq, Epoch: epoch}})
	}
}

// ledgerLocked builds the aggregated subtree ledger for heartbeat seq s:
// the absentee bitmap, with each fresh child bitmap folded in at its
// pre-order offset and each silent child's whole subtree marked absent.
// Caller holds nm.mu.
func (nm *NM) ledgerLocked(ctl *nmCtl, s int64) *Pong {
	var absent uint64
	for _, ch := range ctl.children {
		if ch.lastSeq >= s {
			absent |= ch.lastAbsent << uint(ch.off)
		} else {
			absent |= subtreeMask(ch.size) << uint(ch.off)
		}
	}
	return &Pong{Seq: s, Node: nm.node, Epoch: ctl.epoch, Absent: absent}
}

// onCtlPong folds a child subtree's ledger into the pending collection
// and sends the completed ledger up once every child has answered.
func (nm *NM) onCtlPong(p *Pong) {
	nm.mu.Lock()
	ctl := nm.ctl
	if ctl == nil || p.Epoch != ctl.epoch {
		nm.mu.Unlock()
		return
	}
	for _, ch := range ctl.children {
		if ch.node == p.Node && p.Seq > ch.lastSeq {
			ch.lastSeq, ch.lastAbsent = p.Seq, p.Absent
			break
		}
	}
	var out *Pong
	var parent *conn
	if s := ctl.collecting; s != 0 {
		complete := true
		for _, ch := range ctl.children {
			if ch.lastSeq < s {
				complete = false
				break
			}
		}
		if complete {
			out = nm.ledgerLocked(ctl, s)
			ctl.collecting = 0
			parent = ctl.parent
		}
	}
	nm.mu.Unlock()
	if out != nil && parent != nil {
		parent.send(Message{Pong: out})
	}
}

// onCtlStrobe enacts a gang context switch and propagates it: apply
// locally first, relay to the control children, then advance the
// aggregated ack.
func (nm *NM) onCtlStrobe(s *Strobe) {
	nm.onStrobe(s.Row)
	seq, epoch, row := s.Seq, s.Epoch, s.Row
	nm.mu.Lock()
	ctl := nm.ctl
	if ctl == nil || epoch != ctl.epoch {
		// The row switch itself is global and was applied; acking or
		// relaying under a stale topology would corrupt the new epoch's
		// cumulative credit, so stop here.
		nm.mu.Unlock()
		return
	}
	if seq > ctl.strobeSeen {
		ctl.strobeSeen = seq
	}
	relay := append([]*ctlChild(nil), ctl.children...)
	nm.mu.Unlock()
	for _, ch := range relay {
		nm.relayCtl(ch, Message{Strobe: &Strobe{Seq: seq, Row: row, Epoch: epoch}})
	}
	nm.advanceStrobeAck()
}

// onCtlStrobeAck records a child subtree's cumulative strobe credit and
// advances the aggregate.
func (nm *NM) onCtlStrobeAck(a *StrobeAck) {
	nm.mu.Lock()
	ctl := nm.ctl
	if ctl == nil || a.Epoch != ctl.epoch {
		nm.mu.Unlock()
		return
	}
	for _, ch := range ctl.children {
		if ch.node == a.Node && a.Seq > ch.strobeAck {
			ch.strobeAck = a.Seq
			break
		}
	}
	nm.mu.Unlock()
	nm.advanceStrobeAck()
}

// advanceStrobeAck propagates the aggregated strobe credit — the
// minimum over the local apply point and every child subtree — up to
// the parent whenever it advances, mirroring advanceAck on the bulk
// path.
func (nm *NM) advanceStrobeAck() {
	nm.mu.Lock()
	ctl := nm.ctl
	if ctl == nil || ctl.parent == nil {
		nm.mu.Unlock()
		return
	}
	min := ctl.strobeSeen
	for _, ch := range ctl.children {
		if ch.strobeAck < min {
			min = ch.strobeAck
		}
	}
	if min <= ctl.strobeUp {
		nm.mu.Unlock()
		return
	}
	ctl.strobeUp = min
	parent := ctl.parent
	epoch := ctl.epoch
	nm.mu.Unlock()
	parent.send(Message{StrobeAck: &StrobeAck{Seq: min, Node: nm.node, Epoch: epoch}})
}

// relayCtl forwards one control-tree frame to a child over the cached
// relay link, dialing it if there is none. A link that has not carried
// the child's plan yet — the first, or one redialed after a failed write
// — gets the plan ahead of the frame, so a plan lost with a dead link is
// re-sent with the next period's frame. A link whose write fails is
// dropped and not redialed within the round: the next period's relay
// redials it, and the missed round surfaces as an absence in the MM's
// ledger, never as a stall.
func (nm *NM) relayCtl(ch *ctlChild, m Message) {
	cc, err := nm.peerConn(ch.node, ch.addr)
	if err != nil {
		return
	}
	nm.mu.Lock()
	fresh := ch.planned != cc
	ch.planned = cc
	nm.mu.Unlock()
	if fresh && m.CtlPlan == nil {
		_, err = cc.send(Message{CtlPlan: &ch.plan})
	}
	if err == nil {
		_, err = cc.send(m)
	}
	if err != nil {
		nm.dropLink(cc)
	}
}
