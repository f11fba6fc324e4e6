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
// Roles are installed by CtlPlan, a body frame sent on membership
// changes only. All per-period traffic is fixed-part frames of the same
// codec with zero steady-state allocations (TestControlAllocs).

// ctlChild is one control-tree child: where to relay, the subtree its
// ledgers vouch for, and the latest state it reported.
type ctlChild struct {
	node    int
	addr    string
	subtree []int // pre-order; subtree[0] == node
	off     int   // bit offset of this child's subtree in the parent's ledger

	lastSeq    int64  // Seq of the child's latest pong ledger
	lastMin    int64  // its MinSeq
	lastAbsent uint64 // its Absent bitmap (child-local bit positions)
	strobeAck  int64  // cumulative strobe credit from this subtree
}

// nmCtl is an NM's installed role in the control tree, replaced
// wholesale on every epoch change.
type nmCtl struct {
	epoch    int
	parent   *conn // conn the latest ctl ping/strobe arrived on; answers go up it
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

// onCtlPlan installs this node's control-tree role and pre-dials the
// children so the first relayed ping is not taxed with TCP handshakes
// (best effort — the relay path redials on demand).
func (nm *NM) onCtlPlan(p *CtlPlan) {
	kids := make([]*ctlChild, 0, len(p.Children))
	off := 1
	for _, ref := range p.Children {
		kids = append(kids, &ctlChild{node: ref.Node, addr: ref.Addr, subtree: ref.Subtree, off: off})
		off += len(ref.Subtree)
	}
	nm.mu.Lock()
	nm.ctl = &nmCtl{epoch: p.Epoch, children: kids}
	nm.mu.Unlock()
	for _, ch := range kids {
		nm.peerConn(ch.node, ch.addr)
	}
}

// onCtlPing handles a heartbeat ping: a directed isolation probe
// (Epoch 0) is answered immediately and never relayed; a tree ping is
// relayed to the control children and answered with the aggregated
// subtree ledger — immediately for a leaf, on the last child's pong (or
// the next ping, whichever comes first) for an interior node.
func (nm *NM) onCtlPing(p *Ping, from *conn) {
	if p.Epoch == 0 {
		from.send(Message{Pong: &Pong{Seq: p.Seq, Node: nm.node, MinSeq: p.Seq}})
		return
	}
	seq, epoch := p.Seq, p.Epoch
	nm.mu.Lock()
	ctl := nm.ctl
	if ctl == nil || epoch != ctl.epoch {
		nm.mu.Unlock()
		return // stale topology; the current epoch's plan is in flight
	}
	ctl.parent = from
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
		from.send(Message{Pong: &Pong{Seq: seq, Node: nm.node, Epoch: epoch, MinSeq: seq}})
		return
	}
	for _, ch := range relay {
		nm.relayCtl(ch, Message{Ping: &Ping{Seq: seq, Epoch: epoch}})
	}
}

// ledgerLocked builds the aggregated subtree ledger for heartbeat seq s:
// the minimum vouched sequence across the subtree and the absentee
// bitmap, with each fresh child bitmap folded in at its pre-order offset
// and each silent child's whole subtree marked absent. Caller holds
// nm.mu.
func (nm *NM) ledgerLocked(ctl *nmCtl, s int64) *Pong {
	min := s
	var absent uint64
	for _, ch := range ctl.children {
		if ch.lastSeq >= s {
			absent |= ch.lastAbsent << uint(ch.off)
		} else {
			absent |= subtreeMask(len(ch.subtree)) << uint(ch.off)
		}
		if ch.lastMin < min {
			min = ch.lastMin
		}
	}
	return &Pong{Seq: s, Node: nm.node, Epoch: ctl.epoch, MinSeq: min, Absent: absent}
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
			ch.lastSeq, ch.lastMin, ch.lastAbsent = p.Seq, p.MinSeq, p.Absent
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
func (nm *NM) onCtlStrobe(s *Strobe, from *conn) {
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
	ctl.parent = from
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
// relay link. A dead link is dropped so the next period redials; the
// missed round surfaces as an absence in the MM's ledger, never as a
// stall.
func (nm *NM) relayCtl(ch *ctlChild, m Message) {
	cc, err := nm.peerConn(ch.node, ch.addr)
	if err != nil {
		return
	}
	if _, err := cc.send(m); err != nil {
		nm.dropLink(cc)
	}
}
