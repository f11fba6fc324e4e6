package livenet

// The NM side of the cluster-wide control tree — the lightning-fast
// control plane. Every control round is one Ping multicast down the same
// k-ary tree the binary distribution uses, answered by one pong ledger
// per subtree aggregated back up it, so the MM's per-round control egress
// is O(fanout) regardless of cluster size. A heartbeat is a round that
// carries no row; a gang context switch is a round that carries one:
//
//   - A carried row is enacted locally first (the context switch must
//     not queue behind the relay fan-out, nor wait for a plan of the
//     round's epoch), then the ping relays to this node's control
//     children; their pong ledgers (cumulative per subtree) are folded
//     into one ledger that goes up the conn the ping arrived on.
//   - A child that stays silent until the next round's ping is reported
//     absent — its entire subtree's bits — rather than waited on, so a
//     dead branch surfaces at the MM within one round per level at worst
//     and the MM's streak+probe logic (detector.go) keeps the conviction
//     bound at the flat detector's. A ledger with no absentee says every
//     node of the subtree has had the round, the switch it carried
//     included: the MM's gang-switch latency needs no answer of its own.
//
// The tree is laid, installed and relayed as a stripe tree is: on a
// membership change the MM sends each direct child a CtlPlan carrying the
// child's subtree, every NM installs its children from the plan, and the
// one hop down every tree (NM.relay) writes each child its own slice of
// the plan ahead of any other frame on a link that has not carried it,
// so no ping outruns the plan it belongs to. The tree owns how long a
// child that hop could not reach stays down: one round, as each ping
// clears the marks, and the round's absence in the ledger is the
// evidence. The plan is a body frame sent on membership changes only;
// all per-round traffic is fixed-part frames of the same codec with zero
// steady-state allocations (TestControlAllocs).

// nmCtl is an NM's installed role in the control tree, replaced
// wholesale on every epoch change; its children slice is never edited.
type nmCtl struct {
	treeRole
	collecting int64 // round being aggregated (0 = none pending)
}

// pongLedger is what is kept of a control child's pong ledger.
type pongLedger struct {
	seq    int64
	absent uint64 // child-local bit positions
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
// installs this node's children from the plan's tree, binds the parent,
// and relays each child its own slice.
func (nm *NM) onCtlPlan(p *CtlPlan, from *conn) {
	nm.mu.Lock()
	if nm.ctl != nil && p.Epoch <= nm.ctl.epoch {
		if p.Epoch == nm.ctl.epoch {
			nm.ctl.parent = from
		}
		nm.mu.Unlock()
		return
	}
	ctl := &nmCtl{treeRole: treeRole{epoch: p.Epoch, parent: from}}
	ctl.install(p.Tree, func(below []TreeNode) Message {
		return Message{CtlPlan: &CtlPlan{Epoch: p.Epoch, Tree: below}}
	})
	nm.ctl = ctl
	for _, ch := range ctl.children {
		nm.relay(0, ch, Message{})
	}
	nm.mu.Unlock()
}

// onCtlPing handles a ping: a directed isolation probe (Epoch 0) is
// answered immediately and never relayed; a tree ping enacts the gang
// switch it carries, is relayed to the control children and is answered
// with the aggregated subtree ledger — immediately for a leaf, on the
// last child's pong (or the next ping, whichever comes first) for an
// interior node.
func (nm *NM) onCtlPing(p *Ping, from *conn) {
	if p.Epoch == 0 {
		from.send(Message{Pong: &Pong{Seq: p.Seq, Node: nm.node}})
		return
	}
	seq, row, epoch := p.Seq, p.Row, p.Epoch
	nm.mu.Lock()
	if row > 0 {
		// The coordinated context switch: open the designated row's gates,
		// close the rest.
		nm.strobesSeen++
		nm.enacted = row
		for _, j := range nm.jobs {
			if j.gate != nil {
				j.gate.set(j.row == row-1)
			}
		}
	}
	ctl := nm.ctl
	if ctl == nil || epoch != ctl.epoch {
		// The row switch is global and was enacted; answering or relaying
		// under a topology this node did not install would credit the
		// wrong subtree, so stop here.
		nm.mu.Unlock()
		return
	}
	// A new ping supersedes the previous collection: flush it with the
	// silent children marked absent rather than waiting on them forever.
	var flush *Pong
	if ctl.collecting != 0 && ctl.collecting < seq {
		flush = nm.ledgerLocked(ctl, ctl.collecting)
		ctl.collecting = 0
	}
	if len(ctl.children) > 0 {
		ctl.collecting = seq
	}
	// A control child's down mark lasts one round: the hop tries every
	// child again on each ping.
	for _, ch := range ctl.children {
		ch.down = false
		nm.relay(0, ch, Message{Ping: &Ping{Seq: seq, Row: row, Epoch: epoch}})
	}
	nm.mu.Unlock()
	if flush != nil {
		from.send(Message{Pong: flush})
	}
	if len(ctl.children) == 0 {
		from.send(Message{Pong: &Pong{Seq: seq, Node: nm.node, Epoch: epoch}})
	}
}

// ledgerLocked builds the aggregated subtree ledger for round s:
// the absentee bitmap, with each fresh child bitmap folded in at its
// pre-order offset (bit 0 is this node, then each child's block, as wide
// as its subtree) and each silent child's whole subtree marked absent.
// Caller holds nm.mu.
func (nm *NM) ledgerLocked(ctl *nmCtl, s int64) *Pong {
	var absent uint64
	off := 1
	for _, ch := range ctl.children {
		if ch.ledger.seq >= s {
			absent |= ch.ledger.absent << uint(off)
		} else {
			absent |= subtreeMask(ch.size) << uint(off)
		}
		off += ch.size
	}
	return &Pong{Seq: s, Node: nm.node, Epoch: ctl.epoch, Absent: absent}
}

// onCtlPong folds a child subtree's ledger, arrived on link from, into
// the pending collection and sends the completed ledger up once every
// child has answered.
func (nm *NM) onCtlPong(p *Pong, from *conn) {
	nm.mu.Lock()
	ctl := nm.ctl
	if ctl == nil || p.Epoch != ctl.epoch {
		nm.mu.Unlock()
		return
	}
	for _, ch := range ctl.children {
		if ch.c == from && p.Seq > ch.ledger.seq {
			ch.ledger = pongLedger{seq: p.Seq, absent: p.Absent}
		}
	}
	var out *Pong
	var parent *conn
	if s := ctl.collecting; s != 0 {
		complete := true
		for _, ch := range ctl.children {
			if ch.ledger.seq < s {
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
