package livenet

import (
	"slices"
	"sync"
	"time"
)

// Heartbeat failure detection on the live control plane. Unlike the
// simulator's flat detector (one unicast ping per node per period), the
// live MM multicasts ONE sequence-numbered ping per round to its ≤k
// control-tree children; every NM relays it down and answers with a
// cumulative subtree ledger (ctl.go), so the MM's steady-state control
// egress — and ingress — is O(fanout) while it still observes per-node
// liveness through the ledgers' absentee bitmaps. The heartbeat sends one
// round per period and judges at each; gang switches (gang.go) are rounds
// of the same sequence in between, and their ledgers vouch as well: a node
// is vouched for when any ledger of a round sent since the previous
// judgement shows it present.
//
// Suspicion is deliberately two-staged, preserving the flat detector's
// conviction bound: a node no fresh ledger vouched for (or whose whole
// subtree went silent) for two consecutive periods is only *suspected*;
// before being declared failed it gets a directed unicast isolation
// probe with a grace window — tree aggregation never convicts anyone on
// its own, it only chooses whom to probe. A merely-slow subtree costs a
// spare probe round; a dead node is flagged within ~3 periods plus the
// grace even at the bottom of the tree.

// mmCtl is the MM's view of the control tree plus the latency metrics
// the bench reports. Guarded by MM.mu.
type mmCtl struct {
	epoch   int
	members []*nmLink // the registrations the tree was laid over, by node ID
	kids    []*mmKid  // the MM's direct children

	// seq is the last control round multicast, heartbeat or gang switch
	// alike; vouchFrom is the round the heartbeat's last judgement sent,
	// the first whose ledgers its next judgement reads (mmKid.present).
	seq, vouchFrom int64

	// hb times a heartbeat round → every direct child's ledger at or
	// past it; strobe times a gang-switch round → every direct child's
	// clean ledger (no absentee) at or past it: every node had it then.
	hb, strobe latencyMeter
}

// latencyMeter times multicast rounds: arm stamps a round's sequence
// number with its send time, settle folds the rounds the answers now
// cover into the running stats. The zero value is ready to use.
type latencyMeter struct {
	sent        map[int64]time.Time // armed rounds: seq -> send time
	n, sum, max int64               // settled rounds; nanoseconds
}

// arm stamps round seq as sent now and forgets the rounds more than 32
// behind it (their answers never came).
func (l *latencyMeter) arm(seq int64) {
	if l.sent == nil {
		l.sent = make(map[int64]time.Time)
	}
	l.sent[seq] = time.Now()
	for k := range l.sent {
		if k < seq-32 {
			delete(l.sent, k)
		}
	}
}

// settle completes every armed round up to hi.
func (l *latencyMeter) settle(hi int64) {
	for seq, t0 := range l.sent {
		if seq > hi {
			continue
		}
		d := time.Since(t0).Nanoseconds()
		l.n++
		l.sum += d
		l.max = max(l.max, d)
		delete(l.sent, seq)
	}
}

// stats reports the settled rounds: mean, max, count.
func (l *latencyMeter) stats() (mean, max time.Duration, n int64) {
	if l.n > 0 {
		mean = time.Duration(l.sum / l.n)
	}
	return mean, time.Duration(l.max), l.n
}

// round multicasts one control round: it brings the tree up to date
// (syncCtl), numbers the round, arms its meter and writes one Ping per
// direct child. row is the gang row the round switches to, -1 for a
// heartbeat. judge, when set, runs under mm.mu with syncCtl's epoch and
// the new round's number before the round is armed and sent.
func (mm *MM) round(row int, judge func(epoch int, s int64)) {
	kids, epoch := mm.syncCtl()
	mm.mu.Lock()
	mm.ctl.seq++
	s := mm.ctl.seq
	meter := &mm.ctl.hb
	if row >= 0 {
		mm.strobes++
		meter = &mm.ctl.strobe
	}
	if judge != nil {
		judge(epoch, s)
	}
	if epoch == mm.ctl.epoch && len(kids) > 0 {
		meter.arm(s)
	}
	mm.mu.Unlock()
	fanOut(len(kids), func(i int) { kids[i].c.send(Message{Ping: &Ping{Seq: s, Row: row + 1, Epoch: epoch}}) })
}

// syncCtl rebuilds the control tree when membership changed
// (registration, disconnect, conviction) and announces it as a stripe
// tree is announced: one CtlPlan to each direct child, carrying the
// child's subtree, which every NM installs and relays on down — O(fanout)
// frames from the MM on a change as in every period. Returns the MM's
// direct children and the current epoch.
func (mm *MM) syncCtl() (kids []*nmLink, epoch int) {
	mm.mu.Lock()
	links := make([]*nmLink, 0, len(mm.members))
	for _, m := range mm.members {
		if m.link != nil && !m.convicted {
			links = append(links, m.link)
		}
	}
	slices.SortFunc(links, func(a, b *nmLink) int { return a.node - b.node })
	var plans []CtlPlan // plans[i] goes to direct child i, only when the tree changed
	if !slices.Equal(links, mm.ctl.members) {
		mm.ctl.epoch++
		mm.ctl.members = links
		tree := layTree(links, mm.cfg.Fanout)
		mm.ctl.kids = newKids(tree)
		for _, tk := range tree.kids {
			plans = append(plans, CtlPlan{Epoch: mm.ctl.epoch, Tree: tree.below(tk.pos)})
		}
		clear(mm.ctl.hb.sent)
		clear(mm.ctl.strobe.sent)
	}
	epoch = mm.ctl.epoch
	for _, kid := range mm.ctl.kids {
		kids = append(kids, kid.link)
	}
	mm.mu.Unlock()
	fanOut(len(plans), func(i int) { kids[i].c.send(Message{CtlPlan: &plans[i]}) })
	return kids, epoch
}

// StartHeartbeat runs the tree heartbeat failure detector: one
// multicast ping per period, aggregated pong ledgers back, and
// onFail(node) called once per node that stops answering (after a
// failed isolation probe). The returned stop function is idempotent;
// MM.Close also stops the detector.
func (mm *MM) StartHeartbeat(period time.Duration, onFail func(node int)) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	stop = func() { once.Do(func() { close(done) }) }
	mm.mu.Lock()
	mm.loopStops = append(mm.loopStops, stop)
	mm.hbActive++
	mm.mu.Unlock()
	// The isolation-probe grace is one period: a suspect is declared
	// failed no later than ~3 periods (ledger absence at tree depth) +
	// 1 period (unanswered probe) after its last sign of life.
	go mm.heartbeatLoop(period, period, onFail, done)
	return stop
}

func (mm *MM) heartbeatLoop(period, grace time.Duration, onFail func(node int), done chan struct{}) {
	defer func() {
		mm.mu.Lock()
		mm.hbActive--
		mm.mu.Unlock()
	}()
	lastEpoch := 0
	warm := 0 // judgements left in the post-epoch-change grace: ledgers need a round to warm
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
		}
		// Judge the rounds since the previous judgement, in the hold of
		// mm.mu that opens this one: which nodes did a ledger vouch for? A
		// suspect whose control link is gone is dead outright; anyone else
		// gets a directed unicast probe. The tree only nominates suspects —
		// conviction always rests on a failed direct probe.
		var probeLinks []*nmLink
		var dead []int
		suspect := func(m *member) {
			if m.streak++; m.streak < 2 {
				return
			}
			if m.link != nil {
				probeLinks = append(probeLinks, m.link)
			} else {
				dead = append(dead, m.node)
			}
		}
		mm.round(-1, func(epoch int, s int64) {
			if epoch != lastEpoch {
				lastEpoch, warm = epoch, 2
			}
			if epoch == mm.ctl.epoch {
				for _, kid := range mm.ctl.kids {
					for j, node := range kid.subtree {
						m := mm.members[node]
						m.seen = s
						vouched := kid.vouches(j, mm.ctl.vouchFrom)
						if vouched {
							mm.servePeriod(m)
						}
						switch {
						case m.convicted || warm > 0:
						case vouched:
							m.streak = 0
						default:
							suspect(m)
						}
					}
					kid.present = 0
				}
			}
			for _, m := range mm.members {
				// In an earlier round's tree, not in this one's, and not convicted:
				// its registration died or it was never replanted. No ledger
				// will ever vouch for it again, so absence accounting needs no
				// warm-up.
				if m.seen > 0 && m.seen != s && !m.convicted {
					suspect(m)
				}
			}
			mm.ctl.vouchFrom = s
			warm = max(warm-1, 0)
		})

		// Isolation-probe pass: the grace window to answer.
		for node := range mm.probeNodes(probeLinks, grace) {
			dead = append(dead, node)
		}
		for _, node := range dead {
			mm.mu.Lock()
			mm.convict(mm.members[node])
			mm.mu.Unlock()
			if onFail != nil {
				go onFail(node)
			}
		}
	}
}

// onPong routes a pong to whichever detector asked: directed isolation
// probes (Epoch 0, disjoint high sequence range) credit their probe
// round; a tree ledger updates its direct child's record — the latest
// ledger, the presence the heartbeat's next judgement reads and, when
// no node is absent, the child's credit — and settles the meters up to
// the least ledger and the least credit among the direct children.
func (mm *MM) onPong(p *Pong) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if pr := mm.probes[p.Seq]; pr != nil {
		pr.settle(p.Node)
		return
	}
	kid := kidOf(mm.ctl.kids, p.Node)
	if p.Epoch == 0 || p.Epoch != mm.ctl.epoch || kid == nil {
		return // stale topology (or a probe reply that missed its round)
	}
	if p.Seq > kid.ledger.seq {
		kid.ledger = pongLedger{seq: p.Seq, absent: p.Absent}
	}
	if p.Seq >= mm.ctl.vouchFrom {
		kid.present |= ^p.Absent
	}
	if p.Absent == 0 {
		kid.credit(int(p.Seq))
	}
	covered := p.Seq
	for _, kid := range mm.ctl.kids {
		covered = min(covered, kid.ledger.seq)
	}
	mm.ctl.hb.settle(covered)
	mm.ctl.strobe.settle(int64(minAcked(mm.ctl.kids, kid.acked)))
}

// vouches reports whether a ledger of a round at or past from showed the
// node at subtree position j present (past position 63: whether one came).
func (kid *mmKid) vouches(j int, from int64) bool {
	fresh := kid.ledger.seq > 0 && kid.ledger.seq >= from
	return fresh && (j >= 64 || kid.present&(uint64(1)<<uint(j)) != 0)
}

// HeartbeatRTT reports the observed ping→full-ledger round trip (mean,
// max, sample count): the time from a heartbeat multicast until every
// direct child's aggregated subtree ledger for that round, or a later
// one, arrived.
func (mm *MM) HeartbeatRTT() (mean, max time.Duration, n int64) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.ctl.hb.stats()
}

// StrobeLatency reports the observed gang-switch latency (mean, max,
// sample count): the time from a gang-switch round's multicast until
// every direct child's ledger at or past it came back with no absentee.
func (mm *MM) StrobeLatency() (mean, max time.Duration, n int64) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.ctl.strobe.stats()
}

// ControlEgress sums the frames and bytes the MM has written across
// every registered NM link — the control-egress metric the bench
// samples over idle heartbeat periods to assert O(fanout) scaling.
func (mm *MM) ControlEgress() (frames, bytes int64) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	for _, m := range mm.members {
		if m.link != nil {
			frames += m.link.c.sentFrames.Load()
			bytes += m.link.c.sentBytes()
		}
	}
	return frames, bytes
}
