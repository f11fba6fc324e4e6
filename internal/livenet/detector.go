package livenet

import (
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/livenet/journal"
)

// Heartbeat failure detection on the live control plane. Unlike the
// simulator's flat detector (one unicast ping per node per period), the
// live MM multicasts ONE sequence-numbered ping per period to its ≤k
// control-tree children; every NM relays it down and answers with a
// cumulative subtree ledger (ctl.go), so the MM's steady-state control
// egress — and ingress — is O(fanout) while it still observes per-node
// liveness through the ledgers' absentee bitmaps.
//
// Suspicion is deliberately two-staged, preserving the flat detector's
// conviction bound: a node absent from fresh ledgers (or whose whole
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
	members []int    // sorted node IDs the tree was built over
	kids    []ctlKid // the MM's direct children

	hbSent map[int64]time.Time // ping seq -> send time (RTT waiters)

	strobeSeq  int64
	strobeSent map[int64]time.Time // strobe seq -> send time (latency waiters)

	// latency stats, nanoseconds.
	hbN, hbSum, hbMax             int64
	strobeN, strobeSum, strobeMax int64
}

// ctlKid is one direct child of the MM in the control tree (subtree in
// pre-order, the ledger's bit layout) with the latest answers it gave on
// behalf of its subtree. An answer naming a node that has no record here
// is dropped.
type ctlKid struct {
	treeKid
	ledger    mmLedger // latest pong ledger; seq 0 until the first
	strobeAck int64    // cumulative strobe credit
}

// mmLedger is what the MM keeps of a pong ledger.
type mmLedger struct {
	seq    int64
	absent uint64
}

// kid returns the record of the direct child that is node, or nil.
func (c *mmCtl) kid(node int) *ctlKid {
	for i := range c.kids {
		if c.kids[i].link.node == node {
			return &c.kids[i]
		}
	}
	return nil
}

// syncCtl rebuilds the control tree when membership changed
// (registration, disconnect, conviction) and installs every node's role
// with a CtlPlan broadcast — O(n) messages, but only on change; the
// per-period cost stays O(fanout). Returns the MM's direct children and
// the current epoch.
func (mm *MM) syncCtl() (kids []*nmLink, epoch int) {
	mm.mu.Lock()
	ids := make([]int, 0, len(mm.nms))
	for id := range mm.nms {
		if !mm.ctlExclude[id] {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	var links []*nmLink
	var plans []CtlPlan
	if !slices.Equal(ids, mm.ctl.members) {
		mm.ctl.epoch++
		mm.ctl.members = ids
		links = make([]*nmLink, len(ids))
		for i, id := range ids {
			links[i] = mm.nms[id]
		}
		tree := layTree(links, mm.cfg.Fanout)
		mm.ctl.kids = mm.ctl.kids[:0]
		for _, tk := range tree.kids {
			mm.ctl.kids = append(mm.ctl.kids, ctlKid{treeKid: tk})
		}
		mm.ctl.hbSent = make(map[int64]time.Time)
		mm.ctl.strobeSent = make(map[int64]time.Time)
		plans = make([]CtlPlan, len(links))
		for p := range links {
			plans[p] = CtlPlan{Epoch: mm.ctl.epoch, Children: tree.refs(p, true)}
		}
	}
	epoch = mm.ctl.epoch
	for i := range mm.ctl.kids {
		kids = append(kids, mm.ctl.kids[i].link)
	}
	mm.mu.Unlock()
	for p, l := range links {
		l.c.send(Message{CtlPlan: &plans[p]})
	}
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
	mm.detStops = append(mm.detStops, stop)
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
	failed := make(map[int]bool)
	// streak counts consecutive periods a node went without a fresh
	// ledger vouching for it. known remembers every node ever seen: a
	// node that disconnects (leaving the registry and the tree) keeps
	// being checked and is declared failed — the paper's "slave missed
	// a heartbeat" condition.
	streak := make(map[int]int)
	known := make(map[int]bool)
	var seq int64
	lastEpoch := 0
	var warmUntil int64 // post-epoch-change grace: ledgers need a round to warm
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
		}
		kids, epoch := mm.syncCtl()
		seq++
		s := seq
		if epoch != lastEpoch {
			lastEpoch = epoch
			warmUntil = s + 1
		}

		// Evaluate the previous round: which nodes did the ledgers vouch
		// for heartbeat s-1?
		vouched := make(map[int]bool)
		member := make(map[int]bool)
		mm.mu.Lock()
		// Drain rejoin notices first: a readmitted node's conviction latch
		// and absence streak reset before this round judges anyone, so it
		// is evaluated as a fresh member from its first post-rejoin tick.
		for node := range mm.rejoined {
			delete(mm.rejoined, node)
			delete(failed, node)
			delete(streak, node)
		}
		if epoch == mm.ctl.epoch {
			for i := range mm.ctl.kids {
				kid := &mm.ctl.kids[i]
				fresh := kid.ledger.seq > 0 && kid.ledger.seq >= s-1
				for j, node := range kid.subtree {
					member[node] = true
					if fresh && (j >= 64 || kid.ledger.absent&(uint64(1)<<uint(j)) == 0) {
						vouched[node] = true
					}
				}
			}
		}
		// Probation: every vouched round pays one period off a rejoined
		// node's sentence; at zero it re-enters the placement rotation.
		for node := range vouched {
			if p, ok := mm.probation[node]; ok {
				if p <= 1 {
					delete(mm.probation, node)
					mm.syncPlaceLocked(node) // sentence served: back in rotation
				} else {
					mm.probation[node] = p - 1
				}
			}
		}
		reg := make(map[int]*nmLink, len(mm.nms))
		for node, l := range mm.nms {
			reg[node] = l
		}
		mm.mu.Unlock()

		for node := range member {
			known[node] = true
		}
		var suspects []int
		for node := range known {
			if failed[node] {
				continue
			}
			switch {
			case !member[node]:
				// Left the tree without being convicted: its registration
				// died or it was never replanted. No ledger will ever
				// vouch for it again, so absence accounting needs no
				// warm-up.
				streak[node]++
			case s <= warmUntil:
				continue
			case vouched[node]:
				streak[node] = 0
				continue
			default:
				streak[node]++
			}
			if streak[node] >= 2 {
				suspects = append(suspects, node)
			}
		}

		// Multicast this round's ping to the direct children only — the
		// O(fanout) egress the bench asserts — and arm the RTT waiter.
		mm.mu.Lock()
		if epoch == mm.ctl.epoch {
			mm.ctl.hbSent[s] = time.Now()
			for k := range mm.ctl.hbSent {
				if k < s-8 {
					delete(mm.ctl.hbSent, k)
				}
			}
		}
		mm.mu.Unlock()
		for _, l := range kids {
			l.c.send(Message{Ping: &Ping{Seq: s, Epoch: epoch}})
		}

		if len(suspects) == 0 {
			continue
		}
		// Isolation-probe pass: a suspect whose control link is gone is
		// dead outright; anyone else gets a directed unicast probe and
		// the grace window to answer it. The tree only nominates
		// suspects — conviction always rests on a failed direct probe.
		var probeLinks []*nmLink
		dead := make(map[int]bool)
		for _, node := range suspects {
			if l := reg[node]; l != nil {
				probeLinks = append(probeLinks, l)
			} else {
				dead[node] = true
			}
		}
		for node := range mm.probeNodes(probeLinks, grace) {
			dead[node] = true
		}
		for node := range dead {
			failed[node] = true
			delete(streak, node)
			mm.mu.Lock()
			mm.ctlExclude[node] = true
			delete(mm.probation, node) // a convicted probationer is just convicted
			mm.syncPlaceLocked(node)
			mm.mu.Unlock()
			mm.jlog(journal.NodeDead, 0, node, []byte("missed heartbeats"))
			if onFail != nil {
				go onFail(node)
			}
		}
	}
}

// onPong routes a pong to whichever detector asked: directed isolation
// probes (Epoch 0, disjoint high sequence range) credit their probe
// round; a tree ledger updates its direct child's record and completes
// the heartbeat RTT waiter once every direct child reported the round.
func (mm *MM) onPong(p *Pong) {
	mm.mu.Lock()
	if pr := mm.probes[p.Seq]; pr != nil {
		mm.mu.Unlock()
		pr.settle(p.Node)
		return
	}
	kid := mm.ctl.kid(p.Node)
	if p.Epoch == 0 || p.Epoch != mm.ctl.epoch || kid == nil {
		mm.mu.Unlock()
		return // stale topology (or a probe reply that missed its round)
	}
	if p.Seq > kid.ledger.seq {
		kid.ledger = mmLedger{seq: p.Seq, absent: p.Absent}
	}
	if t0, ok := mm.ctl.hbSent[p.Seq]; ok {
		complete := true
		for i := range mm.ctl.kids {
			if mm.ctl.kids[i].ledger.seq < p.Seq {
				complete = false
				break
			}
		}
		if complete {
			d := time.Since(t0).Nanoseconds()
			mm.ctl.hbN++
			mm.ctl.hbSum += d
			if d > mm.ctl.hbMax {
				mm.ctl.hbMax = d
			}
			delete(mm.ctl.hbSent, p.Seq)
		}
	}
	mm.mu.Unlock()
}

// HeartbeatRTT reports the observed ping→full-ledger round trip (mean,
// max, sample count): the time from a heartbeat multicast until every
// direct child's aggregated subtree ledger for that round arrived.
func (mm *MM) HeartbeatRTT() (mean, max time.Duration, n int64) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if mm.ctl.hbN > 0 {
		mean = time.Duration(mm.ctl.hbSum / mm.ctl.hbN)
	}
	return mean, time.Duration(mm.ctl.hbMax), mm.ctl.hbN
}

// StrobeLatency reports the observed strobe propagation latency (mean,
// max, sample count): the time from a strobe multicast until every
// direct child's cumulative subtree ack covered it.
func (mm *MM) StrobeLatency() (mean, max time.Duration, n int64) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if mm.ctl.strobeN > 0 {
		mean = time.Duration(mm.ctl.strobeSum / mm.ctl.strobeN)
	}
	return mean, time.Duration(mm.ctl.strobeMax), mm.ctl.strobeN
}

// ControlEgress sums the frames and bytes the MM has written across
// every registered NM link — the control-egress metric the bench
// samples over idle heartbeat periods to assert O(fanout) scaling.
func (mm *MM) ControlEgress() (frames, bytes int64) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	for _, l := range mm.nms {
		frames += l.c.sentFrames.Load()
		bytes += l.c.sentBytes()
	}
	return frames, bytes
}
