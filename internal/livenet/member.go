package livenet

import (
	"sort"

	"repro/internal/livenet/journal"
	"repro/internal/place"
)

// The MM's membership table: one row per node, from the node's first
// registration on, guarded by MM.mu. Placement eligibility changes only
// through the four mutators below — register, disconnect, convict,
// servePeriod — which are also the only code that tells the placement
// engine whether the node may be placed on.

// nmLink is one registration of a Node Manager, immutable: a node that
// registers again gets a new one on its row, so a job still holding the
// old one sees its writes fail rather than reach the next incarnation.
type nmLink struct {
	node int
	cpus int
	addr string // NM peer address, where tree parents dial relay links
	c    *conn
}

// member is everything the MM believes about one node.
type member struct {
	node int
	link *nmLink // the current registration; nil while unregistered
	// convicted: the failure detector declared the node dead. Until it
	// rejoins it stays out of the control tree and out of placement, even
	// while its registration lingers (a partitioned node's conn can).
	convicted bool
	// probation is the number of heartbeat-clean periods a rejoined node
	// still owes before placement trusts it again.
	probation int
	// streak counts the consecutive heartbeat periods no fresh ledger
	// vouched for the node; seen is the last round whose control tree held
	// it. The detector judges a node from the first such round on — a node
	// that then disconnects keeps being checked and is declared failed,
	// the paper's "slave missed a heartbeat" condition.
	streak int
	seen   int64
}

// rejoinProbation is how many heartbeat-clean periods a rejoining NM
// must survive before it is eligible for placement again. It only gates
// placement while a heartbeat detector is running: with no detector
// there is nobody to vouch, so rejoin restores eligibility immediately.
const rejoinProbation = 2

// eligible reports whether the node is in the placement rotation:
// registered, not convicted, and past any rejoin probation.
func (m member) eligible() bool { return m.link != nil && !m.convicted && m.probation == 0 }

// syncPlace hands the row's eligibility to the placement engine and wakes
// whoever waits on membership: the admission queue and the journal's
// recovery loop. Only the four mutators call it.
func (mm *MM) syncPlace(m *member) {
	mm.place.SetEligible(m.node, m.eligible())
	mm.admit.cond.Broadcast()
}

// register puts a new registration on the node's row, creating the row
// at the node's first. A rejoin also clears the node's conviction and
// absence streak and, when a heartbeat detector is running to vouch for
// it, puts it on probation; a plain registration leaves a conviction
// standing. Journals the join (or rejoin) and returns the probation the
// row now owes.
func (mm *MM) register(link *nmLink, reg *Register) int {
	m := mm.members[link.node]
	if m == nil {
		m = &member{node: link.node}
		mm.members[link.node] = m
	}
	ev := journal.Event{Type: journal.NodeJoin, Node: link.node}
	if reg.Rejoin {
		ev.Type = journal.NodeRejoin
		m.convicted, m.streak, m.probation = false, 0, 0
		if mm.hbActive > 0 {
			m.probation = rejoinProbation
		}
	}
	m.link = link
	cap := reg.Cap
	if cap.IsZero() {
		// Undeclared: clusters that never mention capacities place as before.
		cap = place.Unbounded
	}
	mm.place.SetNode(link.node, cap)
	mm.syncPlace(m)
	mm.record(nil, ev)
	return m.probation
}

// disconnect takes a dead registration off its node's row — unless a
// newer registration already replaced it.
func (mm *MM) disconnect(link *nmLink) {
	if m := mm.members[link.node]; m.link == link {
		m.link = nil
		mm.syncPlace(m)
	}
}

// convict records the failure detector's verdict, in the row and in the
// journal. A convicted probationer is just convicted.
func (mm *MM) convict(m *member) {
	m.convicted, m.probation, m.streak = true, 0, 0
	mm.syncPlace(m)
	mm.record(nil, journal.Event{Type: journal.NodeDead, Node: m.node, Data: []byte("missed heartbeats")})
}

// servePeriod pays one vouched heartbeat period off a rejoined node's
// probation; at zero it re-enters the placement rotation.
func (mm *MM) servePeriod(m *member) {
	if m.probation > 0 {
		m.probation--
		if m.probation == 0 {
			mm.syncPlace(m)
		}
	}
}

// row returns a copy of the node's row — the zero row for a node that
// never registered. Caller holds mm.mu.
func (mm *MM) row(node int) member {
	if m := mm.members[node]; m != nil {
		return *m
	}
	return member{}
}

// registered returns the IDs of the nodes with a registration, in
// ascending order. Caller holds mm.mu.
func (mm *MM) registered() []int {
	ids := make([]int, 0, len(mm.members))
	for id, m := range mm.members {
		if m.link != nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// NMs returns the registered node IDs in ascending order.
func (mm *MM) NMs() []int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.registered()
}

// NodeInfo is one row of the MM's per-node placement snapshot.
type NodeInfo struct {
	Node      int
	CPUs      int       // from the NM's registration (0 if currently unregistered)
	Cap       place.Vec // declared capacity (Unbounded when undeclared)
	Used      place.Vec // usage committed by running jobs' demands
	Load      int       // gang members currently charged to the node
	Eligible  bool      // in the placement rotation right now
	Probation int       // heartbeat-clean periods a rejoined node still owes before placement trusts it
}

// NodeTable snapshots every node the placement engine tracks, in
// ascending node-ID order — the livecluster demo's capacity/load view.
func (mm *MM) NodeTable() []NodeInfo {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	var out []NodeInfo
	mm.place.Each(func(id int, cap, used place.Vec, load int, eligible bool) {
		row := mm.row(id)
		info := NodeInfo{Node: id, Cap: cap, Used: used, Load: load, Eligible: eligible, Probation: row.probation}
		if l := row.link; l != nil {
			info.CPUs = l.cpus
		}
		out = append(out, info)
	})
	return out
}
