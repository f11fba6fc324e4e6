package livenet

import (
	"maps"
	"sync"
	"time"
)

// This file adds live gang scheduling: when MMConfig.GangQuantum is set,
// the MM assigns each job a timeslot row and multicasts a strobe every
// quantum; each NM enacts the coordinated context switch by opening the
// gates of the designated row's processes and closing the others — the
// same MM/NM division of labor as the simulated scheduler, on wall-clock
// time. A strobe is a control round whose ping carries the row: it
// multicasts down the control tree as a typed frame (ctl.go), never
// through the bulk fragment path, so a context switch cannot queue behind
// a binary transfer's buffered data.

// gate is the suspend/resume control a PL wraps around its process: the
// process calls wait() between work chunks and blocks while the gate is
// closed. A cancelled gate releases every waiter with wait() == false,
// telling the process to exit instead of doing its next work chunk —
// how an aborted job's processes are torn down promptly even while
// descheduled.
type gate struct {
	mu        sync.Mutex
	cond      *sync.Cond
	open      bool
	cancelled bool
}

func newGate(open bool) *gate {
	g := &gate{open: open}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// wait blocks until the gate is open, reporting false when the gate was
// cancelled and the process must exit.
func (g *gate) wait() bool {
	g.mu.Lock()
	for !g.open && !g.cancelled {
		g.cond.Wait()
	}
	ok := !g.cancelled
	g.mu.Unlock()
	return ok
}

// cancel releases all waiters permanently; wait() reports false from
// now on.
func (g *gate) cancel() {
	g.mu.Lock()
	if !g.cancelled {
		g.cancelled = true
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// set opens or closes the gate, waking waiters on open.
func (g *gate) set(open bool) {
	g.mu.Lock()
	if g.open != open {
		g.open = open
		if open {
			g.cond.Broadcast()
		}
	}
	g.mu.Unlock()
}

// isOpen reports the gate state (for tests).
func (g *gate) isOpen() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.open
}

// placeInRow seats a job in the Ousterhout matrix — rows are timeslots,
// columns nodes — by the simulator's rule (sched.Matrix.TryPlace): the
// lowest row where placeJob finds enough nodes once the nodes that row's
// other in-flight jobs hold join the avoid set. So gangs on disjoint
// nodes share a timeslot, which a strobe opens for both, while no node
// holds two gangs of one row, nor more than MPL gangs. row is -1 when
// every row holds a node the job needs: it queues, or (re-placed) fails.
// A placement that fails on the avoid set alone is the job's own error.
// Without gang scheduling every job runs ungated in row 0, placed once.
// Caller holds mm.mu.
func (mm *MM) placeInRow(j *liveJob, avoid map[int]bool) (int, []*nmLink, error) {
	if mm.cfg.GangQuantum <= 0 {
		nodes, err := mm.placeJob(&j.spec, avoid)
		return 0, nodes, err
	}
	held := make(map[int]bool, len(avoid))
	for r := 0; r < mm.cfg.MPL; r++ {
		clear(held)
		maps.Copy(held, avoid)
		for _, o := range mm.jobs {
			if o != j && o.row == r {
				for _, n := range o.placed {
					held[n] = true
				}
			}
		}
		if nodes, err := mm.placeJob(&j.spec, held); err == nil {
			return r, nodes, nil
		}
	}
	_, err := mm.placeJob(&j.spec, avoid)
	return -1, nil, err
}

// strobeLoop multicasts the coordinated context switch every quantum,
// cycling over rows that have jobs. The switch is a control round whose
// ping carries the row (MM.round): the MM writes one frame per direct
// child, NMs enact locally and relay, so the switch costs O(fanout) MM
// egress and reaches n nodes in O(log_k n) relay hops. The ledgers that
// come back up drive the latency metric and vouch for the nodes.
func (mm *MM) strobeLoop(done chan struct{}) {
	tick := time.NewTicker(mm.cfg.GangQuantum)
	defer tick.Stop()
	cur := 0
	for {
		select {
		case <-done:
			return
		case <-tick.C:
		}
		mm.mu.Lock()
		next := -1 // the first row after cur that holds a job, cyclically
		for _, j := range mm.jobs {
			if next < 0 || (j.row-cur+mm.cfg.MPL-1)%mm.cfg.MPL < (next-cur+mm.cfg.MPL-1)%mm.cfg.MPL {
				next = j.row
			}
		}
		mm.mu.Unlock()
		if next >= 0 {
			cur = next
			mm.round(next, nil)
		}
	}
}
