package livenet

import (
	"math/bits"
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

// pickRow assigns a new job an exclusive timeslot row, or -1 when every
// row is occupied. Two concurrent jobs must never share a row — a
// strobe opens every gate of the designated row, so a shared row would
// co-schedule two unrelated gangs — and a job that finds no free row
// stays in the admission queue until one is released. The free rows
// live in a bitset freelist (rowFree), so picking the lowest free row
// is a find-first-set over MPL/64 words. Without gang scheduling every
// job runs ungated in row 0. Caller holds mm.mu.
func (mm *MM) pickRow() int {
	if mm.cfg.GangQuantum <= 0 {
		return 0
	}
	if mm.rowFree == nil {
		mm.rowFree = make([]uint64, (mm.cfg.MPL+63)/64)
		for r := 0; r < mm.cfg.MPL; r++ {
			mm.rowFree[r/64] |= 1 << uint(r%64)
		}
	}
	for w, free := range mm.rowFree {
		if free != 0 {
			r := w*64 + bits.TrailingZeros64(free)
			mm.rowFree[w] &^= 1 << uint(r%64)
			return r
		}
	}
	return -1
}

// releaseRow returns an admitted job's row to the freelist. Caller
// holds mm.mu.
func (mm *MM) releaseRow(row int) {
	if mm.rowFree != nil {
		mm.rowFree[row/64] |= 1 << uint(row%64)
	}
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
		next := -1
		if mm.rowFree != nil {
			for i := 1; i <= mm.cfg.MPL; i++ {
				r := (cur + i) % mm.cfg.MPL
				if mm.rowFree[r/64]&(1<<uint(r%64)) == 0 { // a job holds r
					next = r
					break
				}
			}
		}
		mm.mu.Unlock()
		if next >= 0 {
			cur = next
			mm.round(next, nil)
		}
	}
}
