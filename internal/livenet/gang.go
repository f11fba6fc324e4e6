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
// time. Strobes multicast down the control tree as typed frames (ctl.go),
// never through the bulk fragment path, so a context switch cannot queue
// behind a binary transfer's buffered data.

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
// cycling over rows that have jobs. The strobe travels down the control
// tree exactly like a heartbeat ping — the MM writes one frame per
// direct child, NMs enact locally and relay — so strobe egress stays
// O(fanout) and the switch reaches n nodes in O(log_k n) relay hops.
// Aggregated strobe acks coming back up drive the latency metric.
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
		if next < 0 {
			continue
		}
		cur = next
		kids, epoch := mm.syncCtl()
		mm.mu.Lock()
		mm.strobes++
		var s int64
		if epoch == mm.ctl.epoch {
			mm.ctl.strobeSeq++
			s = mm.ctl.strobeSeq
			if len(kids) > 0 {
				mm.ctl.strobe.arm(s, 32)
			}
		}
		mm.mu.Unlock()
		for _, l := range kids {
			l.c.send(Message{Strobe: &Strobe{Seq: s, Row: next, Epoch: epoch}})
		}
	}
}

// onStrobeAck records a direct child's cumulative strobe credit and
// completes every latency waiter the new minimum now covers.
func (mm *MM) onStrobeAck(a *StrobeAck) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	kid := kidOf(mm.ctl.kids, a.Node)
	if a.Epoch != mm.ctl.epoch || kid == nil || int(a.Seq) <= kid.acked {
		return // stale topology, or nothing new
	}
	kid.acked = int(a.Seq)
	mm.ctl.strobe.settle(1, int64(minAcked(mm.ctl.kids, kid.acked)))
}
