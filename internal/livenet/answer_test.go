package livenet

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"
	"time"
)

// The exhaustive check of one stripe's answer step (stripeRelay.owes):
// one stripe of 4 chunks, with a parent and two children, A and B. Every
// interleaving of the events below is explored, the step runs after each
// event, as the live handlers run answer after theirs, and what it returns
// is checked against the checker's own account of the stripe, derived
// from which events have fired:
//
//	(i)   no credit goes up before the epoch's HAVE, and at most one HAVE;
//	(ii)  the HAVE comes only when every live child has reported and no
//	      drain or seal is in flight; its bits are a subset of own ∧ each
//	      child's, and all clear under a down child;
//	(iii) credits strictly increase (past the HAVE's prefix too), each is
//	      ≤ min(own prefix, every child's credit), and none goes up after
//	      the node rejected the job;
//	(iv)  nothing goes up while no parent is bound;
//
// and, once everything but a death or a rejection has happened with the
// parent bound and no drain in flight, the HAVE and the full credit (4)
// have gone up.
//
// A state is the set of events fired plus what the step has counted as
// sent (haveSent, sentUp) and the checker's record of what went up: two
// interleavings that reach the same state continue alike, so each state
// is explored once and the interleavings through it are counted, not
// re-run.

// answerEvent is one event of the exhaustive check.
type answerEvent struct {
	name    string
	needs   []int // events that must have fired first
	exclude int   // an event that must not have fired (-1: none)
	apply   func(w *answerWorld)
}

const answerChunks = 4

var (
	// childHaves are the HAVE ledgers A and B report: A holds chunks 0, 1
	// and 3 (credit 2), B holds 0 and 2 (credit 1).
	childHaves = [2]uint64{0b1011, 0b0101}
	// childCredits are the credit steps each child sends after its HAVE.
	childCredits = [2][2]int{{3, 4}, {2, 4}}
)

// answerEvents returns the check's events; the index of each is its bit
// in answerWorld.fired.
func answerEvents() []answerEvent {
	var evs []answerEvent
	add := func(e answerEvent) int {
		evs = append(evs, e)
		return len(evs) - 1
	}
	for i := 0; i < answerChunks; i++ {
		add(answerEvent{name: fmt.Sprintf("own chunk %d", i), exclude: -1, apply: func(w *answerWorld) {
			bitSet(w.j.written, i)
			w.j.wcount++
			w.j.advanceStripe(0)
		}})
	}
	var downs [2]int
	for c, name := range []string{"A", "B"} {
		prev := add(answerEvent{name: "HAVE from " + name, exclude: -1, apply: func(w *answerWorld) {
			rc := w.j.stripes[0].children[c]
			rc.have = append(rc.have[:0], childHaves[c])
			rc.acked = stripePrefix(rc.have, answerChunks, 0, 1, rc.acked)
		}})
		for _, n := range childCredits[c] {
			prev = add(answerEvent{name: fmt.Sprintf("%s credits %d", name, n), needs: []int{prev}, exclude: -1,
				apply: func(w *answerWorld) {
					sr := w.j.stripes[0]
					sr.credit(sr.children[c].c, n)
				}})
		}
		downs[c] = add(answerEvent{name: name + " down", apply: func(w *answerWorld) {
			w.j.stripes[0].children[c].down = true
		}})
	}
	// One child at most goes down.
	evs[downs[0]].exclude, evs[downs[1]].exclude = downs[1], downs[0]
	on := add(answerEvent{name: "drain on", exclude: -1, apply: func(w *answerWorld) { w.j.draining = true }})
	add(answerEvent{name: "drain off", needs: []int{on}, exclude: -1, apply: func(w *answerWorld) { w.j.draining = false }})
	add(answerEvent{name: "failed", exclude: -1, apply: func(w *answerWorld) { w.j.failed = true }})
	drop := add(answerEvent{name: "parent link drops", exclude: -1, apply: func(w *answerWorld) { w.j.stripes[0].parent = nil }})
	add(answerEvent{name: "parent rebinds", needs: []int{drop}, exclude: -1, apply: func(w *answerWorld) {
		w.j.stripes[0].parent = w.link
	}})
	return evs
}

// answerWorld is one state of the check: the stripe's record as the NM
// keeps it, the events fired, and what the checker saw go up.
type answerWorld struct {
	j     *nmJob
	link  *conn // the parent's link
	fired uint32
	haves int // HAVEs sent
	up    int // the credit last sent, the HAVE's prefix included
}

func newAnswerWorld() *answerWorld {
	w := &answerWorld{link: discardConn()}
	w.j = &nmJob{man: &Manifest{Hashes: make([]uint64, answerChunks)}, written: make([]uint64, 1), k: 1,
		srecv: make([]int, 1), stripes: []*stripeRelay{{treeRole: treeRole{parent: w.link, children: []*relayChild{
			{node: 1, c: discardConn()}, {node: 2, c: discardConn()}}}}}}
	return w
}

func (w *answerWorld) clone() *answerWorld {
	c, j, sr := *w, *w.j, *w.j.stripes[0]
	j.written, j.srecv = slices.Clone(j.written), slices.Clone(j.srecv)
	sr.children = nil
	for _, rc := range w.j.stripes[0].children {
		k := *rc
		k.have = slices.Clone(rc.have)
		sr.children = append(sr.children, &k)
	}
	j.stripes = []*stripeRelay{&sr}
	c.j = &j
	return &c
}

// key identifies the state for the explored set.
func (w *answerWorld) key() [5]int {
	sr := w.j.stripes[0]
	sent := 0
	if sr.haveSent {
		sent = 1
	}
	return [5]int{int(w.fired), sent, sr.sentUp, w.haves, w.up}
}

// check runs the answer step and checks what it returns against the
// events fired; it records what went up.
func (w *answerWorld) check(evs []answerEvent) error {
	has := func(name string) bool {
		for i, e := range evs {
			if e.name == name {
				return w.fired&(1<<i) != 0
			}
		}
		panic("no event " + name)
	}
	var own uint64
	ownPrefix := 0
	for i := 0; i < answerChunks; i++ {
		if has(fmt.Sprintf("own chunk %d", i)) {
			own |= 1 << i
		}
	}
	for ownPrefix < answerChunks && own&(1<<ownPrefix) != 0 {
		ownPrefix++
	}
	var reported, down [2]bool
	var credit [2]int
	for c, name := range []string{"A", "B"} {
		if reported[c] = has("HAVE from " + name); reported[c] {
			credit[c] = bits.TrailingZeros64(^childHaves[c])
		}
		for _, n := range childCredits[c] {
			if has(fmt.Sprintf("%s credits %d", name, n)) {
				credit[c] = max(credit[c], n)
			}
		}
		down[c] = has(name + " down")
	}
	drain := has("drain on") && !has("drain off")
	bound := !has("parent link drops") || has("parent rebinds")
	failed := has("failed")

	have, up := w.j.stripes[0].owes(w.j, 0)
	if !bound && (have != nil || up != 0) {
		return fmt.Errorf("(iv) sent HAVE %v, credit %d with no parent bound", have, up)
	}
	if have != nil {
		if w.haves++; w.haves > 1 {
			return fmt.Errorf("(i) a second HAVE %b", have)
		}
		if drain {
			return fmt.Errorf("(ii) HAVE %b with a drain in flight", have)
		}
		mask := own
		for c := range reported {
			if !reported[c] && !down[c] {
				return fmt.Errorf("(ii) HAVE %b before child %d reported", have, c)
			}
			if down[c] || !reported[c] {
				mask = 0
			} else {
				mask &= childHaves[c]
			}
		}
		if len(have) != 1 || have[0]&^mask != 0 {
			return fmt.Errorf("(ii) HAVE %b claims chunks outside own ∧ children = %b (down %v)", have, mask, down)
		}
		w.up = bits.TrailingZeros64(^have[0])
	}
	if up != 0 {
		switch {
		case w.haves == 0:
			return fmt.Errorf("(i) credit %d before the HAVE", up)
		case failed:
			return fmt.Errorf("(iii) credit %d after the node rejected the job", up)
		case up <= w.up:
			return fmt.Errorf("(iii) credit %d does not pass %d, already up", up, w.up)
		case up > ownPrefix || up > credit[0] || up > credit[1]:
			return fmt.Errorf("(iii) credit %d passes min(own %d, A %d, B %d)", up, ownPrefix, credit[0], credit[1])
		}
		w.up = up
	}
	done := !drain && bound && !failed && !down[0] && !down[1] && own == 1<<answerChunks-1
	for _, name := range []string{"A credits 4", "B credits 4"} {
		done = done && has(name)
	}
	if done && (w.haves != 1 || w.up != answerChunks) {
		return fmt.Errorf("everything arrived, yet %d HAVEs and credit %d went up, want 1 and %d", w.haves, w.up, answerChunks)
	}
	return nil
}

// TestAnswerStepExhaustive explores every interleaving of the events
// answerEvents lists (see the top of this file for what is checked),
// breadth first: each event fires once, so a state's depth is the number
// fired, and a failure prints a shortest event sequence that leads to it.
func TestAnswerStepExhaustive(t *testing.T) {
	type state struct {
		w    *answerWorld
		ways int64 // interleavings that reach it
		path []string
	}
	evs := answerEvents()
	start := time.Now()
	first := newAnswerWorld()
	if err := first.check(evs); err != nil {
		t.Fatalf("before any event: %v", err)
	}
	layer, states, total := []*state{{w: first, ways: 1}}, 1, int64(0)
	for len(layer) > 0 {
		var next []*state
		seen := map[[5]int]*state{}
		for _, st := range layer {
			moved := false
			for i, e := range evs {
				if st.w.fired&(1<<i) != 0 || e.exclude >= 0 && st.w.fired&(1<<e.exclude) != 0 {
					continue
				}
				ready := true
				for _, need := range e.needs {
					ready = ready && st.w.fired&(1<<need) != 0
				}
				if !ready {
					continue
				}
				moved = true
				w := st.w.clone()
				w.fired |= 1 << i
				e.apply(w)
				path := append(slices.Clone(st.path), e.name)
				if err := w.check(evs); err != nil {
					t.Fatalf("%v\nafter: %s", err, strings.Join(path, ", "))
				}
				if to := seen[w.key()]; to != nil {
					to.ways += st.ways
					continue
				}
				seen[w.key()] = &state{w: w, ways: st.ways, path: path}
				next = append(next, seen[w.key()])
			}
			if !moved {
				total += st.ways // every event has fired: whole interleavings
			}
		}
		states += len(next)
		layer = next
	}
	t.Logf("%d interleavings of %d events through %d states in %v", total, len(evs), states, time.Since(start))
	if total < 100_000 {
		t.Fatalf("only %d interleavings explored", total)
	}
}
