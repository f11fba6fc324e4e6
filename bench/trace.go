package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/livenet"
)

// span is one traced interval. Spans of one launch share Job; Parent
// names the span that caused it ("" for the root). Times are microseconds
// since the tracer started. Counts are the work done inside the span,
// recorded at the same boundary.
type span struct {
	Job     int                `json:"job"`
	Name    string             `json:"name"`
	Parent  string             `json:"parent,omitempty"`
	StartUS float64            `json:"start_us"`
	EndUS   float64            `json:"end_us"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// phaseOrder is the MM job pipeline as JobTable reports it.
var phaseOrder = []string{"admitted", "planned", "manifest", "streaming", "launched"}

// jobRef names one MM-level job: which MM of the cluster ran it, under
// which job ID, on how many nodes.
type jobRef struct {
	mm, job, nodes int
}

type phaseKey struct {
	mm  *livenet.MM
	job int
}

// phaseSeen is when the poller first saw a job in each phase, and when it
// last saw the job at all.
type phaseSeen struct {
	first [5]time.Time
	last  time.Time
}

// tracer keeps spans in memory and writes them out when the run ends. It
// records from the benchmark's side only: around the submit call, from
// the returned Report, and from a 1 ms poll of MM.JobTable.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	seen  map[phaseKey]*phaseSeen
	mms   []*livenet.MM // the job tables the poller samples
	ids   int           // launch identifiers issued so far

	stop chan struct{}
	done chan struct{}
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), seen: make(map[phaseKey]*phaseSeen)}
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// newID issues the identifier the spans of one launch share. MM job IDs
// will not do: faulty16's throwaway clusters all number their job 1.
func (t *tracer) newID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	return t.ids
}

// watch replaces the set of MMs whose job tables the poller samples.
func (t *tracer) watch(mms ...*livenet.MM) {
	t.mu.Lock()
	t.mms = mms
	t.mu.Unlock()
}

// startPoller samples every watched MM's job table once a millisecond.
func (t *tracer) startPoller() {
	t.stop, t.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
			}
			t.mu.Lock()
			mms := t.mms
			t.mu.Unlock()
			for _, mm := range mms {
				table := mm.JobTable()
				now := time.Now()
				t.mu.Lock()
				for _, info := range table {
					k := phaseKey{mm, info.ID}
					ps := t.seen[k]
					if ps == nil {
						ps = &phaseSeen{}
						t.seen[k] = ps
					}
					for p, name := range phaseOrder {
						if name == info.Phase && ps.first[p].IsZero() {
							ps.first[p] = now
						}
					}
					ps.last = now
				}
				t.mu.Unlock()
			}
		}
	}()
}

func (t *tracer) stopPoller() {
	if t.stop != nil {
		close(t.stop)
		<-t.done
		t.stop = nil
	}
}

// phaseSpans turns the poller's sightings of one job into phase spans
// under the launch span [start, end] and returns each phase's dwell in
// ms. A phase runs from its first sighting to the next sighted phase's;
// the last one ends at the job's last sighting plus one poll period,
// clamped to the launch's end. Phases shorter than the poll period are
// never sighted and get no span, so their time is not covered.
func (t *tracer) phaseSpans(root int, mm *livenet.MM, job int, start, end time.Time) map[string]float64 {
	t.mu.Lock()
	ps := t.seen[phaseKey{mm, job}]
	delete(t.seen, phaseKey{mm, job})
	t.mu.Unlock()
	if ps == nil {
		return nil
	}
	dwell := make(map[string]float64)
	for p, name := range phaseOrder {
		if ps.first[p].IsZero() {
			continue
		}
		stop := ps.last.Add(time.Millisecond)
		for q := p + 1; q < len(phaseOrder); q++ {
			if !ps.first[q].IsZero() {
				stop = ps.first[q]
				break
			}
		}
		if stop.After(end) {
			stop = end
		}
		from := ps.first[p]
		if from.Before(start) {
			from = start
		}
		if !stop.After(from) {
			continue
		}
		t.add(span{Job: root, Name: name, Parent: "launch", StartUS: t.us(from), EndUS: t.us(stop)})
		dwell[name] += float64(stop.Sub(from)) / float64(time.Millisecond)
	}
	return dwell
}

// selfTimes returns, per span name, the total self time in ms: each
// span's duration minus the part of it that its child spans cover. Phase
// spans and the Report-derived spans (queued, send, execute) describe the
// same interval twice, so they are separate families: a launch's self
// time is taken against the phase family, and the Report family is
// listed beside it without being subtracted again.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	type iv struct{ a, b float64 }
	children := make(map[int][]iv)
	isPhase := make(map[string]bool)
	for _, p := range phaseOrder {
		isPhase[p] = true
	}
	for _, s := range t.spans {
		if s.Parent == "launch" && isPhase[s.Name] {
			children[s.Job] = append(children[s.Job], iv{s.StartUS, s.EndUS})
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		d := s.EndUS - s.StartUS
		if s.Name == "launch" {
			ivs := children[s.Job]
			sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
			at := s.StartUS
			for _, c := range ivs {
				if c.a > at {
					at = c.a
				}
				if c.b > at {
					d -= c.b - at
					at = c.b
				}
			}
		}
		self[s.Name] += d / 1000
	}
	return self
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
