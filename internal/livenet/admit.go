package livenet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/livenet/journal"
	"repro/internal/place"
)

// Multi-tenant admission: the MM keeps an explicit job table and moves
// every submitted job through one state machine
//
//	ADMITTED -> PLANNED -> MANIFEST -> STREAMING -> LAUNCHED -> DONE/FAILED
//
// (a replan goes back from STREAMING to MANIFEST), with up to
// MaxConcurrent jobs in the transfer phases at once. Every transition is
// one MM.record, which moves the job's row and journals the phase's
// event; a restarted MM replays the journal through the same apply into
// rows. Jobs share the cached relay links and the control tree; which
// admitted job streams next when the slots are saturated is a pluggable
// policy (FIFO, weighted-fair over users, smallest-image-first).

// jobPhase is a job's position in the launch state machine. The zero
// value is a row no event has reached yet.
type jobPhase int

const (
	phaseAdmitted  jobPhase = iota + 1 // in the admission queue
	phasePlanned                       // placed: owns nodes and trees
	phaseManifest                      // manifest multicast (laying the trees) / HAVE fold in flight
	phaseStreaming                     // chunks moving down the tree
	phaseLaunched                      // processes forked, awaiting termination
	phaseDone
	phaseFailed
)

// phases is the state machine's one table: each phase's name, as
// JobTable reports it, and the journal event that records entering it.
var phases = [...]struct {
	name string
	ev   journal.EventType
}{
	phaseAdmitted:  {"admitted", journal.JobAdmitted},
	phasePlanned:   {"planned", journal.JobPlanned},
	phaseManifest:  {"manifest", journal.JobManifest},
	phaseStreaming: {"streaming", journal.JobStreaming},
	phaseLaunched:  {"launched", journal.JobLaunched},
	phaseDone:      {"done", journal.JobDone},
	phaseFailed:    {"failed", journal.JobFailed},
}

// phaseOf is the phase a journal event moves its job to; ok is false
// for membership events, which move no job. The retired JobEpoch (a
// replan, in logs written before the manifest record covered it) reads
// as planned: in flight like any placed job.
func phaseOf(t journal.EventType) (p jobPhase, ok bool) {
	for p := phaseAdmitted; p <= phaseFailed; p++ {
		if phases[p].ev == t {
			return p, true
		}
	}
	return phasePlanned, t == journal.JobEpoch
}

// apply is the state machine's transition: it moves the row to the phase
// ev records (an admission keeps its spec payload) and reports whether
// the phase changed. record runs it live and replayJobs on a journal, so
// both fold the same events into the same rows. Caller holds j.mu or
// owns j.
func (j *liveJob) apply(ev journal.Event) bool {
	p, ok := phaseOf(ev.Type)
	if !ok || p == j.phase {
		return false
	}
	if p == phaseAdmitted {
		j.admission = ev.Data
	}
	j.phase = p
	return true
}

// admissionPolicy decides which queued job gets the next free streaming
// slot. pick is a pure function of the queue (called under mm.mu);
// granted is the accounting hook invoked when its choice is admitted.
type admissionPolicy interface {
	name() string
	pick(q []*liveJob) *liveJob
	granted(j *liveJob)
}

// newAdmissionPolicy maps a policy name to its implementation.
func newAdmissionPolicy(name string) (admissionPolicy, error) {
	switch name {
	case "", "fifo":
		return fifoPolicy{}, nil
	case "wfair":
		return &wfairPolicy{vt: make(map[string]float64)}, nil
	case "sif":
		return sifPolicy{}, nil
	}
	return nil, fmt.Errorf("livenet: unknown admission policy %q (want fifo, wfair, or sif)", name)
}

// fifoPolicy streams jobs in submission order.
type fifoPolicy struct{}

func (fifoPolicy) name() string { return "fifo" }
func (fifoPolicy) pick(q []*liveJob) *liveJob {
	if len(q) == 0 {
		return nil
	}
	return q[0]
}
func (fifoPolicy) granted(*liveJob) {}

// sifPolicy streams the smallest image first (shortest-job-first for
// the transfer phase); ties break toward the earlier submission.
type sifPolicy struct{}

func (sifPolicy) name() string { return "sif" }
func (sifPolicy) pick(q []*liveJob) *liveJob {
	var best *liveJob
	for _, j := range q {
		if best == nil || j.spec.BinaryBytes < best.spec.BinaryBytes ||
			(j.spec.BinaryBytes == best.spec.BinaryBytes && j.id < best.id) {
			best = j
		}
	}
	return best
}
func (sifPolicy) granted(*liveJob) {}

// wfairPolicy is weighted-fair queueing over users: each user
// accumulates virtual time proportional to the bytes it streams divided
// by its weight, and the queued job of the least-charged user goes
// next. A user that bursts many fat jobs falls behind users with queued
// work, without ever starving (its virtual time stands still while it
// waits).
type wfairPolicy struct {
	vt map[string]float64
}

func (*wfairPolicy) name() string { return "wfair" }

func (p *wfairPolicy) pick(q []*liveJob) *liveJob {
	var best *liveJob
	var bestVT float64
	for _, j := range q {
		vt := p.vt[j.spec.User]
		if best == nil || vt < bestVT || (vt == bestVT && j.id < best.id) {
			best, bestVT = j, vt
		}
	}
	return best
}

func (p *wfairPolicy) granted(j *liveJob) {
	w, bytes := max(j.spec.Weight, 1), max(j.spec.BinaryBytes, 1)
	p.vt[j.spec.User] += float64(bytes) / float64(w)
}

// admitQueue is the admission mechanism, shared by the MM (which grants
// streaming slots) and the federation root (which grants whole-job
// slots): jobs park in submission order until the policy picks them and
// one of slots is free. It has no lock of its own — every method runs
// under its owner's mutex, which cond is built on and closed is guarded
// by.
type admitQueue struct {
	cond      *sync.Cond
	closed    *bool // the owner's shutdown flag
	errClosed error // what a waiter released by shutdown is told
	policy    admissionPolicy
	slots     int
	inUse     int
	q         []*liveJob
}

// await parks j until the policy picks it and a slot is free, then takes
// the slot. grant, when non-nil, is the owner's last word on a job that
// could go: false leaves it queued until the next wake (no row of the
// MM's gang matrix has room for it). A waiter the owner's shutdown releases gets errClosed;
// it never hangs.
func (a *admitQueue) await(j *liveJob, grant func() bool) error {
	a.q = append(a.q, j)
	for {
		if *a.closed {
			a.drop(j)
			return fmt.Errorf("%w while job %d awaited admission", a.errClosed, j.id)
		}
		if a.inUse < a.slots && a.policy.pick(a.q) == j && (grant == nil || grant()) {
			a.drop(j)
			a.inUse++
			a.policy.granted(j)
			// Re-wake the remaining waiters: removing this job from the
			// queue may make the new head eligible right now, and no
			// release event is due to wake it.
			a.cond.Broadcast()
			return nil
		}
		a.cond.Wait()
	}
}

func (a *admitQueue) drop(j *liveJob) {
	for i, q := range a.q {
		if q == j {
			a.q = append(a.q[:i], a.q[i+1:]...)
			return
		}
	}
}

// release returns a slot and wakes the queue.
func (a *admitQueue) release() {
	a.inUse--
	a.cond.Broadcast()
}

// awaitAdmission parks the job in the admission queue until the policy
// picks it, a streaming slot is free, enough nodes are eligible to place
// it (unless it names its nodes), and placeInRow seats it in a row of
// the gang matrix — a job that fits in no row queues, and a finishing
// job's broadcast retries it; a shrunken cluster queues it too, and
// syncPlace's broadcast retries it. On success the job owns one
// streaming slot, j.row and the nodes returned; a placement error frees
// the slot and fails the job. Caller holds mm.mu.
func (mm *MM) awaitAdmission(j *liveJob) ([]*nmLink, error) {
	var nodes []*nmLink
	var perr error
	if err := mm.admit.await(j, func() bool {
		if len(j.spec.Place) == 0 && mm.place.EligibleCount() < j.spec.Nodes {
			return false
		}
		var row int
		row, nodes, perr = mm.placeInRow(j, nil)
		// j.mu nests inside mm.mu: JobTable readers hold j.mu only.
		j.mu.Lock()
		j.row = row
		j.mu.Unlock()
		return row >= 0 || perr != nil
	}); err != nil {
		return nil, err
	}
	if perr != nil {
		mm.admit.release()
	}
	return nodes, perr
}

// releaseStream returns the job's streaming slot once its transfer is
// over (success or failure) — execution overlaps freely with other
// jobs' transfers — and wakes the admission queue.
func (mm *MM) releaseStream() {
	mm.mu.Lock()
	mm.admit.release()
	mm.mu.Unlock()
}

// placeJob picks the job's node set under mm.mu: the explicit Place
// list verbatim (in tree-position order), or a free placement from the
// indexed engine — under the default spread policy the spec.Nodes
// least-loaded eligible NMs with free capacity for spec.Demand, ties
// toward lower node IDs, so an idle cluster reproduces the classic
// sorted-prefix placement byte for byte; under the locality policy the
// smallest feasible aligned subtree of the heap topology. Eligible
// means registered, not convicted by the failure detector, past any
// rejoin probation, and not in the caller's avoid set (the nodes that
// already failed this job, on the retry path) — the engine's
// eligibility bit is the membership row's, kept by the row's mutators
// (member.go). Pinned placements name their nodes explicitly, so only
// hard disqualifiers (unregistered, convicted, avoided) refuse them —
// probation and capacity do not.
func (mm *MM) placeJob(spec *JobSpec, avoid map[int]bool) ([]*nmLink, error) {
	if len(spec.Place) > 0 {
		links := make([]*nmLink, 0, len(spec.Place))
		for _, id := range spec.Place {
			m := mm.row(id)
			if m.link == nil {
				return nil, fmt.Errorf("livenet: placed node %d not registered", id)
			}
			if m.convicted {
				return nil, fmt.Errorf("livenet: placed node %d is convicted (missed heartbeats)", id)
			}
			if avoid[id] {
				return nil, fmt.Errorf("livenet: placed node %d already failed this job", id)
			}
			links = append(links, m.link)
		}
		return links, nil
	}
	ids, err := mm.place.Pick(spec.Nodes, spec.Demand, mm.placePol, avoid)
	if err != nil {
		var ie *place.InsufficientError
		if errors.As(err, &ie) && ie.Feasible == ie.Eligible {
			// Pure head-count shortfall: keep the historical message.
			return nil, fmt.Errorf("livenet: %d NMs eligible, job wants %d", ie.Eligible, spec.Nodes)
		}
		return nil, fmt.Errorf("livenet: %w", err)
	}
	links := make([]*nmLink, 0, spec.Nodes)
	for _, id := range ids {
		links = append(links, mm.members[id].link) // eligible, so registered
	}
	return links, nil
}

// credit raises the kid's cumulative credit to n: a stripe's from an ack
// or from the prefix of a HAVE ledger (caller holds j.mu), the control
// tree's from a pong ledger with no absentee (caller holds mm.mu).
func (kid *mmKid) credit(n int) {
	kid.acked = max(kid.acked, n)
}

// JobInfo is one row of the MM's job table snapshot.
type JobInfo struct {
	ID         int
	Name       string
	User       string
	Phase      string
	Queued     time.Duration // admission-queue wait so far (or total, once granted)
	Row        int           // gang timeslot row (-1 while queued under gang scheduling)
	WindowUsed int           // chunks currently unacknowledged in the flow-control window
	WindowPeak int
}

// JobTable snapshots every job the MM currently tracks — queued and in
// flight — in ascending job-ID order.
func (mm *MM) JobTable() []JobInfo {
	mm.mu.Lock()
	jobs := make([]*liveJob, 0, len(mm.jobs)+len(mm.admit.q))
	for _, j := range mm.jobs {
		jobs = append(jobs, j)
	}
	jobs = append(jobs, mm.admit.q...)
	mm.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].id < jobs[b].id })
	out := make([]JobInfo, 0, len(jobs))
	for _, j := range jobs {
		j.mu.Lock()
		queued := j.queued
		if j.phase == phaseAdmitted {
			queued = time.Since(j.qStart)
		}
		info := JobInfo{
			ID:         j.id,
			Name:       j.spec.Name,
			User:       j.spec.User,
			Phase:      phases[j.phase].name,
			Queued:     queued,
			Row:        j.row,
			WindowUsed: j.windowUsedLocked(),
			WindowPeak: j.winPeak,
		}
		j.mu.Unlock()
		out = append(out, info)
	}
	return out
}

// windowUsedLocked is the job's current unacknowledged chunk count,
// summed over its stripes: per stripe, how far the stream head is past
// the slowest subtree's cumulative (stripe-local) ack. Caller holds
// j.mu.
func (j *liveJob) windowUsedLocked() int {
	used := 0
	for _, ss := range j.stripes {
		if ss.streamAt == 0 {
			continue
		}
		used += ss.streamAt - minAcked(ss.kids, ss.streamAt)
	}
	return used
}
