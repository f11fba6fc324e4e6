package livenet

import (
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/livenet/chunkcache"
	"repro/internal/livenet/journal"
	"repro/internal/place"
	"repro/internal/rng"
)

// Phase-named errors. A live launch fails in one of two timed phases —
// binary distribution (transfer) or process execution (termination
// collection) — and callers that retry or alert need to tell them
// apart without string matching.
var (
	// ErrTransferTimeout marks transfer-phase deadline failures: a
	// manifest round left unanswered or a flow-control window that stalled
	// and could not be recovered.
	ErrTransferTimeout = errors.New("livenet: transfer phase timed out")
	// ErrTermTimeout marks termination-phase deadline failures: the
	// binary was delivered and processes launched, but not every node
	// reported termination within the program's duration plus the
	// configured termination grace.
	ErrTermTimeout = errors.New("livenet: termination phase timed out")
	// ErrMMClosed marks submissions rejected — or queued waiters
	// released — because the MM shut down. Jobs parked in the admission
	// queue fail promptly with this error on Close; they never hang.
	ErrMMClosed = errors.New("livenet: MM closed")
	// ErrReplansExhausted marks a transfer that burned through its
	// maxReplans recovery rounds without draining — the job-level retry
	// path treats it as a fresh-placement candidate.
	ErrReplansExhausted = errors.New("livenet: replans exhausted")
	// ErrJobRetriesExhausted is the named terminal error after
	// MMConfig.JobRetries full re-placements also failed.
	ErrJobRetriesExhausted = errors.New("livenet: job retries exhausted")
)

// rejectError is a content failure: some node's check of a chunk
// against its manifest hash rejected a fragment. It is NOT recoverable
// by replanning the tree — the payload itself is wrong — so recovery
// excludes it.
type rejectError struct {
	node  int
	index int
}

func (e rejectError) Error() string {
	return fmt.Sprintf("node %d rejected fragment %d (corrupt)", e.node, e.index)
}

// downError is liveness evidence about one node (see liveJob.nodeDown):
// its MM link closed, an MM write to it failed, or a parent reported it
// unreachable. Recovery takes the named node as dead without probing it.
type downError struct {
	node  int
	cause string
}

func (e downError) Error() string {
	return fmt.Sprintf("node %d down (%s)", e.node, e.cause)
}

// MMConfig tunes the live Machine Manager.
type MMConfig struct {
	// FragBytes is the binary-distribution fragment size (default 256 KB).
	FragBytes int
	// AckTimeout bounds how long a transfer waits for window credit
	// before starting failure diagnosis (default 10 s).
	AckTimeout time.Duration
	// TermTimeout is the termination-phase grace: after launch, every
	// node must report termination within the program's expected
	// duration plus this budget (default 60 s). Distinct from
	// AckTimeout, which times only the transfer phase.
	TermTimeout time.Duration
	// ProbeGrace is how long an isolation probe waits for a node's
	// pong before declaring it dead, when transfer recovery must find a
	// failure that no closed link or PeerDown named (default
	// AckTimeout/4, clamped to [50ms, 1s]).
	ProbeGrace time.Duration
	// Fanout is the out-degree of the software-multicast forwarding
	// tree used for binary distribution (default 2). Fanout 1 selects
	// the flat fan-out: the MM unicasts every fragment to every node
	// itself and no NM relays.
	Fanout int
	// Stripes is the number of disjoint spanning trees the bulk plane
	// stripes a transfer across (default 1: the single-tree plan,
	// byte-compatible with every prior release). With k > 1 the
	// interior/leaf roles rotate per stripe (each node is interior in
	// ~1/k of the trees) and manifest chunks interleave round-robin
	// (chunk i rides stripe i%k), so aggregate delivery drives k
	// uplinks per node and a slow relay only throttles the stripes it
	// is interior in. Clamped per job to the chunk count and
	// to 255 (the wire's stripe byte).
	Stripes int
	// GangQuantum, when positive, enables live gang scheduling: the MM
	// strobes a coordinated context switch every quantum and launches
	// processes gated.
	GangQuantum time.Duration
	// MPL is the number of gang timeslot rows (default 2 when gang
	// scheduling is enabled).
	MPL int
	// MaxConcurrent bounds how many admitted jobs may be in their
	// transfer phases at once (default 8); further submissions queue in
	// admission order. Execution always overlaps freely — a job's
	// streaming slot is released the moment its binary is resident.
	MaxConcurrent int
	// Admission selects the policy deciding which queued job streams
	// next when the slots are saturated: "fifo" (default), "wfair"
	// (weighted-fair over JobSpec.User/Weight), or "sif"
	// (smallest-image-first).
	Admission string
	// WrapConn, when set, interposes on every accepted connection —
	// the fault-injection hook (see internal/livenet/faultconn).
	WrapConn func(net.Conn) net.Conn
	// JobBase offsets this MM's job numbering: job IDs count up from
	// JobBase+1. A federation gives each leaf MM a disjoint base
	// (partition-scoped job IDs), so the job field in every frame header
	// cluster-wide names both the partition and the job — no two leaves
	// can collide on the shared relay fabric.
	JobBase int
	// Lite selects the dense connection profile (shallow buffered I/O,
	// kernel-autotuned socket buffers) on every accepted connection.
	// Pair with NMConfig.Lite when packing hundreds of NMs in-process.
	Lite bool
	// JournalDir, when set, makes MM state durable: every job and
	// membership event is appended to a CRC-framed write-ahead log under
	// this directory (see internal/livenet/journal), and a NewMM over
	// the same directory replays it — in-flight transfers are failed
	// cleanly and journaled as such, while jobs that were admitted but
	// never placed are resubmitted once enough NMs re-register (their
	// outcomes surface via RecoveredJobs). Empty keeps all state in
	// memory, exactly as before.
	JournalDir string
	// Placement selects the free-placement policy: "spread" (default)
	// is the classic deterministic least-loaded order, byte-identical
	// to every prior release; "locality" packs each gang into the
	// smallest aligned subtree of the cluster's k-ary heap topology
	// that has the free capacity, minimizing the relay hops gang
	// members pay to reach each other on distance-shaped links. Both
	// respect JobSpec.Demand against declared node capacities.
	Placement string
	// JobRetries bounds full job-level re-placements after a transfer
	// exhausts its replans or loses its nodes (default 0: a transfer
	// failure is terminal, the pre-retry behavior). Each retry waits a
	// bounded, jittered backoff, re-places the job on the surviving
	// membership excluding every node that already failed it, and
	// restarts the transfer from the manifest round — warm caches make
	// the replay cheap. After JobRetries failed re-placements the job
	// fails with ErrJobRetriesExhausted.
	JobRetries int
}

func (c *MMConfig) fill() {
	if c.FragBytes == 0 {
		c.FragBytes = 256 << 10
	}
	if c.AckTimeout == 0 {
		c.AckTimeout = 10 * time.Second
	}
	if c.TermTimeout == 0 {
		c.TermTimeout = 60 * time.Second
	}
	if c.ProbeGrace == 0 {
		c.ProbeGrace = max(min(c.AckTimeout/4, time.Second), 50*time.Millisecond)
	}
	if c.Fanout == 0 {
		c.Fanout = 2
	}
	c.Stripes = min(max(c.Stripes, 1), 255) // the frame headers carry the stripe in one byte
	if c.GangQuantum > 0 && c.MPL == 0 {
		c.MPL = 2
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 8
	}
	c.MaxConcurrent = max(c.MaxConcurrent, 1)
}

// MM is the live Machine Manager: it accepts NM registrations and client
// job submissions on one TCP port.
type MM struct {
	cfg MMConfig
	ln  net.Listener

	mu sync.Mutex
	// members is the membership table (member.go): one row per node.
	// hbActive counts running heartbeat loops — a rejoin only arms
	// probation when somebody is actually vouching.
	members  map[int]*member
	hbActive int
	jobs     map[int]*liveJob // placed jobs: their rows and nodes are the gang matrix's cells
	nextJob  int
	closed   bool
	// clients tracks in-flight submission connections so Kill can sever
	// them: Close leaves them to drain naturally (serveClient closes
	// each when its job finishes), but a simulated process death must
	// cut mid-job submitters loose immediately.
	clients map[*conn]struct{}

	// Multi-tenant admission (see admit.go): jobs wait in admit until the
	// policy grants them one of MaxConcurrent streaming slots; its cond
	// broadcasts on every slot release and finished job. place is the
	// indexed placement engine (internal/place): it tracks per-node load,
	// declared capacity, committed usage, and eligibility, and answers
	// placement decisions in O(log n) instead of a cluster scan — all
	// mutated under mu. All guarded by mu.
	admit    admitQueue
	place    *place.Engine
	placePol place.Policy

	// ctl is the cluster-wide control tree (heartbeat and gang-switch
	// rounds), laid over the registered, unconvicted members. Guarded by mu.
	ctl mmCtl

	// jnl is the durable event log (nil without MMConfig.JournalDir);
	// recovered holds the queued-but-unfinished jobs replayed from it
	// at startup, resubmitted by recoverLoop as NMs re-register.
	// recovered entries are guarded by mu once the loop starts.
	jnl       *journal.Journal
	recovered []*RecoveredJob

	// manifests caches the content-derived part of transfer manifests
	// for seeded (content-addressed) images, so a warm relaunch skips the
	// generate-and-hash pass over the whole image; seeds are the image
	// seeds the MM has launched, which decide whether an image is fresh
	// (buildManifest). Both least recently used first. Guarded by mu.
	manifests []*manifestData
	seeds     []uint64

	// probes routes directed isolation-probe pongs by sequence number
	// (transfer recovery and the heartbeat detector share the Pong
	// path with distinct sequence ranges).
	probeSeq int64
	probes   map[int64]*probeRound

	// loopStops are the stop functions of the running periodic loops —
	// the strobe loop and every heartbeat detector — invoked once by
	// shutdown so a forgotten detector cannot leak its goroutine past the
	// MM's lifetime.
	loopStops []func()

	// counters, guarded by mu: job lifecycle milestones and gang
	// context-switch multicasts issued.
	launched  int
	completed int
	strobes   int

	wg sync.WaitGroup
}

// probeRound collects pongs for one directed isolation-probe sweep, under
// MM.mu: owed is the set of probed nodes still to be heard from, and done
// closes when it empties — the round need not run out its grace.
type probeRound struct {
	owed map[int]bool
	done chan struct{}
}

// settle takes one probed node off the round's books: it answered, or
// (from the prober) it could not even be written to. Pongs from nodes
// the round did not probe, and duplicates, count for nothing.
func (pr *probeRound) settle(node int) {
	if !pr.owed[node] {
		return
	}
	delete(pr.owed, node)
	if len(pr.owed) == 0 {
		close(pr.done)
	}
}

// manifestData is the content-derived part of a transfer manifest. For
// seeded images it is cacheable across jobs: the same seed, patch and
// size always produce the same chunks (the chunk size is the MM's).
type manifestData struct {
	seed   uint64
	bytes  int
	patch  map[int]uint64
	hashes []uint64
	total  int64
}

// liveJob is one row of the MM's job table: the full MM-side state of a
// job from admission to completion.
type liveJob struct {
	id    int
	spec  JobSpec
	row   int
	frags int

	// Admission bookkeeping: qStart is when the job entered the
	// admission queue, queued its total queue wait once granted, and
	// placed the node IDs placement charged to the engine (fixed even
	// as j.nodes shrinks through recovery).
	qStart time.Time
	queued time.Duration
	placed []int

	mu    sync.Mutex
	nodes []*nmLink // current (surviving) job nodes, position-ordered

	// stripes is the per-stripe transfer state: every spanning tree the
	// bulk plane stripes this job across owns its own ack ledger, HAVE
	// ledgers and send list (one entry, stripe 0, for the single-tree
	// plan). A replan re-lays every stripe, drained or not, under the
	// job's next epoch, so each stripe's replan count is the job's
	// replans. epoch is the generation of the stripe trees: bumped by
	// every re-lay after the first (rewireTree), so it only ever grows.
	stripes []*stripeState
	epoch   int

	cond *sync.Cond
	fail error

	// Delta-transfer state shared by all stripes. man is the job's
	// manifest; fresh marks an image no NM can hold a chunk of
	// (buildManifest) until a replan clears it; chunksSent counts chunks
	// streamed across all stripes and epochs (replayed chunks count
	// again); bytesSaved is the payload the HAVE ledgers let the MM keep
	// off the wire, summed per link.
	man        *manifestData
	fresh      bool
	chunksSent int
	bytesSaved int64

	// peerDown holds the first evidence of each node's death (nodeDown),
	// consumed by diagnose and, after launch, by the termination wait.
	peerDown map[int]string

	// failedNodes, replans, recovery, retries are the job's fault
	// history for the completion report.
	failedNodes []int
	replans     int
	recovery    time.Duration
	retries     int

	// phase is the job's position in the admission state machine, and
	// admission the payload of its JobAdmitted record (the encoded
	// spec), both written only by apply: live through MM.record, on
	// restart through replayJobs. winPeak is the largest
	// unacknowledged-chunk count observed across all stripes, for the
	// job-table snapshot and the report. sendBytes
	// counts the MM's own distribution egress for this job exactly (the
	// frag and manifest frames it wrote), so concurrent jobs sharing a link
	// never bill each other.
	phase     jobPhase
	admission []byte
	winPeak   int
	sendBytes int64

	// termed is the set of nodes that reported termination, and unrelayed
	// the launched nodes a parent could not relay the Launch to.
	termed    map[int]bool
	unrelayed []int
}

// stripeState is one stripe's transfer state: its spanning tree (laid
// over a rotation of the job's placement order), one record per direct
// child and the send list. All index arithmetic below the
// sendList is stripe-local (chunk s+j·k is the stripe's j-th), so each
// stripe's window and replay logic is the single-tree logic verbatim.
// Guarded by the owning job's mu.
type stripeState struct {
	id int
	// tree is the stripe's forwarding tree; tree.order[q] is the node at
	// position q. It is laid afresh with every epoch — over the survivors
	// at a replan — and never edited in place.
	tree     laidTree
	kids     []*mmKid // the MM's direct children in this tree
	sendList []int    // ascending global chunk indices this stripe still streams
	// streamAt is the stripe-local index just past the last chunk
	// streamed this epoch.
	streamAt int
}

// mmKid is one direct child of the MM in a laid tree — a stripe's or
// the control tree — with every answer it has given this epoch on behalf
// of its subtree. An answer naming a node that has no record here is
// dropped.
type mmKid struct {
	treeKid
	acked int // cumulative credit: stripe-local chunks, or the last clean control round
	// have is a stripe's first folded HAVE ledger of the epoch, nil until
	// reported: written before the manifest round's wait returns and never
	// after, so the stream reads it without j.mu. It decides what the
	// subtree is sent, except in a fresh epoch, which neither waits for
	// nor reads it; a later ledger of the epoch only adds credit.
	have   []uint64
	ledger pongLedger // the control tree's latest pong ledger; seq 0 until the first
	// present ORs the presence bits of the subtree's ledgers of rounds
	// since the heartbeat's last judgement (mmCtl.vouchFrom).
	present uint64
}

// newKids makes a fresh record for each of the MM's direct children in t.
func newKids(t laidTree) []*mmKid {
	kids := make([]*mmKid, 0, len(t.kids))
	for _, tk := range t.kids {
		kids = append(kids, &mmKid{treeKid: tk})
	}
	return kids
}

// kidOf returns the record of the direct child that is node, or nil.
func kidOf(kids []*mmKid, node int) *mmKid {
	for _, kid := range kids {
		if kid.link.node == node {
			return kid
		}
	}
	return nil
}

// minAcked folds the kids' credit: the least of ceil and every kid's.
func minAcked(kids []*mmKid, ceil int) int {
	for _, kid := range kids {
		ceil = min(ceil, kid.acked)
	}
	return ceil
}

// NewMM starts a Machine Manager listening on addr (use "127.0.0.1:0"
// for an ephemeral port).
func NewMM(addr string, cfg MMConfig) (*MM, error) {
	cfg.fill()
	policy, err := newAdmissionPolicy(cfg.Admission)
	if err != nil {
		return nil, err
	}
	placePol, err := place.ParsePolicy(cfg.Placement)
	if err != nil {
		return nil, fmt.Errorf("livenet: %w", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("livenet: listen %s: %w", addr, err)
	}
	mm := &MM{
		cfg:      cfg,
		ln:       ln,
		members:  make(map[int]*member),
		jobs:     make(map[int]*liveJob),
		nextJob:  cfg.JobBase,
		clients:  make(map[*conn]struct{}),
		probes:   make(map[int64]*probeRound),
		place:    place.NewEngine(64),
		placePol: placePol,
	}
	mm.admit = admitQueue{cond: sync.NewCond(&mm.mu), closed: &mm.closed, errClosed: ErrMMClosed,
		policy: policy, slots: cfg.MaxConcurrent}
	if cfg.JournalDir != "" {
		if err := mm.openJournal(cfg.JournalDir); err != nil {
			ln.Close()
			return nil, err
		}
	}
	mm.wg.Add(1)
	go mm.acceptLoop()
	if len(mm.recovered) > 0 {
		mm.wg.Add(1)
		go mm.recoverLoop()
	}
	if cfg.GangQuantum > 0 {
		stop := make(chan struct{})
		mm.loopStops = append(mm.loopStops, func() { close(stop) })
		mm.wg.Add(1)
		go func() {
			defer mm.wg.Done()
			mm.strobeLoop(stop)
		}()
	}
	return mm, nil
}

// RecoveredJob is one job the MM's journal showed as admitted but never
// placed when the MM restarted. The recovery loop resubmits it once
// enough NMs have (re-)registered; Done flips when its rerun finished,
// with the outcome in Report/Err.
type RecoveredJob struct {
	ID     int // job ID under the previous incarnation
	Spec   JobSpec
	Report Report
	Err    error
	Done   bool

	row *liveJob // the job's replayed row, admitted until the rerun retires it
}

// encodeSpec/decodeSpec write a JobSpec into the journal's opaque Data
// as what it is on the wire: the body of a Submit frame. The encoded
// bytes are tail scratch the walker took from the pool and never gave
// back, so they are the caller's.
func encodeSpec(spec *JobSpec) []byte {
	var w walker
	spec.walk(&w)
	return w.out
}

func decodeSpec(b []byte) (JobSpec, error) {
	var spec JobSpec
	w := walker{dec: true, in: b}
	spec.walk(&w)
	return spec, w.done()
}

// replayJobs folds the journal under dir into job rows, in first-seen
// order, through apply: the transition record runs live. Membership
// events are history and rebuild no row.
func replayJobs(dir string) (rows []*liveJob, err error) {
	byID := make(map[int]*liveJob)
	err = journal.Replay(dir, func(ev journal.Event) error {
		if _, ok := phaseOf(ev.Type); !ok {
			return nil
		}
		j := byID[ev.Job]
		if j == nil {
			j = &liveJob{id: ev.Job}
			byID[ev.Job] = j
			rows = append(rows, j)
		}
		j.apply(ev)
		return nil
	})
	return rows, err
}

// openJournal replays the write-ahead log under dir (if any) into job
// rows, opens it for appending, and decides each row's fate from its
// phase. A job admitted but never placed lost nothing but queue
// position: it is queued for resubmission. A job past placement cannot
// be resumed — its relay topology and window state died with the
// previous MM — so it is failed, durably, and the next restart forgets
// it too, as it forgets a finished one.
func (mm *MM) openJournal(dir string) error {
	rows, err := replayJobs(dir)
	if err != nil {
		return err
	}
	jnl, err := journal.Open(dir)
	if err != nil {
		return err
	}
	mm.jnl = jnl
	for _, j := range rows {
		mm.nextJob = max(mm.nextJob, j.id)
		switch {
		case j.phase == phaseAdmitted:
			spec, err := decodeSpec(j.admission)
			if err != nil {
				continue // torn spec payload: nothing actionable survives
			}
			j.spec, j.admission = spec, slices.Clone(j.admission) // not the whole segment
			mm.recovered = append(mm.recovered, &RecoveredJob{ID: j.id, Spec: spec, row: j})
		case j.phase < phaseDone:
			mm.record(j, journal.Event{Type: journal.JobFailed, Data: []byte("interrupted by MM restart")})
		}
	}
	return nil
}

// recoverLoop resubmits the journal's admitted-but-unplaced jobs, each
// as soon as the cluster can hold it — after a full restart the NMs
// re-register (or rejoin) on their own schedule, so recovery waits for
// the membership rather than failing the backlog against an empty map.
func (mm *MM) recoverLoop() {
	defer mm.wg.Done()
	for _, rj := range mm.recovered {
		mm.mu.Lock()
		for !mm.closed && len(mm.registered()) < rj.Spec.Nodes {
			mm.admit.cond.Wait() // syncPlace broadcasts
		}
		if mm.closed {
			for _, r := range mm.recovered {
				if !r.Done {
					r.Err, r.Done = ErrMMClosed, true
				}
			}
			mm.mu.Unlock()
			return
		}
		mm.mu.Unlock()
		// Retire the old ID durably before the rerun journals its own
		// admission — otherwise every future restart would re-recover
		// (and re-run) this job under its original ID.
		mm.record(rj.row, journal.Event{Type: journal.JobFailed, Data: []byte("resubmitted after restart")})
		rep, err := mm.RunJob(rj.Spec)
		mm.mu.Lock()
		rj.Report, rj.Err, rj.Done = rep, err, true
		mm.mu.Unlock()
	}
}

// RecoveredJobs snapshots the journal-recovery backlog: the jobs a
// restarted MM found admitted but unplaced, with their rerun outcomes
// so far. Empty for an MM that did not restart (or has no journal).
func (mm *MM) RecoveredJobs() []RecoveredJob {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	out := make([]RecoveredJob, 0, len(mm.recovered))
	for _, rj := range mm.recovered {
		out = append(out, *rj)
	}
	return out
}

// record is the MM's one state edge and the journal's one writer. A job
// event first moves j's row through apply, and entering the phase j
// already holds records nothing: the k stripes that each start streaming
// write one record. A membership event (j nil) was already applied by
// its row's mutator, register or convict. The row moves before the
// append, so a rotation snapshotting in between holds the transition and
// the append lands in the new segment. Lock order mm.mu -> journal ->
// j.mu: callers may hold mm.mu, never j.mu.
func (mm *MM) record(j *liveJob, ev journal.Event) {
	if j != nil {
		ev.Job = j.id
		j.mu.Lock()
		moved := j.apply(ev)
		j.mu.Unlock()
		if !moved {
			return
		}
	}
	if mm.jnl != nil {
		mm.jnl.Append(ev)
	}
}

// maybeRotateJournal condenses the log once the active segment outgrows
// its limit into the rows of the unfinished jobs — the recovered backlog
// not yet rerun, the admission queue, the jobs in flight — each written
// as its admission record plus the event of the phase it holds, which
// replays to the same row. Membership records are history replay skips,
// so none is kept. mm.mu pins the set of rows, and the journal runs the
// snapshot under its own lock, so no record lands between the snapshot
// and the segment swap.
func (mm *MM) maybeRotateJournal() {
	if mm.jnl == nil || !mm.jnl.NeedsRotation() {
		return
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.jnl.Rotate(func() (snap []journal.Event) {
		var rows []*liveJob
		for _, rj := range mm.recovered {
			rows = append(rows, rj.row)
		}
		rows = append(rows, mm.admit.q...)
		for _, j := range mm.jobs {
			rows = append(rows, j)
		}
		for _, j := range rows {
			j.mu.Lock()
			if p := j.phase; p < phaseDone {
				snap = append(snap, journal.Event{Type: journal.JobAdmitted, Job: j.id, Data: j.admission})
				if p != phaseAdmitted {
					snap = append(snap, journal.Event{Type: phases[p].ev, Job: j.id})
				}
			}
			j.mu.Unlock()
		}
		return snap
	})
}

// JournalPath returns the journal directory ("" without one).
func (mm *MM) JournalPath() string { return mm.cfg.JournalDir }

// isClosed reports whether the MM has shut down — how a federation
// tells a stale leaf handle from a live one after a leaf restart.
func (mm *MM) isClosed() bool {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.closed
}

// Addr returns the listening address (for NMs and clients to dial).
func (mm *MM) Addr() string { return mm.ln.Addr().String() }

// Close shuts the MM down and disconnects everyone.
func (mm *MM) Close() { mm.shutdown(false) }

// Kill is the abrupt shutdown — the leaf-manager process death a
// federation must survive. Where Close lets in-flight submissions drain
// (their jobs fail against the closed cluster and report back), Kill
// severs the client connections immediately, so a root MM waiting on a
// delegated job sees the link die now rather than after the dead leaf's
// transfer machinery times out.
func (mm *MM) Kill() { mm.shutdown(true) }

func (mm *MM) shutdown(abrupt bool) {
	mm.mu.Lock()
	mm.closed = true
	mm.admit.cond.Broadcast() // release jobs parked in the admission queue
	// Jobs past admission wait on their own record (liveJob.await): fail
	// each so a launched job collecting termination reports notices the MM
	// going away without running out its deadline.
	for _, j := range mm.jobs {
		j.mu.Lock()
		if j.fail == nil {
			j.fail = fmt.Errorf("%w: job %d cut short by shutdown", ErrMMClosed, j.id)
		}
		j.cond.Broadcast()
		j.mu.Unlock()
	}
	stops := mm.loopStops
	mm.loopStops = nil
	for _, m := range mm.members {
		if m.link != nil {
			m.link.c.close()
		}
	}
	if abrupt {
		for c := range mm.clients {
			c.close()
		}
	}
	mm.mu.Unlock()
	for _, stop := range stops {
		stop()
	}
	mm.ln.Close()
	mm.wg.Wait()
	if mm.jnl != nil {
		mm.jnl.Close()
	}
}

func (mm *MM) acceptLoop() {
	defer mm.wg.Done()
	for {
		nc, err := mm.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if mm.cfg.WrapConn != nil {
			nc = mm.cfg.WrapConn(nc)
		}
		mm.wg.Add(1)
		go mm.handleConn(newConnProf(nc, profileFor(mm.cfg.Lite)))
	}
}

// handleConn demultiplexes by the first message: NMs start with Register,
// clients with Submit.
func (mm *MM) handleConn(c *conn) {
	defer mm.wg.Done()
	first, err := c.recv()
	if err != nil {
		c.close()
		return
	}
	switch {
	case first.Register != nil:
		mm.serveNM(c, first.Register)
	case first.Submit != nil:
		mm.serveClient(c, first.Submit.Spec)
	case first.StatusQ != nil:
		rep := mm.status()
		c.send(Message{StatusR: &rep})
		c.close()
	default:
		c.close()
	}
}

// status builds the cluster snapshot.
func (mm *MM) status() StatusRep {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return StatusRep{
		Nodes:     mm.registered(),
		Jobs:      len(mm.jobs),
		Queued:    len(mm.admit.q),
		Launched:  mm.launched,
		Completed: mm.completed,
		Strobes:   mm.strobes,
		Gang:      mm.cfg.GangQuantum > 0,
	}
}

// serveNM registers a Node Manager and pumps its notifications until the
// link dies, then unregisters it. A Register that asks to rejoin readmits
// an NM the cluster has already written off — one the failure detector
// convicted, or one whose process restarted: its row is cleared and put
// on probation (MM.register), and only then is the acknowledgement sent —
// by the time the NM starts serving traffic the next control-tree epoch
// already wires it back in. Its placement eligibility returns after
// probation; its chunk cache makes it a warm relay immediately. The end
// of the link is the MM's own evidence of the node's death: every job
// standing on this registration hears of it at once (liveJob.nodeDown),
// as the link is closed first, so no Launch is written to it after.
func (mm *MM) serveNM(c *conn, reg *Register) {
	link := &nmLink{node: reg.Node, cpus: reg.CPUs, addr: reg.Addr, c: c}
	mm.mu.Lock()
	if mm.closed {
		mm.mu.Unlock()
		if reg.Rejoin {
			c.send(Message{RejoinAck: &RejoinAck{Err: "MM closed"}})
		}
		c.close()
		return
	}
	prob := mm.register(link, reg)
	mm.mu.Unlock()
	var err error
	defer func() {
		c.close()
		mm.mu.Lock()
		mm.disconnect(link)
		for _, j := range mm.jobs {
			j.mu.Lock()
			if slices.Contains(j.nodes, link) {
				j.nodeDown(link.node, fmt.Sprintf("MM link lost: %v", err))
			}
			j.mu.Unlock()
		}
		mm.mu.Unlock()
	}()
	if reg.Rejoin {
		if _, err = c.send(Message{RejoinAck: &RejoinAck{Probation: prob}}); err != nil {
			return
		}
	}
	for {
		var m Message
		if m, err = c.recv(); err != nil {
			return
		}
		switch {
		case m.FragAck != nil:
			mm.onFragAck(m.FragAck)
		case m.Have != nil:
			mm.onHave(m.Have)
		case m.PeerDown != nil:
			mm.onPeerDown(m.PeerDown)
		case m.Term != nil:
			mm.onTerm(m.Term)
		case m.Pong != nil:
			mm.onPong(m.Pong)
		}
	}
}

func (mm *MM) jobByID(id int) *liveJob {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.jobs[id]
}

// stripeByID returns the job's stripe s (nil if out of range). Caller
// holds j.mu.
func (j *liveJob) stripeByID(s int) *stripeState {
	if s < 0 || s >= len(j.stripes) {
		return nil
	}
	return j.stripes[s]
}

// onTransferEvent is the one way an NM's answer reaches a job's record:
// look the job up (an answer for a job that is gone is dropped), take
// j.mu, apply, wake every wait.
func (mm *MM) onTransferEvent(job int, apply func(j *liveJob)) {
	j := mm.jobByID(job)
	if j == nil {
		return
	}
	j.mu.Lock()
	apply(j)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// failLocked fails the job's transfer with err, ending every stripe's
// wait once the caller wakes them. The first failure wins, as a failure
// cascades (a rejected fragment forces every later one out of order) and
// the later reports would mask the site of the first; but a content
// rejection outranks a liveness failure, which a replan could cure. A
// launched job's image is resident everywhere it runs, so a straggling
// transfer complaint has nothing left to fail. Caller holds j.mu.
func (j *liveJob) failLocked(err error) {
	var reject rejectError
	if j.phase < phaseLaunched && (j.fail == nil || errors.As(err, &reject) && !errors.As(j.fail, &reject)) {
		j.fail = err
	}
}

// nodeDown is the one way a node's death reaches its job: the MM's link
// to it closed, an MM write to it failed, or a parent reported it. A
// death recovery already excluded is spent. The first evidence about a
// node is kept for diagnose, or after launch for the termination wait,
// which alone knows whether the node took its Launch. Caller holds j.mu.
func (j *liveJob) nodeDown(node int, why string) {
	if slices.Contains(j.failedNodes, node) {
		return
	}
	if j.peerDown == nil {
		j.peerDown = make(map[int]string)
	}
	if _, seen := j.peerDown[node]; !seen {
		j.peerDown[node] = why
	}
	j.failLocked(downError{node: node, cause: j.peerDown[node]})
	j.cond.Broadcast()
}

func (mm *MM) onFragAck(a *FragAck) {
	mm.onTransferEvent(a.Job, func(j *liveJob) {
		if !a.OK {
			// Nacks carry the global chunk index, so the report names the
			// corruption site unambiguously.
			j.failLocked(rejectError{node: a.Node, index: a.Index})
			return
		}
		// Credit from an older tree epoch vouched for a different subtree
		// shape; only current-epoch credit moves the window. Cumulative
		// acks are stripe-local counts.
		if ss := j.stripeByID(a.Stripe); ss != nil && a.Epoch == j.epoch {
			if kid := kidOf(ss.kids, a.Node); kid != nil {
				kid.credit(a.Index + 1)
			}
		}
	})
}

// onHave records a direct child's folded subtree HAVE ledger for the
// stripe's current epoch, and credits the kid with the ledger's
// stripe-local prefix: every chunk up to the first gap is in place all
// over the subtree, which is exactly what a cumulative ack would say.
func (mm *MM) onHave(h *Have) {
	mm.onTransferEvent(h.Job, func(j *liveJob) {
		ss := j.stripeByID(h.Stripe)
		if ss == nil || h.Epoch != j.epoch {
			return
		}
		if kid := kidOf(ss.kids, h.Node); kid != nil {
			if kid.have == nil {
				// Never nil once reported, even for an empty ledger.
				kid.have = append(make([]uint64, 0, len(h.Bits)), h.Bits...)
			}
			kid.credit(stripePrefix(h.Bits, j.frags, ss.id, len(j.stripes), kid.acked))
		}
	})
}

// onPeerDown records an NM's report that a relay child is unreachable.
// It speaks of a relay link only, so after launch it is no death: the
// launch writes the node its Launch directly.
func (mm *MM) onPeerDown(d *PeerDown) {
	mm.onTransferEvent(d.Job, func(j *liveJob) {
		if j.phase < phaseLaunched {
			j.nodeDown(d.Node, fmt.Sprintf("parent %d could not reach it: %s", d.From, d.Err))
		} else {
			j.unrelayed = append(j.unrelayed, d.Node)
		}
	})
}

// onTerm records a node's termination report.
func (mm *MM) onTerm(t *Term) {
	mm.onTransferEvent(t.Job, func(j *liveJob) {
		j.termed[t.Node] = true
	})
}

// serveClient runs one job's full lifecycle on behalf of a submitter.
func (mm *MM) serveClient(c *conn, spec JobSpec) {
	defer c.close()
	mm.mu.Lock()
	mm.clients[c] = struct{}{}
	mm.mu.Unlock()
	defer func() {
		mm.mu.Lock()
		delete(mm.clients, c)
		mm.mu.Unlock()
	}()
	rep, err := mm.RunJob(spec)
	done := Done{Report: rep}
	if err != nil {
		done.Err = err.Error()
	}
	c.send(Message{Done: &done})
}

// RunJob executes a job synchronously: admit (queueing behind the
// concurrency cap under the configured admission policy), place on the
// least-loaded nodes, build the forwarding tree, distribute the binary
// through it with windowed flow control (self-healing around node
// failures), launch, and collect termination reports. It returns the
// paper-style timing decomposition. Up to MMConfig.MaxConcurrent jobs
// stream concurrently, multiplexed over the shared relay links by the
// job-tagged frame headers.
func (mm *MM) RunJob(spec JobSpec) (_ Report, err error) {
	if spec.Nodes <= 0 || spec.PEsPerNode <= 0 {
		return Report{}, fmt.Errorf("livenet: bad job geometry %dx%d", spec.Nodes, spec.PEsPerNode)
	}
	if len(spec.Place) > 0 && len(spec.Place) != spec.Nodes {
		return Report{}, fmt.Errorf("livenet: Place names %d nodes, job wants %d", len(spec.Place), spec.Nodes)
	}
	pinned := make(map[int]bool, len(spec.Place))
	for _, id := range spec.Place {
		if pinned[id] {
			return Report{}, fmt.Errorf("livenet: Place names node %d twice", id)
		}
		pinned[id] = true
	}
	mm.maybeRotateJournal()
	mm.mu.Lock()
	if mm.closed {
		mm.mu.Unlock()
		return Report{}, ErrMMClosed
	}
	if n := len(mm.registered()); n < spec.Nodes {
		// Fast-fail before queueing: a cluster that cannot ever hold the
		// job should not park it in the admission queue.
		mm.mu.Unlock()
		return Report{}, fmt.Errorf("livenet: %d NMs registered, job wants %d", n, spec.Nodes)
	}
	mm.nextJob++
	frags := max(1, (spec.BinaryBytes+mm.cfg.FragBytes-1)/mm.cfg.FragBytes)
	j := &liveJob{
		id:     mm.nextJob,
		spec:   spec,
		row:    -1,
		frags:  frags,
		qStart: time.Now(),
		termed: make(map[int]bool, spec.Nodes),
	}
	j.cond = sync.NewCond(&j.mu)
	mm.record(j, journal.Event{Type: journal.JobAdmitted, Data: encodeSpec(&spec)})
	// Every failure from here on ends the job's row — except one the
	// shutdown caused, which journals nothing: a restarted MM resumes the
	// job if it was still queued and fails it durably if it was not.
	defer func() {
		if err != nil && !errors.Is(err, ErrMMClosed) {
			mm.record(j, journal.Event{Type: journal.JobFailed, Data: []byte(err.Error())})
		}
	}()
	nodes, err := mm.awaitAdmission(j)
	if err != nil {
		mm.mu.Unlock()
		return Report{}, err
	}
	j.mu.Lock()
	j.queued = time.Since(j.qStart)
	j.mu.Unlock()
	j.nodes = nodes
	for _, l := range nodes {
		j.placed = append(j.placed, l.node)
		mm.place.Commit(l.node, spec.Demand)
	}
	mm.rewireTree(j, mm.stripeCountFor(j))
	mm.jobs[j.id] = j
	mm.launched++
	mm.mu.Unlock()
	mm.record(j, journal.Event{Type: journal.JobPlanned})
	defer func() {
		mm.mu.Lock()
		delete(mm.jobs, j.id) // which frees its cells of the gang matrix
		for _, n := range j.placed {
			mm.place.Release(n, spec.Demand)
		}
		mm.admit.cond.Broadcast()
		mm.mu.Unlock()
	}()

	start := time.Now()
	err = mm.transfer(j)
	// Job-level retry: a transfer that exhausted its mid-stream recovery
	// (or lost its nodes outright) gets up to JobRetries fresh
	// placements on the surviving membership, each after a bounded,
	// jittered backoff. Content failures and shutdown are never retried.
	for attempt := 0; err != nil && attempt < mm.cfg.JobRetries && retryableJobErr(err); attempt++ {
		time.Sleep(retryBackoff(j.id, attempt))
		if rerr := mm.rehome(j); rerr != nil {
			err = fmt.Errorf("%w: job %d: re-placement failed: %v (after %v)",
				ErrJobRetriesExhausted, j.id, rerr, err)
			break
		}
		j.mu.Lock()
		j.retries++
		j.mu.Unlock()
		err = mm.transfer(j)
	}
	if err != nil && mm.cfg.JobRetries > 0 && retryableJobErr(err) {
		err = fmt.Errorf("%w: job %d still failing after %d re-placements: %v",
			ErrJobRetriesExhausted, j.id, j.retries, err)
	}
	// The streaming slot frees as soon as the transfer phase is over —
	// this job's execution overlaps the next job's stream.
	mm.releaseStream()
	// fail ends a job that could not be launched: every node drops its
	// transfer state. Whatever a job dies of while the MM shuts down
	// under it, it died of the shutdown.
	fail := func(err error) (Report, error) {
		if mm.isClosed() && !errors.Is(err, ErrMMClosed) {
			err = fmt.Errorf("%w: job %d: %v", ErrMMClosed, j.id, err)
		}
		mm.abort(j, err)
		return Report{}, err
	}
	if err != nil {
		return fail(err)
	}
	send := time.Since(start)

	// Launch: one frame down stripe 0's tree, which every NM relays to its
	// children before it forks. The last replan laid that tree over the
	// survivors, so each copy carries one dense index, its recipient's
	// position in the tree's pre-order, and the ranks are dense over the
	// survivors. From here on the transfer's late answers are inert: a
	// failure or evidence one of them left behind after the transfer's last
	// wait is stale — only a shutdown still counts.
	mm.record(j, journal.Event{Type: journal.JobLaunched})
	j.mu.Lock()
	if !errors.Is(j.fail, ErrMMClosed) {
		j.fail = nil
	}
	j.peerDown = nil
	wait := make([]int, 0, len(j.nodes)) // the nodes that owe a termination report
	for _, link := range j.nodes {
		wait = append(wait, link.node)
	}
	tree := j.stripes[0].tree
	j.mu.Unlock()
	launch := Launch{Job: j.id, Program: spec.Program, PEs: spec.PEsPerNode, Row: j.row, Gang: mm.cfg.GangQuantum > 0}
	// The MM writes its own children in the tree, and a node its parent
	// could not relay to (PeerDown); an NM drops a second copy. A Launch
	// the MM cannot write is a node death as in any phase: the node is
	// failed, its ranks do not run, it owes no report, and the MM writes
	// its children.
	var todo []int // tree positions the MM is to write
	for _, tk := range tree.kids {
		todo = append(todo, tk.pos)
	}
	deadline := time.Now().Add(spec.Program.Duration + mm.cfg.TermTimeout)
	var lost error
	for ran := len(wait); len(todo) > 0 || len(wait) > 0; {
		for len(todo) > 0 { // a batch at a time, its frames written at once
			batch := todo
			todo = nil
			fanOut(len(batch), func(b int) {
				link, l := tree.order[batch[b]], launch
				l.Index = tree.pos[batch[b]].pre
				if _, err := link.c.send(Message{Launch: &l}); err != nil {
					j.mu.Lock() // and wait, todo, ran and lost, across the batch
					if slices.Contains(wait, link.node) {
						lost = fmt.Errorf("launch to node %d: %w", link.node, err)
						j.failedNodes = append(j.failedNodes, link.node)
						ran--
						wait = slices.DeleteFunc(wait, func(n int) bool { return n == link.node })
						todo = append(todo, tree.pos[batch[b]].kids...)
					}
					j.mu.Unlock()
				}
			})
		}
		if ran == 0 {
			return fail(fmt.Errorf("livenet: job %d: launch phase: all nodes failed (%v), last: %w", j.id, j.failedNodes, lost))
		}
		// Collect the termination reports. The termination deadline is its
		// own budget — the program's expected duration plus TermTimeout —
		// independent of the transfer-phase AckTimeout; a node that lost its
		// MM link never reports, and fails the wait at once. Every report
		// wakes the wait, so a wake walks only the nodes still owing (the
		// list shrinks in place). A PeerDown ends the wait to write its node.
		err = j.await(nil, "launched nodes never reported termination: missing", deadline, func(names *[]string) int {
			k := 0
			for _, node := range wait {
				if !j.termed[node] {
					if why, down := j.peerDown[node]; down && j.fail == nil {
						j.fail = fmt.Errorf("%w: job %d: launched node %d is down (%s)", ErrTermTimeout, j.id, node, why)
					}
					wait[k] = node
					k++
					nameOwing(names, node)
				}
			}
			wait = wait[:k]
			for _, node := range j.unrelayed {
				if slices.Contains(wait, node) {
					todo = append(todo, slices.IndexFunc(tree.order, func(l *nmLink) bool { return l.node == node }))
				}
			}
			j.unrelayed = nil
			if len(todo) > 0 {
				return 0 // write them first
			}
			return k
		})
		if err != nil {
			return Report{}, err
		}
	}
	total := time.Since(start)
	mm.mu.Lock()
	mm.completed++
	mm.mu.Unlock()
	failed := append([]int(nil), j.failedNodes...)
	sort.Ints(failed)
	stripeReplans := make([]int, len(j.stripes))
	for s := range stripeReplans {
		stripeReplans[s] = j.replans
	}
	mm.record(j, journal.Event{Type: journal.JobDone})
	return Report{
		JobID:         j.id,
		Send:          send,
		Execute:       total - send,
		Total:         total,
		SendBytes:     j.sendBytes,
		Failed:        failed,
		Replans:       j.replans,
		Recovery:      j.recovery,
		StripeReplans: stripeReplans,
		Chunks:        j.frags,
		ChunksSent:    j.chunksSent,
		BytesSaved:    j.bytesSaved,
		Queued:        j.queued,
		Row:           j.row,
		WindowPeak:    j.winPeak,
		Retries:       j.retries,
	}, nil
}

// retryableJobErr reports whether a transfer failure is worth a fresh
// placement: content rejections are not (the payload itself is wrong),
// shutdown is not, and an already-terminal retry verdict is final.
func retryableJobErr(err error) bool {
	var reject rejectError
	if errors.As(err, &reject) {
		return false
	}
	return !errors.Is(err, ErrMMClosed) && !errors.Is(err, ErrJobRetriesExhausted)
}

// retryBackoff is the bounded, jittered wait before a job's next
// placement attempt: exponential from 25 ms, capped at 500 ms, with up
// to half the base again in deterministic per-(job, attempt) jitter so
// simultaneous victims of one dead node do not re-place in lockstep.
func retryBackoff(job, attempt int) time.Duration {
	base := min(25*time.Millisecond<<uint(attempt), 500*time.Millisecond)
	jitter := time.Duration(rng.Mix64(uint64(job)<<20^uint64(attempt)) % uint64(base/2))
	return base + jitter
}

// rehome gives a failed job a fresh placement on the current
// membership, excluding every node that already failed it, by the gang
// matrix's rule (placeInRow: it may move rows, and fails when every row
// holds a node it needs), and lays its trees afresh at a new epoch —
// the next transfer re-runs the manifest rounds from scratch, so
// surviving caches (and the images of nodes that served the failed
// attempt) turn the replay into a mostly-delta stream.
// Pinned jobs cannot move: they are only re-dialed if every pinned node
// is still unblemished.
func (mm *MM) rehome(j *liveJob) error {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if mm.closed {
		return ErrMMClosed
	}
	bad := make(map[int]bool, len(j.failedNodes))
	for _, n := range j.failedNodes {
		bad[n] = true
	}
	row, nodes, err := mm.placeInRow(j, bad)
	if err == nil && row < 0 {
		err = fmt.Errorf("livenet: each of the %d gang rows holds a job on the nodes it needs", mm.cfg.MPL)
	}
	if err != nil {
		return err
	}
	for _, n := range j.placed {
		mm.place.Release(n, j.spec.Demand)
	}
	j.placed = j.placed[:0]
	for _, l := range nodes {
		j.placed = append(j.placed, l.node)
		mm.place.Commit(l.node, j.spec.Demand)
	}
	j.mu.Lock()
	j.row, j.nodes = row, nodes
	j.fail = nil
	j.peerDown = nil
	mm.rewireTree(j, mm.stripeCountFor(j))
	j.mu.Unlock()
	mm.record(j, journal.Event{Type: journal.JobPlanned})
	return nil
}

// stripeCountFor is the job's stripe count: the configured count clamped
// to the chunk count (an extra stripe with nothing to carry is pure
// overhead) and the node count.
func (mm *MM) stripeCountFor(j *liveJob) int {
	return max(1, min(mm.cfg.Stripes, j.frags, len(j.nodes)))
}

// rewireTree lays the job's k stripe trees afresh over its current node
// set — stripe s over the placement order rotated by s·n/k — each with
// a new record per direct child and nothing streamed: at placement,
// re-placement (rehome) and every replan (recoverStripes). Every re-lay
// opens the job's next epoch: a node that served a failed attempt or a
// superseded tree still holds its relays, and only a newer epoch makes
// it install the new tree rather than take the manifest for a re-run of
// the old one. Caller must hold j.mu or have exclusive access to j.
func (mm *MM) rewireTree(j *liveJob, k int) {
	if j.stripes != nil {
		j.epoch++
	}
	j.stripes = j.stripes[:0]
	for s := 0; s < k; s++ {
		tree := layTree(stripeOrder(j.nodes, s, k), mm.cfg.Fanout)
		j.stripes = append(j.stripes, &stripeState{id: s, tree: tree, kids: newKids(tree)})
	}
}

// transfer streams the synthetic binary image down the forwarding tree,
// self-healing around node failures. Phases:
//
//  1. Manifest round, one sweep down and one up: the MM sends each of
//     its tree children the per-chunk content manifest together with the
//     child's subtree; every node installs its relay from it (dialing or
//     reusing its children's links), relays each child its own slice —
//     so no fragment can reach a node before that node knows whom to
//     relay to, as a fragment follows the manifest down the same link —
//     splices what its chunk cache holds, and the per-subtree HAVE
//     ledgers fold back up: the set-union of missing chunks in one
//     O(depth) round with O(fanout) egress, each ledger's stripe-local
//     prefix its subtree's opening credit. A fresh image (buildManifest)
//     skips the wait: every chunk is missing everywhere.
//  2. Stream: each missing chunk is generated once into a pooled buffer
//     and written only to the subtrees that miss it; NMs relay onward
//     (again selectively, by their children's ledgers) and aggregate
//     acks, so the MM's window check sees one cumulative credit per
//     subtree. A chunk goes out only after every subtree has
//     acknowledged the chunk a window behind it (the live analogue of
//     the COMPARE-AND-WRITE flow control over the remote receive queues).
//  3. Recover (only on liveness failures): diagnose which nodes are
//     actually dead (accumulated PeerDown evidence plus directed
//     isolation probes over the control links), exclude them, and rewire
//     every stripe over the survivors under a bumped epoch, which re-runs
//     phases 1 and 2, waiting for the survivors' ledgers: they re-derive
//     the remaining need, and the credit to resume from, from their
//     actual splice and cache state. Chunks are regenerated
//     deterministically, so the send log is the generator plus an index.
//     Content failures (hash rejections) are never retried.
func (mm *MM) transfer(j *liveJob) error {
	// maxReplans bounds the tree-replan recovery rounds one transfer may
	// attempt before giving up. Each round can exclude several failed
	// nodes at once.
	const maxReplans = 3
	j.man = mm.buildManifest(j)

	err := mm.runStripes(j)
	for replans := 0; err != nil; replans++ {
		var reject rejectError
		if errors.As(err, &reject) {
			return err // content failure: replanning cannot help
		}
		if replans >= maxReplans {
			return fmt.Errorf("%w: job %d: giving up after %d replans: %w", ErrReplansExhausted, j.id, replans, err)
		}
		t0 := time.Now()
		dead := mm.diagnose(j)
		if len(dead) == 0 {
			return err // nothing provably dead: surface the original failure
		}
		rerr := mm.recoverStripes(j, dead)
		j.recovery += time.Since(t0)
		if rerr != nil {
			return rerr // no survivors to replan over
		}
		j.replans++
		err = mm.runStripes(j)
	}
	return nil
}

// runStripes drives every stripe's manifest round and stream
// concurrently — the phase pipeline. Every stripe is at an epoch no round
// has run in yet (the initial layout, or a replan, which re-lays them
// all), so each stripe goroutine runs its manifest round first and
// streams immediately after, so fast stripes push payload while slow ones
// still fold HAVEs; a stripe that had drained before the replan finds
// every chunk in place in its HAVE fold and streams nothing. A stripe's
// failure is the job's (failLocked), so it ends the other stripes' waits
// at once; the job's failure is returned.
func (mm *MM) runStripes(j *liveJob) error {
	j.mu.Lock()
	stripes := slices.Clone(j.stripes)
	j.mu.Unlock()
	mm.record(j, journal.Event{Type: journal.JobManifest})
	failed := false
	fanOut(len(stripes), func(s int) {
		err := mm.manifestStripe(j, stripes[s])
		if err == nil {
			err = mm.streamStripe(j, stripes[s])
		}
		if err != nil {
			j.mu.Lock()
			failed = true
			j.failLocked(err)
			j.cond.Broadcast()
			j.mu.Unlock()
		}
	})
	j.mu.Lock()
	defer j.mu.Unlock()
	if !failed {
		return nil // evidence that came after the last wait is stale
	}
	return j.fail
}

// buildManifest computes (or retrieves) the job's transfer manifest: the
// per-chunk content hashes. For seeded (content-addressed) images the
// result is cached MM-side, so a warm relaunch skips the generate-and-hash
// pass over the whole image and opens at near-control-plane cost. It also
// decides whether the image is fresh: seeded, unpatched, and of a seed the
// MM has never launched, so no NM can hold any of its chunks. Unseeded
// content repeats every 256 job ids and is never fresh. Both caches are
// bounded LRU lists; a seed forgotten costs one image streamed whole.
func (mm *MM) buildManifest(j *liveJob) *manifestData {
	const cachedManifests, launchedSeeds = 16, 256
	frag, spec := mm.cfg.FragBytes, &j.spec
	if spec.ImageSeed != 0 {
		mm.mu.Lock()
		d, hit := lruGet(&mm.manifests, func(d *manifestData) bool {
			return d.seed == spec.ImageSeed && d.bytes == spec.BinaryBytes && maps.Equal(d.patch, spec.ImagePatch)
		})
		_, launched := lruGet(&mm.seeds, func(s uint64) bool { return s == spec.ImageSeed })
		if !launched {
			mm.seeds = append(mm.seeds[max(0, len(mm.seeds)-launchedSeeds+1):], spec.ImageSeed)
		}
		j.fresh = !launched && len(spec.ImagePatch) == 0
		mm.mu.Unlock()
		if hit {
			return d
		}
	}
	d := &manifestData{seed: spec.ImageSeed, bytes: spec.BinaryBytes, patch: maps.Clone(spec.ImagePatch),
		hashes: make([]uint64, j.frags)}
	// Chunks are independent (generate + hash each), so the pass fans out
	// over a small worker pool.
	parallelChunks(j.frags, func(i int) {
		size := chunkSizeFor(spec, frag, i)
		p := grabFrame(size)
		data := (*p)[fragRoom:]
		fillChunkInto(spec, j.id, i, data)
		d.hashes[i] = chunkcache.Hash64(data)
		releaseFrame(p)
	})
	// Every chunk but the last is frag bytes long.
	d.total = int64(j.frags-1)*int64(frag) + int64(chunkSizeFor(spec, frag, j.frags-1))
	if spec.ImageSeed != 0 {
		mm.mu.Lock()
		mm.manifests = append(mm.manifests[max(0, len(mm.manifests)-cachedManifests+1):], d)
		mm.mu.Unlock()
	}
	return d
}

// lruGet finds the first element of the LRU list *s that match accepts
// and moves it to the end, the most recently used place; a list is
// appended to there, and cut from the front to its bound.
func lruGet[T any](s *[]T, match func(T) bool) (v T, ok bool) {
	if i := slices.IndexFunc(*s, match); i >= 0 {
		v, ok = (*s)[i], true
		*s = append(slices.Delete(*s, i, i+1), v)
	}
	return v, ok
}

// chunkSizeFor is the byte length of chunk i under the given chunking —
// the floor of 1 keeps zero-byte jobs streaming one sentinel chunk.
func chunkSizeFor(spec *JobSpec, frag, i int) int {
	return max(1, min(frag, spec.BinaryBytes-i*frag))
}

// fillChunkInto generates chunk i's bytes: seeded tile content for
// content-addressed images (stable across jobs, so caches hit on
// relaunch), the legacy job-keyed ramp otherwise.
func fillChunkInto(spec *JobSpec, job, i int, b []byte) {
	if spec.ImageSeed != 0 {
		seededFragInto(b, chunkSeed(spec, i), i)
	} else {
		fragPatternInto(b, job, i)
	}
}

// manifestStripe opens one streaming epoch of a stripe's delta path:
// send each direct child of the stripe's tree the manifest with its own
// subtree — the multicast that installs the tree on its way down — wait
// for each child's folded HAVE ledger (which credits the child with its
// stripe-local prefix), and derive the stripe's send list (restricted to
// the chunks the round-robin interleave assigns this stripe). The round
// runs once per epoch; after a replan it runs again under the new one,
// and the survivors' ledgers re-derive what is still missing from their
// actual splice and cache state. A fresh image's first epoch does not
// wait: its send list is the whole stripe, the stream follows the
// manifests down the same links at once, and the HAVEs carry only credit.
func (mm *MM) manifestStripe(j *liveJob, ss *stripeState) error {
	j.mu.Lock()
	kids := slices.Clone(ss.kids)
	tree, epoch, fresh, k := ss.tree, j.epoch, j.fresh, len(j.stripes)
	j.mu.Unlock()

	// Relay links are shared across jobs, so per-conn byte counters cannot
	// be attributed to one job: bill what each send wrote. A failed write
	// fails the job, which the wait returns at once.
	fanOut(len(kids), func(c int) {
		m := &Manifest{Job: j.id, Epoch: epoch, Stripe: ss.id, Stripes: k, ChunkBytes: mm.cfg.FragBytes,
			TotalBytes: j.man.total, Hashes: j.man.hashes, Tree: tree.below(kids[c].pos)}
		n, err := kids[c].link.c.send(Message{Manifest: m})
		j.sent(n, err, kids[c].link.node, "manifest of stripe", ss.id)
	})
	// The rewire that opened the epoch started the kids' records over. A
	// fresh epoch owes nothing here, so the wait only returns a failure.
	err := j.await(ss, "chunk ledger (HAVE) unreported by nodes", time.Now().Add(mm.cfg.AckTimeout), func(names *[]string) int {
		n := 0
		for _, kid := range ss.kids {
			if kid.have == nil && !fresh {
				n++
				nameOwing(names, kid.link.node)
			}
		}
		return n
	})
	if err != nil {
		return err
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	// Only this stripe's chunks (i ≡ stripe mod k) are derived here: the
	// other stripes run their own rounds over their own trees.
	ss.sendList = ss.sendList[:0]
	for i := ss.id; i < j.frags; i += k {
		missing := false
		for _, kid := range kids {
			if !fresh && maskGet(kid.have, i) {
				j.bytesSaved += int64(chunkSizeFor(&j.spec, mm.cfg.FragBytes, i))
			} else {
				missing = true
			}
		}
		if missing {
			ss.sendList = append(ss.sendList, i)
		}
	}
	j.chunksSent += len(ss.sendList)
	return nil
}

// streamStripe pushes the stripe's current send list (the union of its
// missing chunks, ascending) down the stripe's tree, writing each chunk
// only to the subtrees whose HAVE ledger lacks it, and waits for the
// stripe's window to drain. It runs once per epoch, right after the
// manifest round: a stream a death interrupts is not resumed, its
// stripe is replanned, and the next epoch's HAVE ledgers say where the
// new stream starts.
func (mm *MM) streamStripe(j *liveJob, ss *stripeState) error {
	// windowSlots is the flow-control window depth per tree hop, the live
	// analogue of the simulator's multi-buffering slots.
	const windowSlots = 4
	mm.record(j, journal.Event{Type: journal.JobStreaming})
	j.mu.Lock()
	kids := slices.Clone(ss.kids)
	list := append([]int(nil), ss.sendList...)
	depth := ss.tree.depth
	k, fresh := len(j.stripes), j.fresh
	j.mu.Unlock()

	// The window is end-to-end (the credit the MM sees is the minimum over
	// whole subtrees), so its bandwidth-delay product spans every
	// store-and-forward hop down plus the ack aggregation back up. Scale
	// the configured per-hop depth by the tree depth or a deep tree would
	// be credit-starved: with windowSlots in flight over a depth-d relay
	// chain, d of them are resident in the pipe before the first cumulative
	// ack can even form. Cumulative acks advance through cached spans
	// without wire traffic, so pacing by the send list position is exact.
	// All credit arithmetic is stripe-local (chunk i is the stripe's i/k-th).
	// The window is the only bound on unacknowledged data: a sent chunk
	// is regenerated on resend, so beyond it the bytes in flight are
	// socket buffers, and send blocks when those are full.
	window := windowSlots * depth
	frag := mm.cfg.FragBytes
	for pos := 0; pos < len(list); pos++ {
		i := list[pos]
		if pos >= window {
			if err := j.awaitCredit(ss, list[pos-window]/k+1, time.Now().Add(mm.cfg.AckTimeout)); err != nil {
				return err
			}
		}
		// One encoding of the chunk goes to every child whose subtree
		// lacks it, to all of them at once: in a fresh epoch, to every
		// child, as its HAVE may be arriving.
		f := newFrag(chunkSizeFor(&j.spec, frag, i))
		f.Job, f.Index, f.Stripe, f.Last = j.id, i, ss.id, i == j.frags-1
		fillChunkInto(&j.spec, j.id, i, f.Data)
		frame := f.encode()
		fanOut(len(kids), func(c int) {
			if fresh || !maskGet(kids[c].have, i) {
				n, err := kids[c].link.c.sendFrame(frame)
				j.sent(n, err, kids[c].link.node, "fragment", i)
			}
		})
		f.release()
		j.mu.Lock()
		ss.streamAt = max(ss.streamAt, i/k+1)
		j.winPeak = max(j.winPeak, j.windowUsedLocked())
		err := j.fail // a failed write's, or a sibling stripe's
		j.mu.Unlock()
		if err != nil {
			return err
		}
	}
	// Drain: wait until every subtree acknowledged every fragment of this
	// stripe — on a fully warm launch (empty send list) the HAVE ledgers
	// already credited every subtree to the end, with no payload and no
	// ack on the wire. One AckTimeout, started when the last fragment
	// left, covers the whole tail — the deadline is not restarted on partial
	// progress, so a stalled node cannot stack the per-fragment timeout on
	// top of the final wait.
	return j.awaitCredit(ss, stripeChunks(j.frags, ss.id, k), time.Now().Add(mm.cfg.AckTimeout))
}

// diagnose turns a transfer failure into a verdict about which job
// nodes are actually dead. Connection-level evidence (nodeDown: the MM's
// own link closed or a write on it failed, or a parent's PeerDown, which
// the relay layer already retried) is taken at its word, and nobody is
// probed; a node that dies later is named by its own evidence in its own
// round. Only a failure nothing names — a stall, a one-way partition —
// sends every job node a directed isolation probe over its control link,
// as the simulator FaultDetector's per-node probe phase does; nodes that
// neither answer within ProbeGrace nor accept the probe write are dead.
func (mm *MM) diagnose(j *liveJob) map[int]string {
	j.mu.Lock()
	down := j.peerDown
	j.peerDown, j.fail = nil, nil // consumed; recovery starts from a clean slate
	suspects := slices.Clone(j.nodes)
	j.mu.Unlock()
	if len(down) > 0 {
		return down
	}
	return mm.probeNodes(suspects, mm.cfg.ProbeGrace)
}

// probeNodes pings each link directly and waits for the pongs: until
// every probed node is accounted for, or grace at the latest. Returns
// the nodes that failed the probe, with the reason.
func (mm *MM) probeNodes(links []*nmLink, grace time.Duration) map[int]string {
	dead := make(map[int]string)
	if len(links) == 0 {
		return dead
	}
	pr := &probeRound{owed: make(map[int]bool), done: make(chan struct{})}
	for _, l := range links {
		pr.owed[l.node] = true
	}
	mm.mu.Lock()
	// Probe sequences live far above heartbeat sequences so the shared
	// Pong path can route them unambiguously.
	mm.probeSeq++
	seq := mm.probeSeq | 1<<40
	mm.probes[seq] = pr
	mm.mu.Unlock()
	fanOut(len(links), func(i int) {
		if _, err := links[i].c.send(Message{Ping: &Ping{Seq: seq}}); err != nil {
			mm.mu.Lock()
			dead[links[i].node] = fmt.Sprintf("probe write failed: %v", err)
			pr.settle(links[i].node)
			mm.mu.Unlock()
		}
	})
	deadline := time.NewTimer(grace)
	select {
	case <-pr.done:
	case <-deadline.C:
	}
	deadline.Stop()
	mm.mu.Lock()
	for node := range pr.owed {
		dead[node] = fmt.Sprintf("no answer to isolation probe within %v", grace)
	}
	delete(mm.probes, seq)
	mm.mu.Unlock()
	return dead
}

// recoverStripes excludes the dead nodes from the job and rewires every
// stripe over the survivors under a bumped epoch, drained or not,
// whether the dead node was interior or a leaf in it. Each stripe's next
// run opens with its manifest round, which installs the new tree, and
// the survivors' HAVE ledgers give both what is still missing and each
// subtree's credit to resume from — everything, for a stripe that had
// drained. So stripe 0's tree at launch holds exactly the survivors.
func (mm *MM) recoverStripes(j *liveJob, dead map[int]string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var survivors []*nmLink
	for _, l := range j.nodes {
		if _, gone := dead[l.node]; gone {
			j.failedNodes = append(j.failedNodes, l.node)
		} else {
			survivors = append(survivors, l)
		}
	}
	if len(survivors) == 0 {
		failed := append([]int(nil), j.failedNodes...)
		sort.Ints(failed)
		return fmt.Errorf("livenet: job %d: all nodes failed (%v)", j.id, failed)
	}
	j.nodes, j.fresh = survivors, false
	// Reports of these deaths that raced the diagnosis are spent: another
	// parent's PeerDown, or a second stripe's, must not start a round of
	// its own.
	if down, ok := j.fail.(downError); ok && dead[down.node] != "" {
		j.fail = nil
	}
	for node := range dead {
		delete(j.peerDown, node)
	}
	// The stripe count stays: an NM drops a manifest whose count changed.
	mm.rewireTree(j, len(j.stripes))
	return nil
}

// await is the job's one wait, the live COMPARE-AND-WRITE: block on
// j.cond until owing — evaluated under j.mu — counts no node, the job
// has failed (that failure is returned as is), or the deadline passes
// with the phase's timeout error naming the job, what was awaited and
// whom it is still owed by. A wake only counts: owing appends the
// owing nodes' names to names (see nameOwing) for the deadline error
// alone, so a wake allocates nothing however many nodes still owe. A
// transfer wait belongs to a stripe and names it; the termination wait
// (ss nil) belongs to the whole job. owing may fail the job itself.
func (j *liveJob) await(ss *stripeState, what string, deadline time.Time, owing func(names *[]string) int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var alarm *time.Timer
	for {
		n := owing(nil)
		if j.fail != nil {
			return j.fail
		}
		if n == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			var names []string
			owing(&names)
			if ss == nil {
				return fmt.Errorf("%w: job %d: %s %s", ErrTermTimeout, j.id, what, strings.Join(names, ", "))
			}
			return fmt.Errorf("%w: job %d stripe %d: %s %s", ErrTransferTimeout, j.id, ss.id, what, strings.Join(names, ", "))
		}
		// Wake periodically to enforce the deadline even if no answer comes:
		// one timer per wait, re-armed at each wake.
		if alarm == nil {
			alarm = time.AfterFunc(100*time.Millisecond, j.cond.Broadcast)
			defer alarm.Stop()
		}
		alarm.Reset(100 * time.Millisecond)
		j.cond.Wait()
	}
}

// awaitCredit blocks until every direct child of the stripe's tree has
// acknowledged `need` stripe-local fragments on behalf of its whole
// subtree (i.e. the stripe's window has room for the next fragment, or —
// with need = the stripe's total — the stripe has drained). On timeout
// the error names each node still owing credit, with its subtree and the
// credit it has delivered so far.
func (j *liveJob) awaitCredit(ss *stripeState, need int, deadline time.Time) error {
	if need <= 0 {
		return nil
	}
	return j.await(ss, "flow control stalled awaiting credit from", deadline, func(names *[]string) int {
		n := 0
		for _, kid := range ss.kids {
			switch {
			case kid.acked >= need:
				continue
			case names == nil:
			case len(kid.subtree) > 1:
				*names = append(*names, fmt.Sprintf("node %d (subtree %v, acked %d of %d)", kid.link.node, kid.subtree, kid.acked, need))
			default:
				*names = append(*names, fmt.Sprintf("node %d (acked %d of %d)", kid.link.node, kid.acked, need))
			}
			n++
		}
		return n
	})
}

// sent bills the job the n bytes an MM write of frame index to node put
// on the wire and reports the node down if the write failed. It returns
// the job's failure, so a stripe also stops on a sibling's: a write to a
// live member that fails always leaves one.
func (j *liveJob) sent(n int, err error, node int, frame string, index int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sendBytes += int64(n)
	if err != nil {
		j.nodeDown(node, fmt.Sprintf("%s %d write: %v", frame, index, err))
	}
	return j.fail
}

// nameOwing appends node to the names an await's owing builds for its
// deadline error; a wake passes nil and nothing is built.
func nameOwing(names *[]string, node int) {
	if names != nil {
		*names = append(*names, strconv.Itoa(node))
	}
}

// abort tells every node of a failed job to drop its transfer state
// (including any half-spooled binary; best effort) — the per-node cleanup
// of a clean abort. The relay links stay cached for the next job.
func (mm *MM) abort(j *liveJob, reason error) {
	msg := Message{Abort: &Abort{Job: j.id, Reason: reason.Error()}}
	j.mu.Lock()
	nodes := append([]*nmLink(nil), j.nodes...)
	j.mu.Unlock()
	fanOut(len(nodes), func(i int) { nodes[i].c.send(msg) })
}
