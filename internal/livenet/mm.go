package livenet

import (
	"errors"
	"fmt"
	"math"
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

// downError is liveness evidence: a specific node's link failed or a
// parent reported it unreachable. Recovery treats the named node as a
// failure candidate without waiting for a window stall.
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
	// pong before declaring it dead during transfer recovery (default
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
	// uplinks per node and a slow or dead relay only throttles the
	// stripes it is interior in. Clamped per job to the chunk count and
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
	// RejoinProbation is how many heartbeat-clean periods a rejoining
	// NM must survive before it is eligible for placement again
	// (default 2). It only gates placement while a heartbeat detector
	// is running: with no detector there is nobody to vouch, so rejoin
	// restores eligibility immediately.
	RejoinProbation int
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
		c.ProbeGrace = c.AckTimeout / 4
		if c.ProbeGrace > time.Second {
			c.ProbeGrace = time.Second
		}
		if c.ProbeGrace < 50*time.Millisecond {
			c.ProbeGrace = 50 * time.Millisecond
		}
	}
	if c.Fanout == 0 {
		c.Fanout = 2
	}
	if c.Stripes < 1 {
		c.Stripes = 1
	}
	if c.Stripes > 255 {
		c.Stripes = 255 // the frame headers carry the stripe in one byte
	}
	if c.GangQuantum > 0 && c.MPL == 0 {
		c.MPL = 2
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 8
	}
	if c.MaxConcurrent < 1 {
		c.MaxConcurrent = 1
	}
	if c.RejoinProbation == 0 {
		c.RejoinProbation = 2
	}
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
	jobs     map[int]*liveJob
	nextJob  int
	closed   bool
	// clients tracks in-flight submission connections so Kill can sever
	// them: Close leaves them to drain naturally (serveClient closes
	// each when its job finishes), but a simulated process death must
	// cut mid-job submitters loose immediately.
	clients map[*conn]struct{}

	// Multi-tenant admission (see admit.go): jobs wait in admit until the
	// policy grants them one of MaxConcurrent streaming slots; its cond
	// broadcasts on every slot/row release. place is the indexed
	// placement engine (internal/place): it tracks per-node load,
	// declared capacity, committed usage, and eligibility, and answers
	// placement decisions in O(log n) instead of a cluster scan — all
	// mutated under mu. All guarded by mu.
	admit    admitQueue
	place    *place.Engine
	placePol place.Policy

	// ctl is the cluster-wide control tree (heartbeat + strobe fast
	// path), laid over the registered, unconvicted members. Guarded by mu.
	ctl mmCtl

	// jnl is the durable event log (nil without MMConfig.JournalDir);
	// recovered holds the queued-but-unfinished jobs replayed from it
	// at startup, resubmitted by recoverLoop as NMs re-register.
	// recovered entries are guarded by mu once the loop starts.
	jnl       *journal.Journal
	recovered []*RecoveredJob

	// manifests caches the content-derived part of transfer manifests
	// for seeded (content-addressed) images, keyed by content identity,
	// so a warm relaunch skips the generate-and-hash pass over the whole
	// image. Guarded by mu.
	manifests map[manifestKey]*manifestData

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

	// rowCount tracks gang-row occupancy (the strobe loop skips empty
	// rows); rowFree is the bitset freelist of unoccupied rows pickRow
	// pops lowest-first.
	rowCount []int
	rowFree  []uint64

	wg sync.WaitGroup
}

// probeRound collects pongs for one directed isolation-probe sweep: owed
// is the set of probed nodes still to be heard from, and done closes
// when it empties — the round need not run out its grace.
type probeRound struct {
	mu   sync.Mutex
	owed map[int]bool
	done chan struct{}
}

// settle takes one probed node off the round's books: it answered, or
// (from the prober) it could not even be written to. Pongs from nodes
// the round did not probe, and duplicates, count for nothing.
func (pr *probeRound) settle(node int) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if !pr.owed[node] {
		return
	}
	delete(pr.owed, node)
	if len(pr.owed) == 0 {
		close(pr.done)
	}
}

// manifestData is the content-derived part of a transfer manifest. For
// seeded images it is cacheable across jobs: the same (seed, patch,
// size, chunking) always produces the same chunks.
type manifestData struct {
	seed   uint64
	patch  map[int]uint64
	hashes []uint64
	total  int64
}

// manifestKey is the cache key for manifestData. The patch map is folded
// to a fingerprint for hashability; the stored patch copy breaks the
// (astronomically unlikely) fingerprint collision on lookup.
type manifestKey struct {
	seed    uint64
	patchFP uint64
	bytes   int
	frag    int
}

func patchFingerprint(p map[int]uint64) uint64 {
	h := uint64(len(p))
	keys := make([]int, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		h = rng.Mix64(h ^ uint64(k)*rng.GoldenGamma)
		h = rng.Mix64(h ^ p[k])
	}
	return h
}

func patchEqual(a, b map[int]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
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
	// bulk plane stripes this job across owns its own epoch, ack ledger,
	// HAVE ledgers and stream cursor (one entry, stripe 0, for the
	// legacy single-tree plan). stripeReplans counts the replan rounds
	// charged to each stripe — a dead leaf is pruned from a stripe
	// without bumping its epoch, so an undisturbed stripe's count stays 0
	// through another stripe's recovery.
	stripes       []*stripeState
	stripeReplans []int

	cond *sync.Cond
	fail error

	// Delta-transfer state shared by all stripes. man is the job's
	// manifest; chunksSent counts chunks streamed across all stripes and
	// epochs (replayed chunks count again); bytesSaved is the payload the
	// HAVE ledgers let the MM keep off the wire, summed per link.
	man        *manifestData
	chunksSent int
	bytesSaved int64

	// peerDown accumulates NM reports of unreachable relay children
	// (failure-detector evidence consumed by diagnose).
	peerDown map[int]string

	// failedNodes, replans, recovery, retries are the job's fault
	// history for the completion report.
	failedNodes []int
	replans     int
	recovery    time.Duration
	retries     int

	// phase is the job's position in the admission state machine;
	// winPeak is the largest unacknowledged-chunk count observed across
	// all stripes, for the job-table snapshot and the report. sendBytes
	// counts the MM's own distribution egress for this job exactly (the
	// frag and manifest frames it wrote), so concurrent jobs sharing a link
	// never bill each other.
	phase     jobPhase
	winPeak   int
	sendBytes int64

	// termed is the set of nodes that reported termination.
	termed map[int]bool
}

// stripeState is one stripe's transfer state: its spanning tree (laid
// over a rotation of the job's placement order), tree epoch, one record
// per direct child and the stream cursor. All index arithmetic below the
// sendList is stripe-local (chunk s+j·k is the stripe's j-th), so each
// stripe's window and replay logic is the single-tree logic verbatim.
// Guarded by the owning job's mu.
type stripeState struct {
	id int
	// tree is the stripe's forwarding tree; tree.order[q] is the node at
	// position q. It is laid again on a replan of THIS stripe only —
	// pruning a dead leaf from another stripe shrinks j.nodes but must not
	// shift this stripe's positions mid-epoch — and never edited in place.
	tree laidTree
	kids []*stripeKid // the MM's direct children in this tree
	// epoch is the stripe tree generation: bumped per stripe replan and,
	// past every stripe's, per re-placement, so it only ever grows.
	epoch    int
	sendList []int // ascending global chunk indices this stripe still streams
	// streamPos indexes sendList (next entry to stream); streamAt is the
	// stripe-local index just past the last chunk streamed this epoch.
	streamPos    int
	streamAt     int
	needManifest bool // run a manifest round before streaming (fresh epoch)
	done         bool // stripe fully streamed and drained
}

// stripeKid is one direct child of the MM in a stripe's tree, with every
// answer it has given this epoch on behalf of its subtree. An answer
// naming a node that has no record here is dropped.
type stripeKid struct {
	treeKid
	acked int // cumulative stripe-local chunks acknowledged
	// have is the epoch's first folded HAVE ledger, nil until reported:
	// written before the manifest round's wait returns and never after, so
	// the stream reads it without j.mu. It decides what the subtree is
	// sent; a later ledger of the epoch only adds credit.
	have []uint64
	held []heldChunk // link budget of chunks the ack has not covered yet
}

// kid returns the record of the direct child that is node, or nil.
// Caller holds j.mu.
func (ss *stripeState) kid(node int) *stripeKid {
	for _, kid := range ss.kids {
		if kid.link.node == node {
			return kid
		}
	}
	return nil
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
		cfg:       cfg,
		ln:        ln,
		members:   make(map[int]*member),
		jobs:      make(map[int]*liveJob),
		nextJob:   cfg.JobBase,
		clients:   make(map[*conn]struct{}),
		manifests: make(map[manifestKey]*manifestData),
		probes:    make(map[int64]*probeRound),
		place:     place.NewEngine(64),
		placePol:  placePol,
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

// openJournal replays the write-ahead log under dir (if any), rebuilds
// the job table's unfinished tail, and opens the journal for appending.
// Jobs that were already placed when the previous MM died cannot be
// resumed — their relay topology and window state died with it — so
// they are failed cleanly (and durably, so the next restart forgets
// them too). Jobs that were admitted but never placed lost nothing but
// queue position: they are queued for resubmission.
func (mm *MM) openJournal(dir string) error {
	type jobRec struct {
		spec     []byte
		inflight bool
	}
	recs := make(map[int]*jobRec)
	var order []int
	maxID := 0
	err := journal.Replay(dir, func(ev journal.Event) error {
		if ev.Job > maxID {
			maxID = ev.Job
		}
		switch ev.Type {
		case journal.JobAdmitted:
			if recs[ev.Job] == nil {
				recs[ev.Job] = &jobRec{spec: ev.Data}
				order = append(order, ev.Job)
			}
		case journal.JobPlanned, journal.JobEpoch, journal.JobManifest, journal.JobLaunched:
			if r := recs[ev.Job]; r != nil {
				r.inflight = true
			}
		case journal.JobDone, journal.JobFailed:
			delete(recs, ev.Job)
		}
		return nil
	})
	if err != nil {
		return err
	}
	jnl, err := journal.Open(dir)
	if err != nil {
		return err
	}
	mm.jnl = jnl
	if maxID > mm.nextJob {
		mm.nextJob = maxID
	}
	for _, id := range order {
		r := recs[id]
		if r == nil {
			continue // finished before the crash
		}
		if r.inflight {
			jnl.Append(journal.Event{Type: journal.JobFailed, Job: id,
				Data: []byte("interrupted by MM restart")})
			continue
		}
		spec, err := decodeSpec(r.spec)
		if err != nil {
			continue // torn spec payload: nothing actionable survives
		}
		mm.recovered = append(mm.recovered, &RecoveredJob{ID: id, Spec: spec})
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
		for {
			mm.mu.Lock()
			enough := len(mm.registered()) >= rj.Spec.Nodes
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
			if enough {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		// Retire the old ID durably before the rerun journals its own
		// admission — otherwise every future restart would re-recover
		// (and re-run) this job under its original ID.
		mm.jlog(journal.JobFailed, rj.ID, 0, []byte("resubmitted after restart"))
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

// jlog appends one event to the journal; a no-op without one. Callers
// may hold mm.mu: the journal has its own lock and never takes mm.mu.
func (mm *MM) jlog(t journal.EventType, job, node int, data []byte) {
	if mm.jnl == nil {
		return
	}
	mm.jnl.Append(journal.Event{Type: t, Job: job, Node: node, Data: data})
}

// maybeRotateJournal condenses the log once the active segment outgrows
// its limit: the snapshot is the current membership plus every
// unfinished job, written to a fresh segment that atomically replaces
// the history. Holding mm.mu across the rotation keeps the snapshot and
// the segment swap consistent with concurrent appends.
func (mm *MM) maybeRotateJournal() {
	if mm.jnl == nil || !mm.jnl.NeedsRotation() {
		return
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	var snap []journal.Event
	for _, id := range mm.registered() {
		snap = append(snap, journal.Event{Type: journal.NodeJoin, Node: id})
	}
	for id, m := range mm.members {
		if m.convicted {
			snap = append(snap, journal.Event{Type: journal.NodeDead, Node: id})
		}
	}
	for _, j := range mm.admit.q {
		snap = append(snap, journal.Event{Type: journal.JobAdmitted, Job: j.id, Data: encodeSpec(&j.spec)})
	}
	for id, j := range mm.jobs {
		snap = append(snap,
			journal.Event{Type: journal.JobAdmitted, Job: id, Data: encodeSpec(&j.spec)},
			journal.Event{Type: journal.JobPlanned, Job: id})
	}
	mm.jnl.Rotate(snap)
}

// JournalPath returns the journal directory ("" without one).
func (mm *MM) JournalPath() string {
	if mm.jnl == nil {
		return ""
	}
	return mm.jnl.Dir()
}

// Closed reports whether the MM has shut down — how a federation tells
// a stale leaf handle from a live one after a leaf restart.
func (mm *MM) Closed() bool {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.closed
}

// Addr returns the listening address (for NMs and clients to dial).
func (mm *MM) Addr() string { return mm.ln.Addr().String() }

// Completed returns the number of jobs that finished successfully.
func (mm *MM) Completed() int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.completed
}

// Strobes returns the number of gang context-switch multicasts issued.
func (mm *MM) Strobes() int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.strobes
}

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
// probation; its chunk cache makes it a warm relay immediately.
func (mm *MM) serveNM(c *conn, reg *Register) {
	link := &nmLink{node: reg.Node, cpus: reg.CPUs, addr: reg.Addr, c: c,
		budget: newLinkBudget(linkBudgetBytes)}
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
	defer func() {
		mm.mu.Lock()
		mm.disconnect(link)
		mm.mu.Unlock()
		c.close()
	}()
	if reg.Rejoin {
		mm.jlog(journal.NodeRejoin, 0, reg.Node, nil)
		if _, err := c.send(Message{RejoinAck: &RejoinAck{Probation: prob}}); err != nil {
			return
		}
	} else {
		mm.jlog(journal.NodeJoin, 0, reg.Node, nil)
	}
	for {
		m, err := c.recv()
		if err != nil {
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
		case m.StrobeAck != nil:
			mm.onStrobeAck(m.StrobeAck)
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
// j.mu, apply, wake every wait. An error from apply fails the job unless
// an earlier failure already has — first failure wins, because a failure
// cascades (a rejected fragment forces every later one out of order) and
// the later reports would mask the site of the first — or the transfer is
// already over: a launched job's image is resident everywhere it runs, so
// a straggling transfer complaint has nothing left to fail.
func (mm *MM) onTransferEvent(job int, apply func(j *liveJob) error) {
	j := mm.jobByID(job)
	if j == nil {
		return
	}
	j.mu.Lock()
	if err := apply(j); err != nil && j.fail == nil && j.phase < phaseLaunched {
		j.fail = err
	}
	j.cond.Broadcast()
	j.mu.Unlock()
}

func (mm *MM) onFragAck(a *FragAck) {
	mm.onTransferEvent(a.Job, func(j *liveJob) error {
		if !a.OK {
			// Nacks carry the global chunk index, so the report names the
			// corruption site unambiguously.
			return rejectError{node: a.Node, index: a.Index}
		}
		// Credit from an older tree epoch vouched for a different subtree
		// shape; only current-epoch credit moves the window. Cumulative
		// acks are stripe-local counts.
		if ss := j.stripeByID(a.Stripe); ss != nil && a.Epoch == ss.epoch {
			if kid := ss.kid(a.Node); kid != nil {
				kid.credit(a.Index + 1)
			}
		}
		return nil
	})
}

// onHave records a direct child's folded subtree HAVE ledger for the
// stripe's current epoch, and credits the kid with the ledger's
// stripe-local prefix: every chunk up to the first gap is in place all
// over the subtree, which is exactly what a cumulative ack would say.
func (mm *MM) onHave(h *Have) {
	mm.onTransferEvent(h.Job, func(j *liveJob) error {
		ss := j.stripeByID(h.Stripe)
		if ss == nil || h.Epoch != ss.epoch {
			return nil
		}
		if kid := ss.kid(h.Node); kid != nil {
			if kid.have == nil {
				// Never nil once reported, even for an empty ledger.
				kid.have = append(make([]uint64, 0, len(h.Bits)), h.Bits...)
			}
			kid.credit(stripePrefix(h.Bits, j.frags, ss.id, len(j.stripes), kid.acked))
		}
		return nil
	})
}

// onPeerDown records an NM's report that a relay child is unreachable —
// failure-detector evidence that wakes the transfer immediately instead
// of letting it burn the whole window timeout.
func (mm *MM) onPeerDown(d *PeerDown) {
	mm.onTransferEvent(d.Job, func(j *liveJob) error {
		if slices.Contains(j.failedNodes, d.Node) {
			return nil // a late report of a death recovery already handled
		}
		if j.peerDown == nil {
			j.peerDown = make(map[int]string)
		}
		if _, seen := j.peerDown[d.Node]; !seen {
			j.peerDown[d.Node] = fmt.Sprintf("parent %d could not reach it: %s", d.From, d.Err)
		}
		return downError{node: d.Node, cause: j.peerDown[d.Node]}
	})
}

// onTerm records a node's termination report.
func (mm *MM) onTerm(t *Term) {
	mm.onTransferEvent(t.Job, func(j *liveJob) error {
		j.termed[t.Node] = true
		return nil
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
func (mm *MM) RunJob(spec JobSpec) (Report, error) {
	if spec.Nodes <= 0 || spec.PEsPerNode <= 0 {
		return Report{}, fmt.Errorf("livenet: bad job geometry %dx%d", spec.Nodes, spec.PEsPerNode)
	}
	if len(spec.Place) > 0 && len(spec.Place) != spec.Nodes {
		return Report{}, fmt.Errorf("livenet: Place names %d nodes, job wants %d", len(spec.Place), spec.Nodes)
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
	frags := (spec.BinaryBytes + mm.cfg.FragBytes - 1) / mm.cfg.FragBytes
	if frags == 0 {
		frags = 1
	}
	j := &liveJob{
		id:     mm.nextJob,
		spec:   spec,
		row:    -1,
		frags:  frags,
		phase:  phaseAdmitted,
		qStart: time.Now(),
		termed: make(map[int]bool, spec.Nodes),
	}
	j.cond = sync.NewCond(&j.mu)
	mm.jlog(journal.JobAdmitted, j.id, 0, encodeSpec(&spec))
	if err := mm.awaitAdmission(j); err != nil {
		mm.mu.Unlock()
		// A queued job bumped by shutdown is not failed — it is exactly
		// what a restarted MM resumes from the journal. Only real
		// admission failures are recorded durably.
		if !errors.Is(err, ErrMMClosed) {
			mm.jlog(journal.JobFailed, j.id, 0, []byte(err.Error()))
		}
		return Report{}, err
	}
	j.mu.Lock()
	j.queued = time.Since(j.qStart)
	j.mu.Unlock()
	nodes, err := mm.placeJob(&spec, nil)
	if err != nil {
		mm.releaseRow(j.row)
		mm.admit.release()
		mm.mu.Unlock()
		mm.jlog(journal.JobFailed, j.id, 0, []byte(err.Error()))
		return Report{}, err
	}
	j.nodes = nodes
	for _, l := range nodes {
		j.placed = append(j.placed, l.node)
		mm.place.Commit(l.node, spec.Demand)
	}
	mm.rewireTree(j)
	mm.jobs[j.id] = j
	mm.launched++
	mm.mu.Unlock()
	mm.jlog(journal.JobPlanned, j.id, 0, nil)
	defer func() {
		mm.mu.Lock()
		delete(mm.jobs, j.id)
		mm.releaseRow(j.row)
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
	// transfer state and the failure is journaled. Whatever a job dies of
	// while the MM shuts down under it, it died of the shutdown.
	fail := func(err error) (Report, error) {
		if mm.Closed() && !errors.Is(err, ErrMMClosed) {
			err = fmt.Errorf("%w: job %d: %v", ErrMMClosed, j.id, err)
		}
		j.setPhase(phaseFailed)
		mm.abort(j, err)
		mm.jlog(journal.JobFailed, j.id, 0, []byte(err.Error()))
		return Report{}, err
	}
	if err != nil {
		return fail(err)
	}
	send := time.Since(start)

	// Launch: tell each surviving NM its ranks (re-ranked densely over
	// the survivor set if recovery shrank the job). From here on the
	// transfer's late answers are inert: a failure one of them left behind
	// after the transfer's last wait is stale — only a shutdown still
	// counts.
	j.mu.Lock()
	j.phase = phaseLaunched
	if !errors.Is(j.fail, ErrMMClosed) {
		j.fail = nil
	}
	nodes = append([]*nmLink(nil), j.nodes...)
	j.mu.Unlock()
	// A Launch that cannot be written is a node death like any other: the
	// node joins the job's failed set, its ranks do not run, and the
	// launch stands on the nodes that took theirs. Those owe a termination
	// report: wait lists them.
	wait := make([]int, 0, len(nodes))
	var lost error
	for i, link := range nodes {
		ranks := make([]int, 0, spec.PEsPerNode)
		for r := 0; r < spec.PEsPerNode; r++ {
			ranks = append(ranks, i*spec.PEsPerNode+r)
		}
		msg := Message{Launch: &Launch{Job: j.id, Program: spec.Program, Ranks: ranks,
			Row: j.row, Gang: mm.cfg.GangQuantum > 0}}
		if _, err := link.c.send(msg); err != nil {
			lost = fmt.Errorf("launch to node %d: %w", link.node, err)
			j.failedNodes = append(j.failedNodes, link.node)
			continue
		}
		wait = append(wait, link.node)
	}
	ran := len(wait)
	if ran == 0 {
		return fail(fmt.Errorf("livenet: job %d: launch phase: all nodes failed (%v), last: %w", j.id, j.failedNodes, lost))
	}
	mm.jlog(journal.JobLaunched, j.id, 0, nil)

	// Collect their termination reports. The termination deadline is its
	// own budget — the program's expected duration plus TermTimeout — and
	// is independent of the transfer-phase AckTimeout. Every report wakes
	// the wait, so a wake is kept cheap on a wide job: it walks only the
	// nodes still owing — the list shrinks in place.
	err = j.await(nil, "launched nodes never reported termination: missing",
		time.Now().Add(spec.Program.Duration+mm.cfg.TermTimeout), func(names *[]string) int {
			k := 0
			for _, node := range wait {
				if !j.termed[node] {
					wait[k] = node
					k++
					nameOwing(names, node)
				}
			}
			wait = wait[:k]
			return k
		})
	if err != nil {
		// A shutdown journals nothing: a launched-but-unfinished job is
		// already marked failed durably when the journal is replayed.
		if !errors.Is(err, ErrMMClosed) {
			mm.jlog(journal.JobFailed, j.id, 0, []byte(err.Error()))
		}
		return Report{}, err
	}
	total := time.Since(start)
	mm.mu.Lock()
	mm.completed++
	mm.mu.Unlock()
	failed := append([]int(nil), j.failedNodes...)
	sort.Ints(failed)
	timeline := fmt.Sprintf("send=%v execute=%v nodes=%d pes=%d fanout=%d",
		send, total-send, ran, ran*spec.PEsPerNode, mm.cfg.Fanout)
	if len(j.stripeReplans) > 1 {
		timeline += fmt.Sprintf(" stripes=%d", len(j.stripeReplans))
	}
	if j.queued > time.Millisecond {
		timeline += fmt.Sprintf(" queued=%v", j.queued.Round(time.Millisecond))
	}
	if j.bytesSaved > 0 {
		timeline += fmt.Sprintf(" delta: streamed %d/%d chunks, %d B served from caches",
			j.chunksSent, j.frags, j.bytesSaved)
	}
	if len(failed) > 0 {
		timeline += fmt.Sprintf(" failed=%v replans=%d recovery=%v", failed, j.replans, j.recovery)
	}
	j.mu.Lock()
	winPeak := j.winPeak
	j.mu.Unlock()
	j.setPhase(phaseDone)
	mm.jlog(journal.JobDone, j.id, 0, nil)
	return Report{
		JobID:         j.id,
		Send:          send,
		Execute:       total - send,
		Total:         total,
		SendBytes:     j.sendBytes,
		Failed:        failed,
		Replans:       j.replans,
		Recovery:      j.recovery,
		StripeReplans: append([]int(nil), j.stripeReplans...),
		Chunks:        j.frags,
		ChunksSent:    j.chunksSent,
		BytesSaved:    j.bytesSaved,
		Queued:        j.queued,
		Row:           j.row,
		WindowPeak:    winPeak,
		Timeline:      timeline,
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
	base := 25 * time.Millisecond << uint(attempt)
	if base > 500*time.Millisecond {
		base = 500 * time.Millisecond
	}
	jitter := time.Duration(rng.Mix64(uint64(job)<<20^uint64(attempt)) % uint64(base/2))
	return base + jitter
}

// rehome gives a failed job a fresh placement on the current
// membership, excluding every node that already failed it, and lays its
// trees afresh at a new epoch — the next transfer re-runs the manifest
// rounds from scratch, so surviving caches (and the images of nodes that
// served the failed attempt) turn the replay into a mostly-delta stream.
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
	nodes, err := mm.placeJob(&j.spec, bad)
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
	j.nodes = nodes
	j.fail = nil
	j.peerDown = nil
	mm.rewireTree(j)
	j.mu.Unlock()
	mm.jlog(journal.JobPlanned, j.id, 0, nil)
	return nil
}

// stripeCountFor is the job's stripe count: the configured count clamped
// to the chunk count (an extra stripe with nothing to carry is pure
// overhead) and the node count.
func (mm *MM) stripeCountFor(j *liveJob) int {
	k := mm.cfg.Stripes
	if k > j.frags {
		k = j.frags
	}
	if n := len(j.nodes); k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	return k
}

// rewireTree rebuilds the job's full striped forwarding plan over the
// current node set. Used at placement and re-placement (rehome);
// mid-transfer recovery rewires single stripes via rewireStripe instead.
// Every stripe opens at an epoch past any the job has used: a node that
// served a failed attempt still holds that attempt's relays, and only a
// newer epoch makes it install the new tree rather than take the
// manifest for a re-run of the old one. Caller must hold j.mu or have
// exclusive access to j.
func (mm *MM) rewireTree(j *liveJob) {
	k := mm.stripeCountFor(j)
	epoch := 0
	for _, ss := range j.stripes {
		epoch = max(epoch, ss.epoch+1)
	}
	j.stripes = j.stripes[:0]
	for s := 0; s < k; s++ {
		ss := &stripeState{id: s, epoch: epoch, needManifest: true}
		mm.rewireStripe(j, ss, k)
		j.stripes = append(j.stripes, ss)
	}
	if len(j.stripeReplans) != k {
		j.stripeReplans = make([]int, k)
	}
}

// rewireStripe lays one stripe's tree afresh over the job's current node
// set (stripe s takes the placement order rotated by s·n/k) and starts
// the stripe's records over for a fresh epoch: a new record per direct
// child, the stream cursor at zero. Caller must hold j.mu or have
// exclusive access to j.
func (mm *MM) rewireStripe(j *liveJob, ss *stripeState, k int) {
	for _, kid := range ss.kids {
		kid.release(math.MaxInt)
	}
	ss.tree = layTree(stripeOrder(j.nodes, ss.id, k), mm.cfg.Fanout)
	ss.kids = nil
	for _, tk := range ss.tree.kids {
		ss.kids = append(ss.kids, &stripeKid{treeKid: tk})
	}
	ss.sendList = ss.sendList[:0]
	ss.streamPos = 0
	ss.streamAt = 0
	ss.done = false
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
//     ledgers fold back up. The MM learns the set-union of missing
//     chunks in one O(depth) round with O(fanout) egress, and each
//     ledger's stripe-local prefix is its subtree's opening credit.
//  2. Stream: each missing chunk is generated once into a pooled buffer
//     and written only to the subtrees that miss it; NMs relay onward
//     (again selectively, by their children's ledgers) and aggregate
//     acks, so the MM's window check sees one cumulative credit per
//     subtree. A chunk goes out only after every subtree has
//     acknowledged the chunk a window behind it (the live analogue of
//     the COMPARE-AND-WRITE flow control over the remote receive
//     queues).
//  3. Recover (only on liveness failures): diagnose which nodes are
//     actually dead (accumulated PeerDown evidence plus directed
//     isolation probes over the control links), exclude them, and heal
//     each stripe by the cheapest sufficient means — a stripe the dead
//     node relayed for is rewired under a bumped epoch and re-runs its
//     manifest round, which installs the new tree (the survivors'
//     ledgers re-derive the remaining need, and the resume point, from
//     their actual splice and cache state); a stripe where it was only a
//     leaf is pruned in place (a ChildDead note to its tree parent) and
//     resumes streaming under the same epoch. Chunks are regenerated
//     deterministically, so the send log is the generator plus an index.
//     Content failures (hash rejections) are never retried.
//
// With MMConfig.Stripes > 1 the phases run per stripe and overlap:
// each stripe pipelines its own manifest round and stream in a
// dedicated goroutine, so stripe i is streaming chunks while stripe j
// still folds HAVEs, with the shared per-link budgets arbitrating the
// conns they cross.
func (mm *MM) transfer(j *liveJob) error {
	// maxReplans bounds the tree-replan recovery rounds one transfer may
	// attempt before giving up. Each round can exclude several failed
	// nodes at once.
	const maxReplans = 3
	// Whatever path exits the transfer, return every byte this job still
	// holds against the shared link budgets — a failed job must not leave
	// a budget leaked and starve its link peers.
	defer j.releaseAllHeld()
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
		dead := mm.diagnose(j, err)
		if len(dead) == 0 {
			return err // nothing provably dead: surface the original failure
		}
		rerr := mm.recoverStripes(j, dead)
		if rerr != nil {
			err = rerr // may itself be recoverable; loop diagnoses again
			j.recovery += time.Since(t0)
			continue
		}
		j.replans++
		j.recovery += time.Since(t0)
		mm.jlog(journal.JobEpoch, j.id, 0, nil)
		err = mm.runStripes(j)
	}
	return nil
}

// runStripes drives every unfinished stripe's manifest round and stream
// concurrently — the phase pipeline. Each stripe goroutine runs its own
// manifest round first (only when its epoch is fresh: initial transfer
// or just replanned) and streams immediately after, so fast stripes
// push payload while slow ones still fold HAVEs. The first failure is
// returned, content rejections winning over liveness errors so a replan
// loop never retries corruption.
func (mm *MM) runStripes(j *liveJob) error {
	j.mu.Lock()
	stripes := make([]*stripeState, 0, len(j.stripes))
	manifest := false
	for _, ss := range j.stripes {
		if !ss.done {
			stripes = append(stripes, ss)
			manifest = manifest || ss.needManifest
		}
	}
	j.mu.Unlock()
	if len(stripes) == 0 {
		return nil
	}
	j.setPhase(phaseManifest)
	if manifest {
		mm.jlog(journal.JobManifest, j.id, 0, nil)
	}
	errs := make([]error, len(stripes))
	var wg sync.WaitGroup
	for i, ss := range stripes {
		wg.Add(1)
		go func(i int, ss *stripeState) {
			defer wg.Done()
			errs[i] = mm.runStripe(j, ss)
		}(i, ss)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var reject rejectError
		if errors.As(err, &reject) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// runStripe is one stripe's slice of the pipeline: manifest round if the
// epoch is fresh, then stream to drain.
func (mm *MM) runStripe(j *liveJob, ss *stripeState) error {
	j.mu.Lock()
	need := ss.needManifest
	j.mu.Unlock()
	if need {
		if err := mm.manifestStripe(j, ss); err != nil {
			return err
		}
		j.mu.Lock()
		ss.needManifest = false
		j.mu.Unlock()
	}
	if err := mm.streamStripe(j, ss); err != nil {
		return err
	}
	j.mu.Lock()
	ss.done = true
	j.mu.Unlock()
	return nil
}

// buildManifest computes (or retrieves) the job's transfer manifest: the
// per-chunk content hashes. For seeded (content-addressed) images the
// result is cached MM-side keyed by content identity, so a warm relaunch
// skips the generate-and-hash pass over the whole image and opens at
// near-control-plane cost.
func (mm *MM) buildManifest(j *liveJob) *manifestData {
	frag := mm.cfg.FragBytes
	var key manifestKey
	cacheable := j.spec.ImageSeed != 0
	if cacheable {
		key = manifestKey{seed: j.spec.ImageSeed, patchFP: patchFingerprint(j.spec.ImagePatch),
			bytes: j.spec.BinaryBytes, frag: frag}
		mm.mu.Lock()
		d := mm.manifests[key]
		mm.mu.Unlock()
		if d != nil && patchEqual(d.patch, j.spec.ImagePatch) {
			return d
		}
	}
	d := &manifestData{
		seed:   j.spec.ImageSeed,
		hashes: make([]uint64, j.frags),
	}
	// Chunks are independent (generate + hash each), so the pass fans out
	// over a small worker pool.
	parallelChunks(j.frags, func(i int) {
		size := chunkSizeFor(&j.spec, frag, i)
		p := grabFrame(size)
		data := (*p)[fragRoom:]
		fillChunkInto(&j.spec, j.id, i, data)
		d.hashes[i] = chunkcache.Hash64(data)
		releaseFrame(p)
	})
	// Every chunk but the last is frag bytes long.
	d.total = int64(j.frags-1)*int64(frag) + int64(chunkSizeFor(&j.spec, frag, j.frags-1))
	if cacheable {
		d.patch = make(map[int]uint64, len(j.spec.ImagePatch))
		for k, v := range j.spec.ImagePatch {
			d.patch[k] = v
		}
		mm.mu.Lock()
		if len(mm.manifests) >= 16 {
			// Tiny bound, rarely hit: images come from a handful of seeds.
			mm.manifests = make(map[manifestKey]*manifestData)
		}
		mm.manifests[key] = d
		mm.mu.Unlock()
	}
	return d
}

// chunkSizeFor is the byte length of chunk i under the given chunking —
// the floor of 1 keeps zero-byte jobs streaming one sentinel chunk.
func chunkSizeFor(spec *JobSpec, frag, i int) int {
	size := spec.BinaryBytes - i*frag
	if size > frag {
		size = frag
	}
	if size <= 0 {
		size = 1
	}
	return size
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
// the chunks the round-robin interleave assigns this stripe). After a
// stripe replan the round simply runs again under the new epoch: the
// survivors' ledgers re-derive what is still missing from their actual
// splice and cache state.
func (mm *MM) manifestStripe(j *liveJob, ss *stripeState) error {
	j.mu.Lock()
	kids := append([]*stripeKid(nil), ss.kids...)
	tree := ss.tree
	epoch := ss.epoch
	k := len(j.stripes)
	j.mu.Unlock()

	for _, kid := range kids {
		m := &Manifest{Job: j.id, Epoch: epoch, Stripe: ss.id, Stripes: k, ChunkBytes: mm.cfg.FragBytes,
			TotalBytes: j.man.total, Hashes: j.man.hashes, Tree: tree.below(kid.pos)}
		n, err := kid.link.c.send(Message{Manifest: m})
		if err != nil {
			return downError{node: kid.link.node, cause: fmt.Sprintf("manifest write: %v", err)}
		}
		// Relay links are shared across jobs, so per-conn byte counters
		// cannot be attributed to one job: bill what this send wrote.
		j.mu.Lock()
		j.sendBytes += int64(n)
		j.mu.Unlock()
	}
	// A rewire (initial layout, replan) started the kids' records over
	// with the epoch. A round that re-runs in the same epoch — another
	// stripe's failure interrupted it, and this stripe only pruned a leaf —
	// keeps the reports it has: the NMs answer once per epoch.
	err := j.await(ss, "chunk ledger (HAVE) unreported by nodes", time.Now().Add(mm.cfg.AckTimeout), func(names *[]string) int {
		n := 0
		for _, kid := range ss.kids {
			if kid.have == nil {
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
			if maskGet(kid.have, i) {
				j.bytesSaved += int64(chunkSizeFor(&j.spec, mm.cfg.FragBytes, i))
			} else {
				missing = true
			}
		}
		if missing {
			ss.sendList = append(ss.sendList, i)
		}
	}
	ss.streamPos = 0
	ss.streamAt = 0
	j.chunksSent += len(ss.sendList)
	return nil
}

// streamStripe pushes the stripe's current send list (the union of its
// missing chunks, ascending) down the stripe's tree, writing each chunk
// only to the subtrees whose HAVE ledger lacks it, and waits for the
// stripe's window to drain. Resumable: after a leaf prune the cursor is
// rewound to the slowest surviving subtree's credit and the loop simply
// continues under the same epoch (duplicates re-ack idempotently).
func (mm *MM) streamStripe(j *liveJob, ss *stripeState) error {
	// windowSlots is the flow-control window depth per tree hop, the live
	// analogue of the simulator's multi-buffering slots.
	const windowSlots = 4
	j.setPhase(phaseStreaming)
	j.mu.Lock()
	kids := append([]*stripeKid(nil), ss.kids...)
	list := append([]int(nil), ss.sendList...)
	depth := ss.tree.depth
	start := ss.streamPos
	k := len(j.stripes)
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
	window := windowSlots * depth
	frag := mm.cfg.FragBytes
	for pos := start; pos < len(list); pos++ {
		i := list[pos]
		if pos >= window {
			if err := j.awaitCredit(ss, list[pos-window]/k+1, time.Now().Add(mm.cfg.AckTimeout)); err != nil {
				return err
			}
		}
		size := chunkSizeFor(&j.spec, frag, i)
		f := newFrag(size)
		f.Job, f.Index, f.Stripe, f.Last = j.id, i, ss.id, i == j.frags-1
		fillChunkInto(&j.spec, j.id, i, f.Data)
		for _, kid := range kids {
			link := kid.link
			if maskGet(kid.have, i) {
				continue // the whole subtree already holds this chunk
			}
			// Shared-link backpressure: reserve the chunk's bytes against
			// the link budget before writing, held until this subtree's
			// cumulative ack covers the chunk. Concurrent jobs — and the
			// job's other stripes — crossing the same cached relay link
			// block here instead of queueing unbounded data ahead of each
			// other.
			if err := link.budget.acquire(int64(size), time.Now().Add(mm.cfg.AckTimeout)); err != nil {
				f.release()
				return downError{node: link.node, cause: fmt.Sprintf("fragment %d: %v", i, err)}
			}
			j.holdChunk(kid, i/k, int64(size))
			n, err := link.c.send(Message{Frag: f})
			if err != nil {
				f.release()
				return downError{node: link.node, cause: fmt.Sprintf("fragment %d write: %v", i, err)}
			}
			j.mu.Lock()
			j.sendBytes += int64(n)
			j.mu.Unlock()
		}
		f.release()
		j.mu.Lock()
		ss.streamPos = pos + 1
		if i/k+1 > ss.streamAt {
			ss.streamAt = i/k + 1
		}
		if used := j.windowUsedLocked(); used > j.winPeak {
			j.winPeak = used
		}
		j.mu.Unlock()
	}
	// Drain: wait until every subtree acknowledged every fragment of this
	// stripe — on a fully warm launch (empty send list) the HAVE ledgers
	// already credited every subtree to the end, with no payload and no
	// ack on the wire. One AckTimeout, started when the last fragment
	// left, covers the whole tail — the budget is not restarted on partial
	// progress, so a stalled node cannot stack the per-fragment timeout on
	// top of the final wait.
	return j.awaitCredit(ss, stripeChunks(j.frags, ss.id, k), time.Now().Add(mm.cfg.AckTimeout))
}

// diagnose turns a transfer failure into a verdict about which job
// nodes are actually dead: nodes named by connection-level evidence
// (failed writes, PeerDown reports) are taken at their parents' word —
// the relay layer already retried them — and every other node is sent
// a directed isolation probe over its control link, mirroring the
// simulator FaultDetector's per-node probe phase. Nodes that neither
// answer within ProbeGrace nor accept the probe write are dead.
func (mm *MM) diagnose(j *liveJob, cause error) map[int]string {
	dead := make(map[int]string)
	var down downError
	if errors.As(cause, &down) {
		dead[down.node] = down.cause
	}
	j.mu.Lock()
	for node, why := range j.peerDown {
		if _, seen := dead[node]; !seen {
			dead[node] = why
		}
	}
	j.peerDown = nil
	j.fail = nil // consumed; recovery starts from a clean slate
	nodes := append([]*nmLink(nil), j.nodes...)
	j.mu.Unlock()

	var suspects []*nmLink
	for _, link := range nodes {
		if _, gone := dead[link.node]; !gone {
			suspects = append(suspects, link)
		}
	}
	for node, why := range mm.probeNodes(suspects, mm.cfg.ProbeGrace) {
		dead[node] = why
	}
	return dead
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
	for _, l := range links {
		if _, err := l.c.send(Message{Ping: &Ping{Seq: seq}}); err != nil {
			dead[l.node] = fmt.Sprintf("probe write failed: %v", err)
			pr.settle(l.node)
		}
	}
	deadline := time.NewTimer(grace)
	select {
	case <-pr.done:
	case <-deadline.C:
	}
	deadline.Stop()
	pr.mu.Lock()
	for node := range pr.owed {
		dead[node] = fmt.Sprintf("no answer to isolation probe within %v", grace)
	}
	pr.mu.Unlock()
	mm.mu.Lock()
	delete(mm.probes, seq)
	mm.mu.Unlock()
	return dead
}

// recoverStripes excludes the dead nodes from the job and heals every
// affected stripe by the cheapest sufficient means. A stripe the dead
// node relayed for (interior in its tree) — or any stripe of a
// single-tree plan, preserving the legacy recovery path — is rewired
// over the survivors under a bumped epoch, and its manifest round runs
// again: it installs the new tree, and the survivors' HAVE ledgers give
// both what is still missing and each subtree's credit to resume from.
// A stripe where every dead node was a leaf is pruned in place: the
// leaf's tree parent gets a ChildDead note so its aggregated acks stop
// waiting on the corpse, the MM drops it from its own ledger if it was a
// direct child, and the stripe resumes streaming under the same epoch —
// it never replans (stripeReplans stays 0).
func (mm *MM) recoverStripes(j *liveJob, dead map[int]string) error {
	j.mu.Lock()
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
		j.mu.Unlock()
		return fmt.Errorf("livenet: job %d: all nodes failed (%v)", j.id, failed)
	}
	j.nodes = survivors
	// Reports of these deaths that raced the diagnosis are spent: another
	// parent's PeerDown, or a second stripe's, must not start a round of
	// its own.
	var down downError
	if errors.As(j.fail, &down) {
		if _, gone := dead[down.node]; gone {
			j.fail = nil
		}
	}
	for node := range dead {
		delete(j.peerDown, node)
	}
	k := len(j.stripes)
	stripes := append([]*stripeState(nil), j.stripes...)
	j.mu.Unlock()
	// Unacknowledged chunks of the interrupted epoch hand their
	// link-budget bytes back now: replanned stripes reset their credit,
	// pruned stripes re-acquire for whatever they re-stream.
	j.releaseAllHeld()

	for _, ss := range stripes {
		j.mu.Lock()
		done := ss.done
		interior := false
		for q, link := range ss.tree.order {
			if _, gone := dead[link.node]; gone && len(ss.tree.pos[q].kids) > 0 {
				interior = true
				break
			}
		}
		replan := !done && (k == 1 || interior)
		if replan {
			ss.epoch++
			mm.rewireStripe(j, ss, k)
			ss.needManifest = true
			j.stripeReplans[ss.id]++
		}
		j.mu.Unlock()
		if done || replan {
			continue // drained before the failure, or healed by the next round
		}
		if err := mm.pruneStripe(j, ss, dead); err != nil {
			return err
		}
	}
	return nil
}

// pruneStripe removes dead leaves from one stripe without disturbing its
// epoch: a direct child of the MM loses its record (and hands back the
// link budget it still holds); a deeper leaf's tree parent is told via
// ChildDead to stop counting it in the aggregated acks. The stream cursor
// rewinds to the slowest surviving subtree's credit so chunks the
// corpse's loss left unacknowledged are re-sent (duplicates re-ack
// idempotently), and the stripe resumes — no manifest round, no epoch
// bump.
func (mm *MM) pruneStripe(j *liveJob, ss *stripeState, dead map[int]string) error {
	type deadLeaf struct {
		parent *nmLink
		node   int
	}
	var notify []deadLeaf
	j.mu.Lock()
	for q, link := range ss.tree.order {
		if _, gone := dead[link.node]; !gone {
			continue
		}
		if parent := ss.tree.pos[q].parent; parent >= 0 {
			notify = append(notify, deadLeaf{parent: ss.tree.order[parent], node: link.node})
			continue
		}
		// A direct child of the MM (and a leaf, or the stripe would have
		// replanned). A node an earlier prune already dropped has no
		// record left to drop.
		for ci, kid := range ss.kids {
			if kid.link == link {
				kid.release(math.MaxInt)
				ss.kids = append(ss.kids[:ci], ss.kids[ci+1:]...)
				break
			}
		}
	}
	if len(ss.kids) == 0 {
		j.mu.Unlock()
		return fmt.Errorf("livenet: job %d stripe %d: no surviving subtree roots", j.id, ss.id)
	}
	// Rewind the cursor to the slowest surviving subtree's stripe-local
	// credit: everything below it is acknowledged everywhere, everything
	// past it may have died with the leaf's parent link buffer.
	resume := ss.streamAt
	for _, kid := range ss.kids {
		if kid.acked < resume {
			resume = kid.acked
		}
	}
	pos := 0
	k := len(j.stripes)
	for pos < len(ss.sendList) && ss.sendList[pos]/k < resume {
		pos++
	}
	if pos < ss.streamPos {
		ss.streamPos = pos
	}
	j.mu.Unlock()

	for _, d := range notify {
		msg := Message{ChildDead: &ChildDead{Job: j.id, Stripe: ss.id, Node: d.node}}
		if _, err := d.parent.c.send(msg); err != nil {
			return downError{node: d.parent.node, cause: fmt.Sprintf("child-dead write: %v", err)}
		}
	}
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
// (ss nil) belongs to the whole job.
func (j *liveJob) await(ss *stripeState, what string, deadline time.Time, owing func(names *[]string) int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var alarm *time.Timer
	for {
		if j.fail != nil {
			return j.fail
		}
		if owing(nil) == 0 {
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
	for _, link := range nodes {
		link.c.send(msg)
	}
}
