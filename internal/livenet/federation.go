package livenet

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/place"
)

// Two-level MM federation. The paper demonstrates STORM's O(log n)
// launch scaling to 64 nodes with a single Machine Manager; past that
// the MM itself is the ceiling — every NM registration, heartbeat
// ledger, and direct-child stream terminates on one process. The
// federation applies the system's own medicine one level up: leaf MMs
// own disjoint partitions of NMs and run the existing manifest / stream
// / launch machinery completely unchanged, while a root holds
// only partition-level state — which partitions exist, how many nodes
// each owns, how loaded each is — and delegates whole sub-jobs down.
// Per-partition completion reports fold up to the root the same way
// pong and HAVE ledgers fold up the forwarding tree: the root sees one
// aggregate per partition, never one record per node, so its egress and
// bookkeeping are O(partitions) regardless of cluster size.
//
// Job identity is partition-scoped: each leaf numbers its jobs from a
// disjoint MMConfig.JobBase, so the job field already present in every
// frame header names both the partition and the job, and nothing in the
// NM relay fabric needed to change.

// errFedClosed marks submissions rejected — or queued waiters released —
// because the federation root shut down, as ErrMMClosed does for an MM.
var errFedClosed = errors.New("livenet: federation closed")

// fedMaxConcurrent bounds how many federated jobs may be in flight at
// once; beyond it submissions queue under the root's admission policy.
const fedMaxConcurrent = 8

// fedProbeInterval paces the resurrection prober: the root redials each
// dead partition's submit address on this base period with capped
// exponential backoff (capped at 8× the base). A successful status probe
// re-absorbs the partition — placement rebalances toward it on the next
// free assignment, since a returning leaf carries no federated load.
const fedProbeInterval = 250 * time.Millisecond

// FedConfig tunes a federation root.
type FedConfig struct {
	// Admission is the root-level queue policy: "fifo" (default),
	// "wfair", or "sif" — the same policies the leaves use, lifted one
	// level to order whole jobs instead of streams.
	Admission string
	// Lite selects the dense connection profile for the root's
	// submission links to the leaves.
	Lite bool
	// Placement selects the partition-pick policy for free jobs, the
	// root-level lift of MMConfig.Placement: "spread" (default) is the
	// classic least-loaded fill-and-spill over partitions; "locality"
	// best-fits the whole job into the smallest partition that can
	// hold it (ties toward the lighter-loaded, then lower ID), so a
	// job that fits one leaf never straddles the inter-partition
	// fabric — the same keep-the-gang-close objective the leaf engine
	// applies to nodes, applied to partitions.
	Placement string
}

// fedPartition is the root's whole view of one leaf: identity, where to
// submit, and a node-weighted load figure. Nothing node-granular lives
// here beyond a membership snapshot refreshed from the in-process leaf
// handle — the leaf owns its nodes.
type fedPartition struct {
	id   int
	addr string
	mm   *MM
	dead bool
	load int // nodes charged by in-flight federated sub-jobs

	// Resurrection-probe pacing: probeFails counts consecutive failed
	// redials since the partition died (drives the capped backoff),
	// nextProbe is when the prober may try again. Guarded by f.mu.
	probeFails int
	nextProbe  time.Time
}

// PartReport is one partition's contribution to a federated job.
type PartReport struct {
	Partition int
	Nodes     int
	Report    Report
}

// FedReport aggregates a federated job the way a tree parent aggregates
// its children: the timing is the critical path (max over partitions,
// since sub-jobs run concurrently), the egress is the root's own — the
// submission frames it wrote to leaf MMs, O(partitions) by
// construction — and the per-partition breakdown rides along for
// anyone who wants the leaves' detail.
type FedReport struct {
	JobID   int
	Send    time.Duration // max partition binary-resident time
	Execute time.Duration // max partition execution time
	Total   time.Duration
	// RootEgress is every byte the root wrote to delegate this job:
	// one Submit frame per partition touched. Compare Report.SendBytes
	// on a leaf, which scales with image size × fanout.
	RootEgress int64
	// Readmits counts sub-jobs re-admitted to a surviving partition
	// after a leaf death.
	Readmits int
	Parts    []PartReport
}

// fedAssign is one partition's share of a federated job.
type fedAssign struct {
	part  *fedPartition
	nodes int
	place []int // non-nil when the job pinned explicit node IDs
}

// Federation is the root MM of a two-level cluster. It listens on its
// own port for Submit/StatusQ exactly like an MM, so clients cannot
// tell a federation root from a flat MM.
type Federation struct {
	ln  net.Listener
	cfg FedConfig

	mu      sync.Mutex
	parts   []*fedPartition
	nextJob int
	closed  bool

	// Root-level admission is the leaf queue verbatim: the queue
	// elements are liveJobs (only their id and spec are used — no streams
	// run at the root), the policy is the same pluggable fifo/wfair/sif
	// set, and a slot is a whole federated job in flight.
	admit    admitQueue
	placePol place.Policy

	launched      int
	completed     int
	resurrections int

	done chan struct{} // closed by Close; stops the resurrection prober
	wg   sync.WaitGroup
}

// NewFederation starts a federation root over the given leaf MMs. Each
// leaf must carry a distinct MMConfig.JobBase (partition-scoped job
// IDs); leaves stay owned by the caller and are not closed by
// Federation.Close.
func NewFederation(addr string, cfg FedConfig, leaves []*MM) (*Federation, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("livenet: federation needs at least one leaf MM")
	}
	bases := make(map[int]bool)
	for _, mm := range leaves {
		if bases[mm.cfg.JobBase] {
			return nil, fmt.Errorf("livenet: leaf MMs share JobBase %d — job IDs must be partition-scoped", mm.cfg.JobBase)
		}
		bases[mm.cfg.JobBase] = true
	}
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
		return nil, fmt.Errorf("livenet: federation listen %s: %w", addr, err)
	}
	f := &Federation{ln: ln, cfg: cfg, placePol: placePol, done: make(chan struct{})}
	f.admit = admitQueue{cond: sync.NewCond(&f.mu), closed: &f.closed, errClosed: errFedClosed,
		policy: policy, slots: fedMaxConcurrent}
	for i, mm := range leaves {
		f.parts = append(f.parts, &fedPartition{id: i, addr: mm.Addr(), mm: mm})
	}
	f.wg.Add(2)
	go f.acceptLoop()
	go f.resurrectLoop()
	return f, nil
}

// Addr returns the root's listening address.
func (f *Federation) Addr() string { return f.ln.Addr().String() }

// Close shuts the root down. The leaves are caller-owned and keep
// running.
func (f *Federation) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.admit.cond.Broadcast()
	f.mu.Unlock()
	close(f.done)
	f.ln.Close()
	f.wg.Wait()
}

// resurrectLoop is the root's half of federation healing: every
// fedProbeInterval it redials each dead partition's submit address (with
// capped per-partition backoff, so a long-dead leaf costs a dial every
// ~2s, not every tick) and sends a status probe. A leaf that answers is
// re-absorbed — marked live, backoff reset — and, carrying no federated
// load, naturally attracts the next free placement.
func (f *Federation) resurrectLoop() {
	defer f.wg.Done()
	tick := time.NewTicker(fedProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-f.done:
			return
		case <-tick.C:
		}
		now := time.Now()
		type target struct {
			p    *fedPartition
			addr string // snapshotted under f.mu: Reabsorb rewrites it
		}
		f.mu.Lock()
		var due []target
		for _, p := range f.parts {
			if p.dead && !now.Before(p.nextProbe) {
				due = append(due, target{p, p.addr})
			}
		}
		f.mu.Unlock()
		for _, t := range due {
			p := t.p
			alive := f.probe(t.addr)
			f.mu.Lock()
			if !p.dead {
				// A concurrent Reabsorb (or an earlier probe) beat us.
			} else if alive && !p.mm.isClosed() {
				p.dead = false
				p.probeFails = 0
				p.nextProbe = time.Time{}
				f.resurrections++
			} else {
				if p.probeFails < 3 {
					p.probeFails++
				}
				p.nextProbe = now.Add(fedProbeInterval << uint(p.probeFails))
			}
			f.mu.Unlock()
		}
	}
}

// probe asks addr for a status snapshot over a fresh submit link.
func (f *Federation) probe(addr string) bool {
	_, err := queryStatus(addr, profileFor(f.cfg.Lite))
	return err == nil
}

// Reabsorb swaps in a restarted leaf MM for the dead partition that
// carried the same MMConfig.JobBase — the partition identity job IDs
// are scoped by. An in-process leaf that died and was rebuilt (say,
// from its journal) has a fresh *MM and usually a fresh port, which the
// root cannot discover on its own; after Reabsorb the resurrection
// prober verifies the new leaf over the wire and marks the partition
// live. The old handle is abandoned, never closed — it was the caller's
// to begin with.
func (f *Federation) Reabsorb(mm *MM) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range f.parts {
		if p.mm.cfg.JobBase == mm.cfg.JobBase {
			p.mm = mm
			p.addr = mm.Addr()
			p.nextProbe = time.Time{} // probe the new address next tick
			return nil
		}
	}
	return fmt.Errorf("livenet: no partition carries JobBase %d", mm.cfg.JobBase)
}

// status folds the live leaves' snapshots into the root's answer to a
// status query: their nodes (ascending), jobs and queues, plus the root's
// own queue and job counts.
func (f *Federation) status() StatusRep {
	f.mu.Lock()
	st := StatusRep{Launched: f.launched, Completed: f.completed, Queued: len(f.admit.q)}
	var leaves []*MM
	for _, p := range f.parts {
		if !p.dead {
			leaves = append(leaves, p.mm)
		}
	}
	f.mu.Unlock()
	for _, mm := range leaves {
		if mm.isClosed() {
			continue
		}
		rep := mm.status()
		st.Nodes = append(st.Nodes, rep.Nodes...)
		st.Jobs += rep.Jobs
		st.Queued += rep.Queued
	}
	sort.Ints(st.Nodes)
	return st
}

func (f *Federation) acceptLoop() {
	defer f.wg.Done()
	for {
		nc, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.wg.Add(1)
		go f.handleConn(newConn(nc))
	}
}

func (f *Federation) handleConn(c *conn) {
	defer f.wg.Done()
	defer c.close()
	first, err := c.recv()
	if err != nil {
		return
	}
	switch {
	case first.Submit != nil:
		rep, err := f.RunJob(first.Submit.Spec)
		done := Done{Report: Report{
			JobID:     rep.JobID,
			Send:      rep.Send,
			Execute:   rep.Execute,
			Total:     rep.Total,
			SendBytes: rep.RootEgress,
		}}
		if err != nil {
			done.Err = err.Error()
		}
		c.send(Message{Done: &done})
	case first.StatusQ != nil:
		st := f.status()
		c.send(Message{StatusR: &st})
	}
}

// membership returns each live partition's registered node set. Caller
// holds f.mu; the per-leaf snapshot takes the leaf's own lock, which
// never acquires federation state — lock order is root before leaf,
// always.
func (f *Federation) membership() map[int][]int {
	m := make(map[int][]int, len(f.parts))
	for _, p := range f.parts {
		if !p.dead && !p.mm.isClosed() {
			m[p.id] = p.mm.NMs()
		}
	}
	return m
}

// assign splits a job across partitions under f.mu. A pinned job
// (spec.Place) groups its node IDs by owning partition. A free job
// follows FedConfig.Placement: spread takes partitions in
// deterministic least-loaded order (lighter: ties toward the lower
// partition ID, the order spread placement uses on nodes) and fills
// each before spilling into the next; locality best-fits the whole job
// into the smallest single partition that can seat it, spilling only
// when none can. Either way a job that fits one partition lands on
// exactly one leaf.
func (f *Federation) assign(spec *JobSpec, members map[int][]int) ([]fedAssign, error) {
	byID := make(map[int]*fedPartition, len(f.parts))
	var live []*fedPartition
	total := 0
	for _, p := range f.parts {
		if p.dead {
			continue
		}
		if _, ok := members[p.id]; !ok {
			continue
		}
		byID[p.id] = p
		live = append(live, p)
		total += len(members[p.id])
	}
	if total < spec.Nodes {
		return nil, fmt.Errorf("livenet: %d NMs registered across %d partitions, job wants %d", total, len(live), spec.Nodes)
	}
	if len(spec.Place) > 0 {
		owner := make(map[int]int) // node -> partition
		for pid, nodes := range members {
			for _, n := range nodes {
				owner[n] = pid
			}
		}
		group := make(map[int][]int)
		for _, n := range spec.Place {
			pid, ok := owner[n]
			if !ok {
				return nil, fmt.Errorf("livenet: placed node %d not registered in any live partition", n)
			}
			group[pid] = append(group[pid], n)
		}
		var pids []int
		for pid := range group {
			pids = append(pids, pid)
		}
		sort.Ints(pids)
		var out []fedAssign
		for _, pid := range pids {
			out = append(out, fedAssign{part: byID[pid], nodes: len(group[pid]), place: group[pid]})
		}
		return out, nil
	}
	if f.placePol == place.Locality {
		// Best-fit: the smallest partition that holds the whole job
		// (ties → lighter federated load, then lower ID) — the gang
		// never straddles the inter-partition fabric when any single
		// leaf can seat it. The comparator is total, so the choice is
		// independent of partition iteration order.
		var best *fedPartition
		for _, p := range live {
			size := len(members[p.id])
			if size < spec.Nodes {
				continue
			}
			if best == nil || size < len(members[best.id]) ||
				(size == len(members[best.id]) && p.lighter(best)) {
				best = p
			}
		}
		if best != nil {
			return []fedAssign{{part: best, nodes: spec.Nodes}}, nil
		}
		// No single partition fits: spill like spread does.
	}
	sort.Slice(live, func(a, b int) bool { return live[a].lighter(live[b]) })
	var out []fedAssign
	remaining := spec.Nodes
	for _, p := range live {
		if remaining == 0 {
			break
		}
		n := min(len(members[p.id]), remaining)
		out = append(out, fedAssign{part: p, nodes: n})
		remaining -= n
	}
	return out, nil
}

// lighter is the one deterministic least-loaded order over partitions:
// (load, id) ascending. The tie-break is the stable ID, never map
// iteration order or sort-internal permutation, so a given cluster state
// reproduces the identical assignment in every run.
func (p *fedPartition) lighter(q *fedPartition) bool {
	return p.load < q.load || (p.load == q.load && p.id < q.id)
}

// subSpec derives one partition's share of the job. Everything
// content-related is identical — same image seed, same patch — so the
// leaf manifest memos and NM chunk caches work exactly as they do under
// a flat MM, and a warm federated relaunch is warm in every partition.
func subSpec(spec JobSpec, a fedAssign) JobSpec {
	s := spec
	s.Nodes = a.nodes
	s.Place = a.place
	return s
}

// RunJob executes one federated job: root-level admission, partition
// assignment, concurrent delegation to the leaf MMs over real submit
// links, and ledger-style aggregation of the per-partition reports. A
// leaf that dies mid-job is marked dead and its share is re-admitted to
// a surviving partition with free capacity.
func (f *Federation) RunJob(spec JobSpec) (FedReport, error) {
	if spec.Nodes <= 0 || spec.PEsPerNode <= 0 {
		return FedReport{}, fmt.Errorf("livenet: bad job geometry %dx%d", spec.Nodes, spec.PEsPerNode)
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return FedReport{}, errFedClosed
	}
	f.nextJob++
	j := &liveJob{id: f.nextJob, spec: spec}
	if err := f.admit.await(j, nil); err != nil {
		f.mu.Unlock()
		return FedReport{}, err
	}
	members := f.membership()
	assigns, err := f.assign(&spec, members)
	if err != nil {
		f.admit.release()
		f.mu.Unlock()
		return FedReport{}, err
	}
	for _, a := range assigns {
		a.part.load += a.nodes
	}
	f.launched++
	f.mu.Unlock()

	defer func() {
		f.mu.Lock()
		f.admit.release()
		f.mu.Unlock()
	}()

	start := time.Now()
	results := make([]subResult, len(assigns))
	fanOut(len(assigns), func(i int) {
		defer f.unload(assigns[i].part, assigns[i].nodes)
		results[i] = f.runPart(j.id, subSpec(spec, assigns[i]), assigns[i])
	})

	rep := FedReport{JobID: j.id}
	var firstErr error
	for _, r := range results {
		rep.RootEgress += r.eg
		rep.Readmits += r.rad
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		rep.Send = max(rep.Send, r.pr.Report.Send)
		rep.Execute = max(rep.Execute, r.pr.Report.Execute)
		rep.Parts = append(rep.Parts, r.pr)
	}
	sort.Slice(rep.Parts, func(a, b int) bool { return rep.Parts[a].Partition < rep.Parts[b].Partition })
	rep.Total = time.Since(start)
	if firstErr != nil {
		return rep, firstErr
	}
	f.mu.Lock()
	f.completed++
	f.mu.Unlock()
	return rep, nil
}

// subResult is one partition's outcome within a federated job.
type subResult struct {
	pr  PartReport
	eg  int64 // root submit-link egress for this share, retries included
	rad int   // re-admissions this share needed
	err error
}

// runPart delegates one partition's share, re-admitting to a survivor
// when the leaf's submit link dies mid-job (the leaf process died). A
// job-level failure reported over a healthy link is final — the cluster
// rejected the job, not the partition.
func (f *Federation) runPart(jobID int, spec JobSpec, a fedAssign) (res subResult) {
	// readmitRetries is how many times one share may be re-admitted to a
	// surviving partition after a leaf MM dies under it.
	const readmitRetries = 1
	part := a.part
	for attempt := 0; ; attempt++ {
		rep, egress, dead, err := submitJob(part.addr, profileFor(f.cfg.Lite), spec)
		res.eg += egress
		if err == nil {
			res.pr = PartReport{Partition: part.id, Nodes: spec.Nodes, Report: rep}
			return res
		}
		if !dead || attempt >= readmitRetries {
			if dead {
				res.err = fmt.Errorf("%w: fed job %d on partition %d: %v", ErrJobRetriesExhausted, jobID, part.id, err)
			} else {
				res.err = fmt.Errorf("livenet: fed job %d on partition %d: %w", jobID, part.id, err)
			}
			return res
		}
		// Jittered pause before the re-admitted share goes out: shares
		// orphaned by the same leaf death should not re-place in
		// lockstep against one survivor.
		time.Sleep(retryBackoff(jobID, attempt))
		// The submit link died: convict the partition and re-admit this
		// share to the deterministically least-loaded survivor with
		// room. Pinned placement cannot survive its partition — the
		// pinned nodes died with it — so the re-admitted share falls
		// back to the survivor's own least-loaded placement.
		f.mu.Lock()
		part.dead = true
		next := f.pickSurvivor(spec.Nodes, part)
		if next != nil {
			next.load += spec.Nodes
		}
		f.mu.Unlock()
		if next == nil {
			res.err = fmt.Errorf("livenet: fed job %d: partition %d died and no survivor has %d free nodes", jobID, part.id, spec.Nodes)
			return res
		}
		spec.Place = nil
		res.rad++
		part = next
		// The survivor's load charge lives until this share finishes,
		// however many further retries that takes.
		defer f.unload(next, spec.Nodes)
	}
}

// unload takes back the load charge of n nodes on p.
func (f *Federation) unload(p *fedPartition, n int) {
	f.mu.Lock()
	p.load = max(p.load-n, 0)
	f.mu.Unlock()
}

// pickSurvivor chooses the least-loaded live partition (deterministic
// tie-break by ID) with at least n registered nodes, excluding the one
// that just died. Caller holds f.mu.
func (f *Federation) pickSurvivor(n int, exclude *fedPartition) *fedPartition {
	var best *fedPartition
	for _, p := range f.parts {
		if p.dead || p == exclude || p.mm.isClosed() || len(p.mm.NMs()) < n {
			continue
		}
		if best == nil || p.lighter(best) {
			best = p
		}
	}
	return best
}
