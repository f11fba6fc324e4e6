package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/livenet"
	"repro/internal/rng"
)

// recorder accumulates one measured window's results. Safe for the
// concurrent clients of tenants64.
type recorder struct {
	mu       sync.Mutex
	lat      map[string][]float64 // class -> client-observed wall, ms
	series   map[string][]float64 // Report- and trace-derived samples
	ops      int                  // operations that completed and verified
	failed   int                  // failed, refused, wrong digest, wrong chunk count
	fails    []string             // the first few failures, for the output
	known    int                  // launches that tripped a known defect of the program (expect.known)
	knowns   []string             // the first few of those, for the output
	resident int64                // image bytes x surviving nodes of verified launches
	excluded time.Duration        // untimed harness work inside the window
	offOps   int                  // ops run on a cluster other than the standing one
}

func newRecorder() *recorder {
	return &recorder{lat: make(map[string][]float64), series: make(map[string][]float64)}
}

func (rec *recorder) sample(name string, v float64) {
	rec.mu.Lock()
	rec.series[name] = append(rec.series[name], v)
	rec.mu.Unlock()
}

func (rec *recorder) fail(format string, args ...any) {
	rec.mu.Lock()
	rec.failed++
	if len(rec.fails) < 8 {
		rec.fails = append(rec.fails, fmt.Sprintf(format, args...))
	}
	rec.mu.Unlock()
}

// knownMiss records a launch that missed an expectation marked known. It
// is not an operation, so the time it took leaves the measured wall too.
func (rec *recorder) knownMiss(wall time.Duration, format string, args ...any) {
	rec.mu.Lock()
	rec.known++
	rec.excluded += wall
	if len(rec.knowns) < 8 {
		rec.knowns = append(rec.knowns, fmt.Sprintf(format, args...))
	}
	rec.mu.Unlock()
}

// absorb adds another window's counts; its samples stay apart.
func (rec *recorder) absorb(o *recorder) {
	rec.ops += o.ops
	rec.failed += o.failed
	rec.fails = append(rec.fails, o.fails...)
	rec.known += o.known
	rec.knowns = append(rec.knowns, o.knowns...)
	rec.resident += o.resident
	rec.excluded += o.excluded
	rec.offOps += o.offOps
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// outcome is what one submit returned, flat or federated, in one shape.
type outcome struct {
	rep  livenet.Report // federated: the root's fold of its parts
	refs []jobRef
	fed  *livenet.FedReport
}

type submitFn func(livenet.JobSpec) (outcome, error)

func (cl *cluster) submitDirect(spec livenet.JobSpec) (outcome, error) {
	rep, err := cl.mms[0].RunJob(spec)
	return outcome{rep: rep, refs: []jobRef{{0, rep.JobID, spec.Nodes}}}, err
}

func (cl *cluster) submitTCP(spec livenet.JobSpec) (outcome, error) {
	rep, err := livenet.SubmitJob(cl.mms[0].Addr(), spec)
	return outcome{rep: rep, refs: []jobRef{{0, rep.JobID, spec.Nodes}}}, err
}

func (cl *cluster) submitFed(spec livenet.JobSpec) (outcome, error) {
	fr, err := cl.fed.RunJob(spec)
	out := outcome{fed: &fr, rep: livenet.Report{JobID: fr.JobID, Send: fr.Send, Execute: fr.Execute,
		Total: fr.Total, SendBytes: fr.RootEgress}}
	for _, p := range fr.Parts {
		out.refs = append(out.refs, jobRef{p.Partition, p.Report.JobID, p.Nodes})
		out.rep.Chunks += p.Report.Chunks
		out.rep.ChunksSent += p.Report.ChunksSent
		out.rep.Failed = append(out.rep.Failed, p.Report.Failed...)
	}
	return out, err
}

// expect is what a launch must report beyond byte-identical images.
type expect struct {
	chunksSent int // exact Report.ChunksSent; -1 leaves it unchecked
	victim     int // the one node that must be in Report.Failed; -1 means none may be
	// known marks an input that now and then trips a known defect of the
	// program (faulty16's deep victims, README): a launch that misses the
	// expectation is counted and printed under a name of its own
	// (detector.deep_miss_share) and does not fail the run.
	known bool
}

var anyChunks = expect{chunksSent: -1, victim: -1}

// imageKey identifies image content: two launches with equal keys on one
// cluster must deliver the same CRC.
type imageKey struct {
	seed     uint64
	bytes    int
	patchIdx int
	patchVal uint64
}

func keyOf(spec livenet.JobSpec) imageKey {
	k := imageKey{seed: spec.ImageSeed, bytes: spec.BinaryBytes, patchIdx: -1}
	for i, v := range spec.ImagePatch {
		k.patchIdx, k.patchVal = i, v
	}
	return k
}

// run is one invocation of one workload.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	gen      rng.SplitMix64

	crcMu sync.Mutex
	crcs  map[imageKey]uint32

	setups []float64 // seconds, one per set-up performed
	out    map[string]stat
}

func (r *run) imageSeed() uint64 { return r.gen.Next() | 1 }

// verify is the correctness gate: every surviving placed NM holds an
// image of the right size, all CRCs agree, and content seen before has
// the CRC it had then.
func (r *run) verify(cl *cluster, out outcome, spec livenet.JobSpec) error {
	failed := make(map[int]bool)
	for _, n := range out.rep.Failed {
		failed[n] = true
	}
	perPart := len(cl.nms) / len(cl.mms)
	var crc uint32
	have := false
	for _, ref := range out.refs {
		got := 0
		for _, nm := range cl.nms[ref.mm*perPart : (ref.mm+1)*perPart] {
			if failed[nm.Node()] {
				continue
			}
			d, ok := nm.ImageDigest(ref.job)
			if !ok {
				continue
			}
			got++
			if d.Bytes != spec.BinaryBytes {
				return fmt.Errorf("node %d holds %d bytes of job %d, want %d", nm.Node(), d.Bytes, ref.job, spec.BinaryBytes)
			}
			if have && d.CRC != crc {
				return fmt.Errorf("node %d job %d CRC %08x differs from %08x", nm.Node(), ref.job, d.CRC, crc)
			}
			crc, have = d.CRC, true
		}
		want := ref.nodes
		for n := range failed {
			if n/perPart == ref.mm {
				want--
			}
		}
		if got != want {
			return fmt.Errorf("job %d resident on %d nodes, want %d", ref.job, got, want)
		}
	}
	if spec.ImageSeed != 0 && have {
		k := keyOf(spec)
		r.crcMu.Lock()
		prev, seen := r.crcs[k]
		r.crcs[k] = crc
		r.crcMu.Unlock()
		if seen && prev != crc {
			return fmt.Errorf("image seed %x delivered CRC %08x, earlier %08x", spec.ImageSeed, crc, prev)
		}
	}
	return nil
}

// opTimeout bounds the check of what a launch delivered. It has hung: after
// a deep-victim fault four surviving NMs took a fragment for a job whose
// state was gone, panicked under nm.mu (nm.go, writeManifestChunk), and the
// deferred clean-up in servePeer then waited for nm.mu forever, so every
// getter of those NMs blocked.
const opTimeout = 10 * time.Second

// within runs fn and reports whether it returned before the deadline; if
// not, fn is abandoned and its goroutine leaks until os.Exit.
func within(d time.Duration, fn func()) bool {
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	timeout := time.NewTimer(d)
	defer timeout.Stop()
	select {
	case <-done:
		return true
	case <-timeout.C:
		return false
	}
}

// launch is one closed-loop operation: submit, wait for Done, check,
// record. Latency is the client's wall time around the submit call.
func (r *run) launch(cl *cluster, rec *recorder, tr *tracer, class string,
	spec livenet.JobSpec, submit submitFn, exp expect) bool {
	t0 := time.Now()
	out, err := submit(spec)
	t1 := time.Now()
	wall := t1.Sub(t0)
	rep := out.rep
	if err == nil && exp.victim >= 0 && !exp.known {
		for _, n := range rep.Failed {
			if n != exp.victim {
				rec.sample("false_convictions", 1)
			}
		}
	}
	miss := rec.fail
	if exp.known {
		miss = func(format string, args ...any) { rec.knownMiss(time.Since(t0), format, args...) }
	}
	switch {
	case err != nil:
		miss("%s: %v", class, err)
		return false
	case exp.chunksSent >= 0 && rep.ChunksSent != exp.chunksSent:
		miss("%s: job %d streamed %d chunks, want %d", class, rep.JobID, rep.ChunksSent, exp.chunksSent)
		return false
	case exp.victim < 0 && len(rep.Failed) != 0:
		miss("%s: job %d excluded nodes %v on a clean launch", class, rep.JobID, rep.Failed)
		return false
	case exp.victim >= 0 && (len(rep.Failed) != 1 || rep.Failed[0] != exp.victim):
		miss("%s: job %d excluded nodes %v, want [%d]", class, rep.JobID, rep.Failed, exp.victim)
		return false
	}
	v0 := time.Now()
	var verr error
	if !within(opTimeout, func() { verr = r.verify(cl, out, spec) }) {
		miss("%s: job %d: an NM did not answer ImageDigest within %v", class, rep.JobID, opTimeout)
		return false
	}
	if verr != nil {
		miss("%s: %v", class, verr)
		return false
	}
	v1 := time.Now()

	overhead := wall - rep.Queued - rep.Total
	rec.mu.Lock()
	rec.ops++
	rec.resident += int64(spec.BinaryBytes) * int64(spec.Nodes-len(rep.Failed))
	rec.lat[class] = append(rec.lat[class], ms(wall))
	add := func(name string, v float64) { rec.series[name] = append(rec.series[name], v) }
	add("overhead_ms", ms(overhead))
	add("queued_ms", ms(rep.Queued))
	add("send_ms", ms(rep.Send))
	add("execute_ms", ms(rep.Execute))
	add("window_peak", float64(rep.WindowPeak))
	add("chunks."+class, float64(rep.ChunksSent))
	add("egress."+class, float64(rep.SendBytes))
	if rep.ChunksSent > 0 && rep.Send > 0 {
		add("stream_mb_per_s", float64(rep.ChunksSent)/float64(rep.Chunks)*float64(spec.BinaryBytes)/1e6/rep.Send.Seconds())
	}
	if exp.victim >= 0 {
		add("recovery_ms."+class, ms(rep.Recovery))
		add("replans."+class, float64(rep.Replans))
		stripes := 0
		for _, n := range rep.StripeReplans {
			stripes += n
		}
		add("stripe_replans."+class, float64(stripes))
	}
	if out.fed != nil {
		var slowest time.Duration
		for _, p := range out.fed.Parts {
			if p.Report.Total > slowest {
				slowest = p.Report.Total
			}
		}
		add("root_overhead_ms", ms(out.fed.Total-slowest))
		add("partitions", float64(len(out.fed.Parts)))
	}
	rec.mu.Unlock()

	if tr != nil {
		root := tr.newID()
		tr.add(span{Job: root, Name: "launch", StartUS: tr.us(t0), EndUS: tr.us(t1), Counts: map[string]float64{
			"mm_job": float64(rep.JobID), "nodes": float64(spec.Nodes), "chunks": float64(rep.Chunks), "chunks_sent": float64(rep.ChunksSent),
			"send_bytes": float64(rep.SendBytes), "replans": float64(rep.Replans)}})
		// Report carries durations, not instants: anchor them by giving
		// the client overhead half before the job and half after it.
		at := t0.Add(overhead / 2)
		for _, c := range []struct {
			name string
			d    time.Duration
		}{{"queued", rep.Queued}, {"send", rep.Send}, {"execute", rep.Execute}} {
			tr.add(span{Job: root, Name: c.name, Parent: "launch", StartUS: tr.us(at), EndUS: tr.us(at.Add(c.d))})
			at = at.Add(c.d)
		}
		tr.add(span{Job: root, Name: "verify", StartUS: tr.us(v0), EndUS: tr.us(v1)})
		// Phase dwell and cover come from the part on the critical path.
		var cover map[string]float64
		for i, ref := range out.refs {
			d := tr.phaseSpans(root, cl.mms[ref.mm], ref.job, t0, t1)
			if i == 0 || (out.fed != nil && out.fed.Parts[i].Report.Total == out.fed.Total) {
				cover = d
			}
		}
		total := 0.0
		for name, d := range cover {
			rec.sample("phase."+name, d)
			total += d
		}
		rec.sample("phase_cover_pct."+class, 100*total/ms(wall))
	}
	return true
}

// counters is a snapshot of everything the benchmark reads as a delta
// across a measured window.
type counters struct {
	at           time.Time
	cpu          time.Duration
	mem          runtime.MemStats
	fragsWritten int
	fragsRelayed int
	cacheHits    int64
	cacheMisses  int64
	cacheEvicts  int64
	cacheSaved   int64
	hbSum, hbN   float64
	stSum, stN   float64
	stMax        time.Duration
	ctlFrames    int64
	ctlBytes     int64
	// journalEvents is what a replay of the MM's journal yields now; a
	// rotation inside the window (1 MiB segments) would undercount.
	journalEvents int
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// snapshot reads the counters. The clock and CPU stamps are taken last
// when the snapshot opens a window and first when it closes one, so the
// reading itself stays outside the window.
func snapshot(cl *cluster, opening bool) (c counters) {
	stamp := func() { c.at, c.cpu = time.Now(), processCPU() }
	if opening {
		defer stamp()
	} else {
		stamp()
	}
	runtime.ReadMemStats(&c.mem)
	if cl == nil {
		return c
	}
	for _, nm := range cl.nms {
		c.fragsWritten += nm.FragsWritten()
		c.fragsRelayed += nm.FragsRelayed()
		if st, ok := nm.CacheStats(); ok {
			c.cacheHits += st.Hits
			c.cacheMisses += st.Misses
			c.cacheEvicts += st.Evictions
			c.cacheSaved += st.BytesSaved
		}
	}
	for _, mm := range cl.mms {
		mean, _, n := mm.HeartbeatRTT()
		c.hbSum += float64(mean) * float64(n)
		c.hbN += float64(n)
		mean, max, n := mm.StrobeLatency()
		c.stSum += float64(mean) * float64(n)
		c.stN += float64(n)
		if max > c.stMax {
			c.stMax = max
		}
		f, b := mm.ControlEgress()
		c.ctlFrames += f
		c.ctlBytes += b
		if dir := mm.JournalPath(); dir != "" {
			n, _ := countEvents(dir) // a torn tail just ends the count
			c.journalEvents += n
		}
	}
	return c
}

// probe is a standalone layer measurement (layers.go), run while the
// workload's cluster is still up.
type probe func(r *run, cl *cluster, out map[string]stat) error

// liveWorkload is one of the five in-process cluster workloads.
type liveWorkload struct {
	primary string // class whose median is op_ms_p50
	// build makes the cluster and performs the unmeasured warm-up launches.
	build func(r *run) (*cluster, error)
	// drive runs the closed loop until the deadline.
	drive func(r *run, cl *cluster, rec *recorder, tr *tracer, until time.Time)
	// probes are the standalone layer measurements this workload's traced
	// run carries (layers.go).
	probes []probe
}

// heapInUse is the live heap after two collections, for footprint deltas.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setupRepeats is how many times an untraced run builds its cluster; the
// median is setup_s, so the slow first build (cold page cache, fresh heap)
// and one unlucky later one do not decide it.
const setupRepeats = 5

// loopUntil runs body once, and then again until the deadline has passed.
func loopUntil(until time.Time, body func()) {
	for {
		body()
		if !time.Now().Before(until) {
			return
		}
	}
}

func (r *run) runLive(w liveWorkload) (*recorder, error) {
	repeats := setupRepeats
	var baseG int
	var baseHeap uint64
	if r.trace {
		repeats = 1
		baseG, baseHeap = runtime.NumGoroutine(), heapInUse()
	}
	var cl *cluster
	for i := 0; i < repeats; i++ {
		if cl != nil {
			cl.close()
		}
		t0 := time.Now()
		var err error
		if cl, err = w.build(r); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	defer cl.close()
	out := r.out
	if r.trace {
		n := float64(len(cl.nms))
		out["proc.goroutines_per_nm"] = stat{Value: float64(runtime.NumGoroutine()-baseG) / n, Unit: "count"}
		out["proc.heap_kib_per_nm"] = stat{Value: (float64(heapInUse()) - float64(baseHeap)) / n / 1024, Unit: "KiB"}
	}

	window := time.Duration(r.seconds * float64(time.Second))
	rec := newRecorder() // the untraced time: every end-to-end number comes from here
	traced := newRecorder()
	var tr *tracer
	before := snapshot(cl, true)
	if !r.trace {
		w.drive(r, cl, rec, nil, time.Now().Add(window))
	} else {
		// Half the window untraced, half traced, in slices ordered
		// off-on-on-off so that heap growth and a host changing speed fall
		// on both halves alike; trace.overhead_pct compares the two. A
		// slice is at least 1.5 s, which holds an iteration of the slowest
		// workload.
		tr = newTracer()
		tr.watch(cl.mms...)
		slices := 2 * max(1, min(4, int(r.seconds/3)))
		for i := 0; i < slices; i++ {
			until := time.Now().Add(window / time.Duration(slices))
			if i%4 == 0 || i%4 == 3 {
				w.drive(r, cl, rec, nil, until)
				continue
			}
			tr.startPoller()
			w.drive(r, cl, traced, tr, until)
			tr.stopPoller()
		}
	}
	after := snapshot(cl, false)

	// The standing cluster never loses a node, so any conviction by its
	// heartbeat detector is a false one, and a failure.
	if bad := cl.convictions(); len(bad) > 0 {
		rec.fail("heartbeat detector convicted healthy nodes %v", bad)
	}
	rec.absorb(traced)
	ops := rec.ops
	if ops == 0 {
		return rec, fmt.Errorf("no operation completed: %v", rec.fails)
	}
	wall := after.at.Sub(before.at) - rec.excluded
	prim := rec.lat[w.primary]
	if len(prim) == 0 {
		return rec, fmt.Errorf("no %s operation completed: %v", w.primary, rec.fails)
	}
	out["op_ms_p50"] = summarize(prim, 0.5, "ms")
	out["ops_per_s"] = stat{Value: float64(ops) / wall.Seconds(), Unit: "1/s", N: ops}
	if !r.trace {
		return rec, nil
	}
	r.reportLayers(w, cl, rec, traced, before, after, wall)
	for _, probe := range w.probes {
		if err := probe(r, cl, out); err != nil {
			return rec, err
		}
	}
	return rec, r.finishTrace(tr)
}

// reportLayers fills in the per-layer metrics of a traced run: class
// latencies and Report-derived layers from the untraced half (rec),
// counter deltas over the whole window, phase dwell from the traced half.
func (r *run) reportLayers(w liveWorkload, cl *cluster, rec, traced *recorder, before, after counters, wall time.Duration) {
	out, ops, prim := r.out, rec.ops, rec.lat[w.primary]
	out["proc.cpu_ms_per_op"] = stat{Value: ms(after.cpu-before.cpu) / float64(ops), Unit: "ms", N: ops}

	// Class latencies and Report-derived layers, from the untraced half.
	out["op_ms_p90"] = p90(prim, "ms")
	for class, name := range map[string]string{"cold": "cold_launch_ms", "warm": "warm_launch_ms"} {
		if xs := rec.lat[class]; len(xs) > 0 {
			out[name+"_p50"] = summarize(xs, 0.5, "ms")
			out[name+"_p90"] = p90(xs, "ms")
		}
	}
	for class, name := range map[string]string{"delta": "delta_launch_ms_p50", "clean": "clean_launch_ms_p50",
		"degraded": "degraded_launch_ms_p50", "degraded_deep": "degraded_deep_launch_ms_p50"} {
		if xs := rec.lat[class]; len(xs) > 0 {
			out[name] = summarize(xs, 0.5, "ms")
		}
	}
	series := func(metric, name, unit string) {
		if xs := rec.series[name]; len(xs) > 0 {
			out[metric] = summarize(xs, 0.5, unit)
		}
	}
	series("recovery_ms_p50", "recovery_ms."+w.primary, "ms")
	series("recovery_deep_ms_p50", "recovery_ms.degraded_deep", "ms")
	if deep := len(rec.lat["degraded_deep"]) + len(traced.lat["degraded_deep"]) + rec.known; deep > 0 {
		out["detector.deep_miss_share"] = stat{Value: 100 * float64(rec.known) / float64(deep), Unit: "%", N: deep}
	}
	series("client.submit_overhead_ms_p50", "overhead_ms", "ms")
	series("admit.queued_ms_p50", "queued_ms", "ms")
	series("stream.send_ms_p50", "send_ms", "ms")
	series("stream.mb_per_s", "stream_mb_per_s", "MB/s")
	series("stream.window_peak", "window_peak", "count")
	series("launch.execute_ms_p50", "execute_ms", "ms")
	series("mm_egress_kb_per_launch", "egress."+w.primary, "KB")
	if s, ok := out["mm_egress_kb_per_launch"]; ok {
		s.Value, s.Q1, s.Q3 = s.Value/1024, s.Q1/1024, s.Q3/1024
		out["mm_egress_kb_per_launch"] = s
	}
	series("stream.chunks_sent_per_launch", "chunks."+w.primary, "count")
	series("detector.replans_per_fault", "replans."+w.primary, "count")
	series("detector.stripe_replans_per_fault", "stripe_replans."+w.primary, "count")
	out["detector.false_convictions"] = stat{Value: float64(len(cl.convictions()) + len(rec.series["false_convictions"]) + len(traced.series["false_convictions"])), Unit: "count"}
	series("federation.root_overhead_ms_p50", "root_overhead_ms", "ms")
	series("federation.partitions_per_job", "partitions", "count")
	if out["federation.partitions_per_job"].N > 0 {
		series("federation.root_egress_bytes_per_launch", "egress."+w.primary, "B")
	}

	// Counter deltas over both halves, per launch on the standing cluster.
	onCluster := float64(ops - rec.offOps)
	if onCluster > 0 {
		out["stream.frags_written_per_launch"] = stat{Value: float64(after.fragsWritten-before.fragsWritten) / onCluster, Unit: "count"}
		out["stream.frags_relayed_per_launch"] = stat{Value: float64(after.fragsRelayed-before.fragsRelayed) / onCluster, Unit: "count"}
		out["chunkcache.evictions_per_launch"] = stat{Value: float64(after.cacheEvicts-before.cacheEvicts) / onCluster, Unit: "count"}
		if n := after.journalEvents - before.journalEvents; n > 0 {
			out["journal.events_per_launch"] = stat{Value: float64(n) / onCluster, Unit: "count"}
		}
	}
	if lookups := (after.cacheHits - before.cacheHits) + (after.cacheMisses - before.cacheMisses); lookups > 0 {
		out["chunkcache.hit_ratio"] = stat{Value: 100 * float64(after.cacheHits-before.cacheHits) / float64(lookups), Unit: "%"}
	}
	delivered := float64(rec.resident) - float64(after.cacheSaved-before.cacheSaved)
	out["delivered_mb_per_s"] = stat{Value: delivered / 1e6 / wall.Seconds(), Unit: "MB/s"}
	attempted := ops + rec.failed + rec.known
	out["failed_share"] = stat{Value: 100 * float64(rec.failed) / float64(attempted), Unit: "%", N: attempted}
	out["proc.allocs_per_launch"] = stat{Value: float64(after.mem.Mallocs-before.mem.Mallocs) / float64(ops), Unit: "count"}
	out["proc.alloc_kb_per_launch"] = stat{Value: float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / float64(ops), Unit: "KB"}
	out["proc.gc_pause_ms"] = stat{Value: float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6, Unit: "ms", N: int(after.mem.NumGC - before.mem.NumGC)}
	if cl.heartbeat > 0 {
		periods := after.at.Sub(before.at).Seconds() / cl.heartbeat.Seconds()
		if n := after.hbN - before.hbN; n > 0 {
			out["ctl.heartbeat_rtt_us_mean"] = stat{Value: (after.hbSum - before.hbSum) / n / 1e3, Unit: "us", N: int(n)}
		}
		if n := after.stN - before.stN; n > 0 {
			out["ctl.strobe_latency_us_mean"] = stat{Value: (after.stSum - before.stSum) / n / 1e3, Unit: "us", N: int(n)}
			out["ctl.strobe_latency_us_max"] = stat{Value: float64(after.stMax) / 1e3, Unit: "us"}
		}
		out["ctl.egress_frames_per_period"] = stat{Value: float64(after.ctlFrames-before.ctlFrames) / periods, Unit: "count"}
		out["ctl.egress_bytes_per_period"] = stat{Value: float64(after.ctlBytes-before.ctlBytes) / periods, Unit: "B"}
	}

	// Phase dwell, cover and overhead, from the traced half.
	for phase, metric := range map[string]string{"admitted": "admit.phase_admitted_ms_p50", "planned": "plan.phase_ms_p50",
		"manifest": "manifest.phase_ms_p50", "streaming": "stream.phase_ms_p50", "launched": "launch.phase_ms_p50"} {
		if xs := traced.series["phase."+phase]; len(xs) > 0 {
			out[metric] = summarize(xs, 0.5, "ms")
		}
	}
	if xs := traced.series["phase_cover_pct."+w.primary]; len(xs) > 0 {
		out["trace.phase_cover_pct"] = summarize(xs, 0.5, "%")
	}
	if tp := traced.lat[w.primary]; len(tp) > 0 {
		base := median(prim)
		out["trace.overhead_pct"] = stat{Value: 100 * (median(tp) - base) / base, Unit: "%", N: len(tp)}
	}
}

// finishTrace prints the self times and writes the spans out.
func (r *run) finishTrace(tr *tracer) error {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("traced part, total self time per span name (ms):")
	for _, n := range names {
		fmt.Printf("  %-12s %10.2f\n", n, self[n])
	}
	path := filepath.Join(scratchDir, fmt.Sprintf("spans-%s-%d.jsonl", r.workload, r.seed))
	if err := tr.writeJSONL(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	return nil
}
