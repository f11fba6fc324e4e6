package livenet

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// BenchmarkFederatedLaunch is the scale headline: launch latency from
// 64 to 512 NMs (1024 with STORM_FED_MAX_NODES=1024), all in one
// process. 64 NMs run level-1 — a flat MM, the paper's demonstrated
// regime — and every larger size runs a level-2 federation of
// 64-NM partitions behind one root. Every NM is hub-routed and lite,
// which is what makes the big sizes fit: ~2 goroutines and ~89 KiB per
// idle NM against the seed's 3 and 261.
//
// The cold series is CPU-bound on a loopback host (n×image bytes must
// move through one kernel), so the near-flat scaling claim rides on the
// warm series: a relaunch of a cached image is pure control plane —
// manifest + HAVE ledger rounds inside each partition, running
// concurrently — and its latency tracks partition size and tree depth,
// not cluster size. Root egress is asserted O(partitions): a handful of
// Submit frames regardless of node count.
//
// Merges a `federation` section into BENCH_livenet.json, preserving
// the sections other benchmarks own.
//
//	go test -run '^$' -bench BenchmarkFederatedLaunch -benchtime=1x ./internal/livenet/
func BenchmarkFederatedLaunch(b *testing.B) {
	const (
		perPart     = 64
		leafFanout  = 4
		leafStripes = 2 // each partition stripes its transfer over 2 disjoint trees
		binaryBytes = 256 << 10
		fragBytes   = 32 << 10
		cacheBytes  = 16 << 20
	)
	maxNodes := 512
	if v, err := strconv.Atoi(os.Getenv("STORM_FED_MAX_NODES")); err == nil && v >= perPart {
		maxNodes = v
	}
	type point struct {
		Nodes           int     `json:"nodes"`
		Partitions      int     `json:"partitions"`
		Levels          int     `json:"levels"`
		ColdSendMS      float64 `json:"cold_send_ms"`
		ColdTotalMS     float64 `json:"cold_total_ms"`
		WarmSendMS      float64 `json:"warm_send_ms"`
		WarmTotalMS     float64 `json:"warm_total_ms"`
		RootEgressCold  int64   `json:"root_egress_cold_bytes"`
		RootEgressWarm  int64   `json:"root_egress_warm_bytes"`
		GoroutinesPerNM float64 `json:"goroutines_per_nm"`
		HeapKiBPerNM    float64 `json:"heap_kib_per_nm"`
	}
	heapNow := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	spec := func(n int, seed uint64) JobSpec {
		return JobSpec{
			Name: "fed-bench", BinaryBytes: binaryBytes, Nodes: n, PEsPerNode: 1,
			ImageSeed: seed, Program: ProgramSpec{Kind: "exit"},
		}
	}
	points := map[int]point{}
	var sizes []int
	for n := perPart; n <= maxNodes; n *= 2 {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		n := n
		parts := n / perPart
		b.Run(fmt.Sprintf("nodes%d", n), func(b *testing.B) {
			baseG := runtime.NumGoroutine()
			baseH := heapNow()
			fed, mms, _, _ := fedCluster(b, parts, perPart, FedConfig{Lite: true},
				MMConfig{Fanout: leafFanout, FragBytes: fragBytes, Stripes: leafStripes},
				func(int) NMConfig { return NMConfig{CacheBytes: cacheBytes} })
			pt := point{Nodes: n, Partitions: parts, Levels: 2}
			if parts == 1 {
				pt.Levels = 1 // a single partition exercises no root fan-out
			}
			pt.GoroutinesPerNM = float64(runtime.NumGoroutine()-baseG) / float64(n)
			pt.HeapKiBPerNM = float64(heapNow()-baseH) / float64(n) / 1024

			// The flat-MM 64-node point submits to the leaf directly; the
			// federated points go through the root. Either way the client
			// call is identical — that is the point of the design.
			runFed := func(seed uint64) (FedReport, error) { return fed.RunJob(spec(n, seed)) }
			runFlat := func(seed uint64) (FedReport, error) {
				rep, err := mms[0].RunJob(spec(n, seed))
				return FedReport{
					Send: rep.Send, Execute: rep.Execute, Total: rep.Total,
					RootEgress: rep.SendBytes,
					Parts:      []PartReport{{Nodes: n, Report: rep}},
				}, err
			}
			run := runFed
			if parts == 1 {
				run = runFlat
			}

			b.SetBytes(int64(binaryBytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Cold: a distinct seed per iteration defeats the caches.
				coldRep, err := run(0xFED_0000 + uint64(n)<<8 + uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				// Warm: first relaunch of the shared warm seed populates
				// the caches (unmeasured past iteration 0's cold half),
				// second is the pure control-plane number.
				warmSeed := 0xACE_0000 + uint64(n)
				if i == 0 {
					if _, err := run(warmSeed); err != nil {
						b.Fatal(err)
					}
				}
				warmRep, err := run(warmSeed)
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range warmRep.Parts {
					if p.Report.ChunksSent != 0 {
						b.Fatalf("warm federated relaunch streamed %d chunks in partition %d, want 0",
							p.Report.ChunksSent, p.Partition)
					}
				}
				if parts > 1 {
					// Root delegation cost is O(partitions): one Submit
					// frame each, regardless of image or cluster size.
					if limit := int64(parts) * 4096; warmRep.RootEgress > limit {
						b.Fatalf("root egress %dB for %d partitions, want <=%d — delegation cost must not scale with nodes",
							warmRep.RootEgress, parts, limit)
					}
				}
				cold := float64(coldRep.Send) / float64(time.Millisecond)
				if pt.ColdSendMS == 0 || cold < pt.ColdSendMS {
					pt.ColdSendMS = cold
					pt.ColdTotalMS = float64(coldRep.Total) / float64(time.Millisecond)
					pt.RootEgressCold = coldRep.RootEgress
				}
				warm := float64(warmRep.Send) / float64(time.Millisecond)
				if pt.WarmSendMS == 0 || warm < pt.WarmSendMS {
					pt.WarmSendMS = warm
					pt.WarmTotalMS = float64(warmRep.Total) / float64(time.Millisecond)
					pt.RootEgressWarm = warmRep.RootEgress
				}
			}
			b.StopTimer()
			b.ReportMetric(pt.WarmSendMS, "warm-send-ms")
			b.ReportMetric(pt.ColdSendMS, "cold-send-ms")
			b.ReportMetric(pt.GoroutinesPerNM, "goroutines/NM")
			b.ReportMetric(pt.HeapKiBPerNM, "heap-KiB/NM")
			if prev, seen := points[n]; !seen || pt.WarmSendMS < prev.WarmSendMS {
				points[n] = pt
			}
		})
	}
	var series []point
	for _, n := range sizes {
		if pt, ok := points[n]; ok {
			series = append(series, pt)
		}
	}
	if len(series) == 0 {
		return
	}
	mergeBenchSummary(b, map[string]any{
		"federation": map[string]any{
			"binary_bytes":  binaryBytes,
			"frag_bytes":    fragBytes,
			"per_partition": perPart,
			"leaf_fanout":   leafFanout,
			"leaf_stripes":  leafStripes,
			"series":        series,
		},
	})
}
