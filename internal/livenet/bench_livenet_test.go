package livenet

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/livenet/faultconn"
)

// BenchmarkLiveLaunch is the live-mode launch-scaling benchmark: send
// time and MM egress vs node count at fixed binary size, for the flat
// fan-out (fanout=1) and for forwarding trees of fanout 2 and 4. It is
// the live analogue of the paper's Fig. 2 node-scalability curve: with
// the tree, send time should stay ~flat in node count while the flat
// fan-out grows linearly.
//
// After all sub-benchmarks it writes BENCH_livenet.json (send-time vs
// node-count series per fanout) to the repository root, mirroring the
// stormsim -json bench summaries.
//
//	go test -run '^$' -bench BenchmarkLiveLaunch -benchtime=1x ./internal/livenet/
func BenchmarkLiveLaunch(b *testing.B) {
	// 512 KB fragments: big enough that per-fragment relay overhead
	// (header parse, ack aggregation, scheduler wakeups per hop) is
	// amortized, the regime the bulk path is designed for.
	const (
		binaryBytes = 2 << 20
		fragBytes   = 512 << 10
	)
	type point struct {
		Fanout        int     `json:"fanout"`
		Nodes         int     `json:"nodes"`
		TreeDepth     int     `json:"tree_depth"`
		SendMS        float64 `json:"send_ms"`
		TotalMS       float64 `json:"total_ms"`
		MMEgressBytes int64   `json:"mm_egress_bytes"`
		// Degraded-tree variant: one node is pre-failed (asymmetrically
		// partitioned before the job starts), so every launch pays one
		// diagnose + replan round. RecoveryMS is the time spent in
		// failure diagnosis and tree rewiring, part of SendMS.
		Degraded   bool    `json:"degraded,omitempty"`
		Replans    int     `json:"replans,omitempty"`
		RecoveryMS float64 `json:"recovery_ms,omitempty"`
	}
	// The sub-benchmark body runs more than once (a b.N=1 sizing pass,
	// then the measured pass), so points are keyed and the fastest
	// launch wins; keys preserves sweep order for the JSON.
	points := map[string]point{}
	var keys []string
	for _, fanout := range []int{1, 2, 4} {
		for _, nodes := range []int{2, 4, 8, 16} {
			name := fmt.Sprintf("fanout=%d/nodes=%d", fanout, nodes)
			b.Run(name, func(b *testing.B) {
				mm, _ := startCluster(b, nodes, MMConfig{Fanout: fanout, FragBytes: fragBytes})
				spec := JobSpec{
					Name: "bench", BinaryBytes: binaryBytes, Nodes: nodes, PEsPerNode: 1,
					Program: ProgramSpec{Kind: "exit"},
				}
				best := point{Fanout: fanout, Nodes: nodes, TreeDepth: treeDepth(nodes, fanout)}
				b.SetBytes(binaryBytes)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep, err := mm.RunJob(spec)
					if err != nil {
						b.Fatal(err)
					}
					sendMS := float64(rep.Send) / float64(time.Millisecond)
					if best.SendMS == 0 || sendMS < best.SendMS {
						best.SendMS = sendMS
						best.TotalMS = float64(rep.Total) / float64(time.Millisecond)
						best.MMEgressBytes = rep.SendBytes
					}
				}
				b.StopTimer()
				b.ReportMetric(best.SendMS, "send-ms")
				b.ReportMetric(float64(best.MMEgressBytes), "mm-bytes")
				prev, seen := points[name]
				if !seen {
					keys = append(keys, name)
				}
				if !seen || best.SendMS < prev.SendMS {
					points[name] = best
				}
			})
		}
	}
	// Degraded-tree variant: the highest-numbered node (a tree leaf) is
	// one-way partitioned before submission, so the MM discovers it
	// mid-transfer, excludes it, and completes on the survivors. The
	// recovery latency (diagnose + replan) is reported separately.
	for _, nodes := range []int{4, 8, 16} {
		const fanout = 2
		name := fmt.Sprintf("degraded/fanout=%d/nodes=%d", fanout, nodes)
		b.Run(name, func(b *testing.B) {
			victim := nodes - 1
			mm, _, _ := chaosCluster(b, nodes, MMConfig{
				Fanout: fanout, FragBytes: fragBytes, AckTimeout: 500 * time.Millisecond,
			}, func(node int) NMConfig {
				if node != victim {
					return NMConfig{}
				}
				return NMConfig{WrapConn: func(c net.Conn) net.Conn {
					plan := faultconn.NewPlan()
					plan.BlockReads = true
					return faultconn.Wrap(c, plan)
				}}
			})
			spec := JobSpec{
				Name: "bench-degraded", BinaryBytes: binaryBytes, Nodes: nodes, PEsPerNode: 1,
				Program: ProgramSpec{Kind: "exit"},
			}
			best := point{Fanout: fanout, Nodes: nodes, TreeDepth: treeDepth(nodes, fanout), Degraded: true}
			b.SetBytes(binaryBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := mm.RunJob(spec)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Failed) != 1 || rep.Failed[0] != victim {
					b.Fatalf("degraded launch did not exclude node %d: %+v", victim, rep)
				}
				sendMS := float64(rep.Send) / float64(time.Millisecond)
				if best.SendMS == 0 || sendMS < best.SendMS {
					best.SendMS = sendMS
					best.TotalMS = float64(rep.Total) / float64(time.Millisecond)
					best.MMEgressBytes = rep.SendBytes
					best.Replans = rep.Replans
					best.RecoveryMS = float64(rep.Recovery) / float64(time.Millisecond)
				}
			}
			b.StopTimer()
			b.ReportMetric(best.SendMS, "send-ms")
			b.ReportMetric(best.RecoveryMS, "recovery-ms")
			prev, seen := points[name]
			if !seen {
				keys = append(keys, name)
			}
			if !seen || best.SendMS < prev.SendMS {
				points[name] = best
			}
		})
	}
	if len(keys) == 0 {
		return
	}
	// Healthy-tree rows and degraded-tree rows are separate series: the
	// degraded sweep answers a different question (recovery overhead, not
	// scaling), and mixing them would skew any reader plotting `series`.
	series := make([]point, 0, len(keys))
	var degraded []point
	for _, k := range keys {
		if p := points[k]; p.Degraded {
			degraded = append(degraded, p)
		} else {
			series = append(series, p)
		}
	}
	mergeBenchSummary(b, map[string]any{
		"id":              "livenet",
		"when":            time.Now().UTC(),
		"binary_bytes":    binaryBytes,
		"frag_bytes":      fragBytes,
		"series":          series,
		"degraded_series": degraded,
	})
}

// BenchmarkStripedLaunch sweeps the striped data plane: the same
// 12 MB/16-node launch carried over k ∈ {1, 2, 4} disjoint spanning
// trees, chunks interleaved round-robin. With one tree, a relay's
// uplink is the serial bottleneck for the whole image; with k trees
// every node is interior in at most one stripe, so the transfer
// engages k relay uplinks at once and cold send time drops toward 1/k
// until the MM's own egress link saturates.
//
// Loopback links are memcpy-fast, so on the bare host the relay
// bottleneck the stripes attack never appears (the transfer is
// CPU-bound and k-independent). The cold series therefore shapes every
// NM link with a per-frame write delay emulating a ~128 MB/s uplink
// (512 KiB / 4 ms), the commodity-network regime of the paper's
// Table 5 — the same faultconn wrapping the degraded series uses. The
// warm row per stripe count runs on a separate cached cluster and pins
// the delta path's invariance: a cached relaunch streams 0 chunks no
// matter how many trees the cold launch used.
//
// Merges a `striped` section into BENCH_livenet.json.
//
//	go test -run '^$' -bench BenchmarkStripedLaunch -benchtime=1x ./internal/livenet/
func BenchmarkStripedLaunch(b *testing.B) {
	const (
		binaryBytes = 12 << 20
		fragBytes   = 512 << 10
		nodes       = 16
		fanout      = 2
		linkDelay   = 4 * time.Millisecond // per-frame: 512 KiB / 4 ms ~ 128 MB/s uplinks
	)
	type point struct {
		Stripes       int     `json:"stripes"`
		Nodes         int     `json:"nodes"`
		ColdSendMS    float64 `json:"cold_send_ms"`
		ColdTotalMS   float64 `json:"cold_total_ms"`
		MMEgressBytes int64   `json:"mm_egress_bytes"`
		WarmSendMS    float64 `json:"warm_send_ms"`
		WarmChunks    int     `json:"warm_chunks_sent"`
	}
	points := map[int]point{}
	sweep := []int{1, 2, 4}
	for _, stripes := range sweep {
		stripes := stripes
		b.Run(fmt.Sprintf("stripes=%d", stripes), func(b *testing.B) {
			shape := func(int) NMConfig {
				return NMConfig{WrapConn: func(c net.Conn) net.Conn {
					plan := faultconn.NewPlan()
					plan.WriteDelay = linkDelay
					return faultconn.Wrap(c, plan)
				}}
			}
			// Cold cluster: shaped links, no caches (a cacheless NM keeps
			// the heap flat across iterations, so GC never pollutes the
			// series). Warm cluster: same shaped links plus chunk caches,
			// populated once — it only ever sees the one warm image.
			mm, _, _ := chaosCluster(b, nodes, MMConfig{
				Fanout: fanout, FragBytes: fragBytes, Stripes: stripes,
			}, shape)
			warmMM, _, _ := chaosCluster(b, nodes, MMConfig{
				Fanout: fanout, FragBytes: fragBytes, Stripes: stripes,
			}, func(n int) NMConfig {
				cfg := shape(n)
				cfg.CacheBytes = 32 << 20
				return cfg
			})
			spec := func(seed uint64) JobSpec {
				return JobSpec{
					Name: "striped-bench", BinaryBytes: binaryBytes, Nodes: nodes, PEsPerNode: 1,
					ImageSeed: seed, Program: ProgramSpec{Kind: "exit"},
				}
			}
			warmSeed := 0xCAFE_0000 + uint64(stripes)
			if _, err := warmMM.RunJob(spec(warmSeed)); err != nil {
				b.Fatal(err)
			}
			best := point{Stripes: stripes, Nodes: nodes}
			b.SetBytes(binaryBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Cold: a distinct seed per iteration, every chunk streams.
				rep, err := mm.RunJob(spec(0x517 + uint64(stripes)<<16 + uint64(i)<<24))
				if err != nil {
					b.Fatal(err)
				}
				if want := binaryBytes / fragBytes; rep.ChunksSent != want {
					b.Fatalf("cold striped launch streamed %d chunks, want %d", rep.ChunksSent, want)
				}
				cold := float64(rep.Send) / float64(time.Millisecond)
				if best.ColdSendMS == 0 || cold < best.ColdSendMS {
					best.ColdSendMS = cold
					best.ColdTotalMS = float64(rep.Total) / float64(time.Millisecond)
					best.MMEgressBytes = rep.SendBytes
				}
				// Warm: relaunch of the cached image must stream 0 chunks
				// at any stripe count.
				warm, err := warmMM.RunJob(spec(warmSeed))
				if err != nil {
					b.Fatal(err)
				}
				if warm.ChunksSent != 0 {
					b.Fatalf("warm relaunch at stripes=%d streamed %d chunks, want 0",
						stripes, warm.ChunksSent)
				}
				best.WarmChunks = warm.ChunksSent
				warmMS := float64(warm.Send) / float64(time.Millisecond)
				if best.WarmSendMS == 0 || warmMS < best.WarmSendMS {
					best.WarmSendMS = warmMS
				}
			}
			b.StopTimer()
			b.ReportMetric(best.ColdSendMS, "cold-send-ms")
			b.ReportMetric(float64(best.MMEgressBytes), "mm-bytes")
			if prev, seen := points[stripes]; !seen || best.ColdSendMS < prev.ColdSendMS {
				points[stripes] = best
			}
		})
	}
	series := make([]point, 0, len(sweep))
	for _, s := range sweep {
		if pt, ok := points[s]; ok {
			series = append(series, pt)
		}
	}
	if len(series) == 0 {
		return
	}
	fields := map[string]any{
		"binary_bytes":       binaryBytes,
		"frag_bytes":         fragBytes,
		"nodes":              nodes,
		"fanout":             fanout,
		"link_frame_delay":   linkDelay.String(),
		"link_mbps_emulated": float64(fragBytes) / linkDelay.Seconds() / (1 << 20),
		"series":             series,
	}
	if s1, ok := points[1]; ok {
		if s4, ok := points[4]; ok && s4.ColdSendMS > 0 {
			speedup := s1.ColdSendMS / s4.ColdSendMS
			fields["speedup_stripes4"] = speedup
			b.Logf("stripes=4 cold speedup: %.2fx (%.1f ms -> %.1f ms)",
				speedup, s1.ColdSendMS, s4.ColdSendMS)
		}
	}
	mergeBenchSummary(b, map[string]any{"striped": fields})
}

// BenchmarkDeltaLaunch measures the content-addressed delta-transfer
// path: a cold seeded launch (every chunk streams), a warm relaunch of
// the identical image (every chunk is served from NM caches, so the MM
// pays ~control-plane cost), and a one-chunk rebuild (exactly one chunk
// in the need union, at most fanout copies of its payload on the wire).
//
// After the sub-benchmarks it merges a `delta_launch` section into
// BENCH_livenet.json alongside the launch-scaling and control-plane
// series.
//
//	go test -run '^$' -bench BenchmarkDeltaLaunch -benchtime=1x ./internal/livenet/
func BenchmarkDeltaLaunch(b *testing.B) {
	const (
		binaryBytes = 12 << 20
		fragBytes   = 512 << 10
		nodes       = 16
		fanout      = 2
		patchedIdx  = 7
	)
	type result struct {
		SendMS        float64 `json:"send_ms"`
		TotalMS       float64 `json:"total_ms"`
		MMEgressBytes int64   `json:"mm_egress_bytes"`
		ChunksSent    int     `json:"chunks_sent"`
		BytesSaved    int64   `json:"bytes_saved"`
	}
	results := map[string]result{}
	// Each sub-benchmark builds a fresh cluster, so the caches start
	// cold; warm/delta pre-populate them with one unmeasured launch.
	newCluster := func(b *testing.B) *MM {
		mm, _, _ := chaosCluster(b, nodes, MMConfig{Fanout: fanout, FragBytes: fragBytes},
			func(int) NMConfig { return NMConfig{CacheBytes: 64 << 20} })
		return mm
	}
	spec := func(seed uint64, patch map[int]uint64) JobSpec {
		return JobSpec{
			Name: "delta-bench", BinaryBytes: binaryBytes, Nodes: nodes, PEsPerNode: 1,
			ImageSeed: seed, ImagePatch: patch,
			Program: ProgramSpec{Kind: "exit"},
		}
	}
	record := func(best *result, rep Report) {
		sendMS := float64(rep.Send) / float64(time.Millisecond)
		if best.SendMS == 0 || sendMS < best.SendMS {
			best.SendMS = sendMS
			best.TotalMS = float64(rep.Total) / float64(time.Millisecond)
			best.MMEgressBytes = rep.SendBytes
			best.ChunksSent = rep.ChunksSent
			best.BytesSaved = rep.BytesSaved
		}
	}
	keep := func(name string, best result) {
		if prev, seen := results[name]; !seen || best.SendMS < prev.SendMS {
			results[name] = best
		}
	}
	b.Run("cold", func(b *testing.B) {
		mm := newCluster(b)
		var best result
		b.SetBytes(binaryBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A distinct seed per iteration keeps every launch cold even
			// though the cluster (and its caches) persists across them.
			rep, err := mm.RunJob(spec(0xC01D_0000+uint64(i), nil))
			if err != nil {
				b.Fatal(err)
			}
			record(&best, rep)
		}
		b.StopTimer()
		b.ReportMetric(best.SendMS, "send-ms")
		b.ReportMetric(float64(best.MMEgressBytes), "mm-bytes")
		keep("cold", best)
	})
	b.Run("warm", func(b *testing.B) {
		mm := newCluster(b)
		if _, err := mm.RunJob(spec(0xCAFE, nil)); err != nil {
			b.Fatal(err)
		}
		var best result
		b.SetBytes(binaryBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := mm.RunJob(spec(0xCAFE, nil))
			if err != nil {
				b.Fatal(err)
			}
			if rep.ChunksSent != 0 {
				b.Fatalf("warm relaunch streamed %d chunks, want 0", rep.ChunksSent)
			}
			record(&best, rep)
		}
		b.StopTimer()
		b.ReportMetric(best.SendMS, "send-ms")
		b.ReportMetric(float64(best.MMEgressBytes), "mm-bytes")
		keep("warm", best)
	})
	b.Run("delta-1chunk", func(b *testing.B) {
		mm := newCluster(b)
		if _, err := mm.RunJob(spec(0xCAFE, nil)); err != nil {
			b.Fatal(err)
		}
		var best result
		b.SetBytes(binaryBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh patch value each iteration keeps exactly one chunk
			// cold relative to the caches.
			rep, err := mm.RunJob(spec(0xCAFE, map[int]uint64{patchedIdx: 0x1000 + uint64(i)}))
			if err != nil {
				b.Fatal(err)
			}
			if rep.ChunksSent != 1 {
				b.Fatalf("1-chunk delta streamed %d chunks, want 1", rep.ChunksSent)
			}
			if limit := int64(fanout*fragBytes + 64<<10); rep.SendBytes > limit {
				b.Fatalf("1-chunk delta cost %d egress bytes, want <=%d", rep.SendBytes, limit)
			}
			record(&best, rep)
		}
		b.StopTimer()
		b.ReportMetric(best.SendMS, "send-ms")
		b.ReportMetric(float64(best.MMEgressBytes), "mm-bytes")
		keep("delta-1chunk", best)
	})
	cold, warm := results["cold"], results["warm"]
	if cold.SendMS == 0 || warm.SendMS == 0 {
		return
	}
	speedup := cold.SendMS / warm.SendMS
	b.Logf("warm relaunch speedup: %.1fx (cold %.2f ms -> warm %.2f ms)",
		speedup, cold.SendMS, warm.SendMS)
	mergeBenchSummary(b, map[string]any{
		"delta_launch": map[string]any{
			"binary_bytes": binaryBytes,
			"frag_bytes":   fragBytes,
			"nodes":        nodes,
			"fanout":       fanout,
			"chunks":       binaryBytes / fragBytes,
			"cold":         cold,
			"warm":         warm,
			"delta_1chunk": results["delta-1chunk"],
			"warm_speedup": speedup,
		},
	})
}

// mergeBenchSummary updates the given top-level keys of
// BENCH_livenet.json in place, preserving sections written by other
// benchmarks (launch scaling and the control plane share the file).
func mergeBenchSummary(b *testing.B, fields map[string]any) {
	b.Helper()
	out := filepath.Join(repoRoot(), "BENCH_livenet.json")
	doc := map[string]json.RawMessage{}
	if data, err := os.ReadFile(out); err == nil {
		// A malformed existing file is simply rebuilt from this run.
		json.Unmarshal(data, &doc)
	}
	for k, v := range fields {
		raw, err := json.Marshal(v)
		if err != nil {
			b.Fatal(err)
		}
		doc[k] = raw
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		b.Fatalf("bench summary: %v", err)
	}
	b.Logf("wrote %s", out)
}

// BenchmarkControlPlane measures the lightning-fast control plane as
// the cluster grows: heartbeat ping→full-ledger RTT, strobe propagation
// latency, and the MM's per-period control egress in frames and bytes.
// The egress series is the O(fanout) evidence — frames per period stays
// at ~Fanout (plus the strobe multicasts) while node count scales —
// and strobe latency should track tree depth, not node count.
//
//	go test -run '^$' -bench BenchmarkControlPlane -benchtime=1x ./internal/livenet/
func BenchmarkControlPlane(b *testing.B) {
	const (
		period  = 20 * time.Millisecond
		quantum = 10 * time.Millisecond
		fanout  = 2
		window  = 25 // heartbeat periods per measured sample
	)
	type point struct {
		Nodes              int     `json:"nodes"`
		TreeDepth          int     `json:"tree_depth"`
		HeartbeatRTTUS     float64 `json:"heartbeat_rtt_us"`
		HeartbeatRTTMaxUS  float64 `json:"heartbeat_rtt_max_us"`
		StrobeLatencyUS    float64 `json:"strobe_latency_us"`
		StrobeLatencyMaxUS float64 `json:"strobe_latency_max_us"`
		CtlFramesPerPeriod float64 `json:"mm_ctl_frames_per_period"`
		CtlBytesPerPeriod  float64 `json:"mm_ctl_bytes_per_period"`
	}
	points := map[string]point{}
	var keys []string
	for _, nodes := range []int{2, 4, 8, 16, 32} {
		name := fmt.Sprintf("nodes=%d", nodes)
		b.Run(name, func(b *testing.B) {
			mm, _ := startCluster(b, nodes, MMConfig{Fanout: fanout, GangQuantum: quantum, MPL: 2})
			stop := mm.StartHeartbeat(period, nil)
			defer stop()
			// A long sleep job keeps a gang row busy so strobes flow, and
			// its transfer is over before sampling starts, so the egress
			// window sees pure control traffic.
			jobDone := make(chan error, 1)
			go func() {
				_, err := mm.RunJob(JobSpec{
					Name: "ctl-bench", BinaryBytes: 64 << 10, Nodes: nodes, PEsPerNode: 1,
					Program: ProgramSpec{Kind: "sleep",
						Duration: time.Duration(b.N)*(window+10)*period + time.Second},
				})
				jobDone <- err
			}()
			deadline := time.Now().Add(10 * time.Second)
			for mm.status().Strobes < 2 {
				if time.Now().After(deadline) {
					b.Fatal("strobes never started")
				}
				time.Sleep(period)
			}
			time.Sleep(4 * period) // ledgers warm under the final epoch
			best := point{Nodes: nodes, TreeDepth: treeDepth(nodes, fanout)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hbMean0, _, hbN0 := mm.HeartbeatRTT()
				stMean0, _, stN0 := mm.StrobeLatency()
				f0, by0 := mm.ControlEgress()
				t0 := time.Now()
				time.Sleep(window * period)
				elapsed := time.Since(t0)
				hbMean1, hbMax, hbN1 := mm.HeartbeatRTT()
				stMean1, stMax, stN1 := mm.StrobeLatency()
				f1, by1 := mm.ControlEgress()
				periods := float64(elapsed) / float64(period)
				p := point{
					Nodes:              nodes,
					TreeDepth:          treeDepth(nodes, fanout),
					HeartbeatRTTUS:     windowedMeanUS(hbMean0, hbN0, hbMean1, hbN1),
					HeartbeatRTTMaxUS:  float64(hbMax) / float64(time.Microsecond),
					StrobeLatencyUS:    windowedMeanUS(stMean0, stN0, stMean1, stN1),
					StrobeLatencyMaxUS: float64(stMax) / float64(time.Microsecond),
					CtlFramesPerPeriod: float64(f1-f0) / periods,
					CtlBytesPerPeriod:  float64(by1-by0) / periods,
				}
				if hbN1 == hbN0 {
					b.Fatal("no heartbeat rounds completed in the window")
				}
				if stN1 == stN0 {
					b.Fatal("no strobe rounds completed in the window")
				}
				if best.HeartbeatRTTUS == 0 || p.HeartbeatRTTUS < best.HeartbeatRTTUS {
					best = p
				}
			}
			b.StopTimer()
			stop()
			if err := <-jobDone; err != nil {
				b.Fatalf("background gang job: %v", err)
			}
			b.ReportMetric(best.HeartbeatRTTUS, "hb-rtt-us")
			b.ReportMetric(best.StrobeLatencyUS, "strobe-us")
			b.ReportMetric(best.CtlFramesPerPeriod, "ctl-frames/period")
			prev, seen := points[name]
			if !seen {
				keys = append(keys, name)
			}
			if !seen || best.HeartbeatRTTUS < prev.HeartbeatRTTUS {
				points[name] = best
			}
		})
	}
	if len(keys) == 0 {
		return
	}
	series := make([]point, 0, len(keys))
	for _, k := range keys {
		series = append(series, points[k])
	}
	mergeBenchSummary(b, map[string]any{
		"control_plane": map[string]any{
			"fanout":           fanout,
			"heartbeat_period": period.String(),
			"gang_quantum":     quantum.String(),
			"series":           series,
		},
	})
}

// BenchmarkReintegration measures the heal-back-to-full-strength path:
// the time from killing an NM to the detector convicting it
// (detect_ms), and from the kill to the restarted NM being
// placement-eligible again after its rejoin probation (reintegrate_ms).
// The floor is heartbeat_period * (conviction streak + probation
// periods); anything far above that is protocol overhead.
//
// After the run it merges a `recovery` section into BENCH_livenet.json.
//
//	go test -run '^$' -bench BenchmarkReintegration -benchtime=1x ./internal/livenet/
func BenchmarkReintegration(b *testing.B) {
	const (
		nodes  = 8
		fanout = 2
		period = 50 * time.Millisecond
	)
	type result struct {
		HeartbeatPeriodMS float64 `json:"heartbeat_period_ms"`
		ProbationPeriods  int     `json:"probation_periods"`
		DetectMS          float64 `json:"detect_ms"`
		ReintegrateMS     float64 `json:"reintegrate_ms"`
	}
	var best result
	for i := 0; i < b.N; i++ {
		// A fresh cluster per iteration: the victim NM is consumed by the
		// kill and its node ID re-registered by the rejoin.
		mm, nms, _ := chaosCluster(b, nodes, MMConfig{Fanout: fanout}, func(int) NMConfig { return NMConfig{} })
		victim := nodes - 1
		fails := make(chan int, nodes)
		stop := mm.StartHeartbeat(period, func(n int) { fails <- n })
		time.Sleep(4 * period) // let the detector settle on a full ledger

		t0 := time.Now()
		nms[victim].Close()
		var detect time.Duration
		deadline := time.After(30 * period)
	conviction:
		for {
			select {
			case n := <-fails:
				if n == victim {
					detect = time.Since(t0)
					break conviction
				}
			case <-deadline:
				b.Fatal("detector never convicted the killed NM")
			}
		}

		nm2, err := NewNMConfig(mm.Addr(), victim, 4, NMConfig{Rejoin: true})
		if err != nil {
			b.Fatalf("rejoin: %v", err)
		}
		b.Cleanup(nm2.Close)
		var reintegrate time.Duration
		for wait := time.Now().Add(30 * period); ; {
			if nodeRow(mm, victim).eligible() {
				reintegrate = time.Since(t0)
				break
			}
			if time.Now().After(wait) {
				b.Fatal("rejoined NM never became placement-eligible")
			}
			time.Sleep(period / 10)
		}
		stop()

		r := result{
			HeartbeatPeriodMS: float64(period) / float64(time.Millisecond),
			ProbationPeriods:  rejoinProbation,
			DetectMS:          float64(detect) / float64(time.Millisecond),
			ReintegrateMS:     float64(reintegrate) / float64(time.Millisecond),
		}
		if best.ReintegrateMS == 0 || r.ReintegrateMS < best.ReintegrateMS {
			best = r
		}
	}
	b.StopTimer()
	b.ReportMetric(best.DetectMS, "detect-ms")
	b.ReportMetric(best.ReintegrateMS, "reintegrate-ms")
	mergeBenchSummary(b, map[string]any{"recovery": best})
}

// windowedMeanUS converts two cumulative (mean, count) samples into the
// mean over the window between them, in microseconds.
func windowedMeanUS(m0 time.Duration, n0 int64, m1 time.Duration, n1 int64) float64 {
	if n1 <= n0 {
		return 0
	}
	sum := float64(m1)*float64(n1) - float64(m0)*float64(n0)
	return sum / float64(n1-n0) / float64(time.Microsecond)
}

// repoRoot walks up from the working directory to the directory holding
// go.mod, so the bench summary lands at the repository root no matter
// where `go test` chdirs to. Falls back to the working directory.
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			return dir
		}
		d = parent
	}
}
