package main

import "repro/internal/metrics"

// metricDef declares one metric the benchmark prints. BENCHMARK.json
// carries the same names, units and directions, and the end-to-end bounds;
// bench_test.go asserts the two agree. The trailing "->" comment on a
// per-layer metric is the end-to-end metric x workload it is predicted to
// move (README's table).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the base by which the metric may worsen before
	// -compare calls it worse and -selfcheck calls it different. The
	// end-to-end bounds are BENCHMARK.json's; a per-layer metric has one
	// where the issue gave it one, and is judged only then.
	Bound float64
	// Slack is an absolute worsening, in the metric's unit, that is always
	// tolerated: a quarter of an 86 ms set-up is 21 ms of noise.
	Slack float64
	// Exact marks a count that must repeat exactly under one seed on the
	// workloads whose launches are all alike (workloadDef.exactCounts). On
	// the others it depends on timing and is not judged: two sets of one
	// build put mm_egress_kb_per_launch 2 % apart on tenants64 and faulty16.
	Exact bool
}

// endToEnd is what a user of the system sees, defined so that every
// workload reports every one of them and none is ever zero. "op" is one
// job launch on the five live workloads and ten million simulated events
// on sim_figs; op_ms_p50 is the median over the
// workload's primary class only (see workloads.go), so a mixed workload
// never reports the median of a bimodal distribution.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Slack: 0.3},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer is everything else: the issue's workload-specific end-to-end
// numbers (they do not apply to every workload, so the contract's "every
// end-to-end metric on every workload, never zero" rule demotes them to
// this list, which has no bounds in BENCHMARK.json; they keep the issue's
// bounds here, for -compare and -selfcheck) followed by the layer metrics,
// grouped by the module they time. A metric that does not apply to a
// workload prints 0.
var perLayer = []metricDef{
	{Name: "cold_launch_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10},                   // -> is op_ms_p50 on cold16
	{Name: "cold_launch_ms_p90", Unit: "ms", Better: "lower", Bound: 0.20},                   // -> tail of cold16, tenants64 (n>=100 only)
	{Name: "warm_launch_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10},                   // -> is op_ms_p50 on warm16, fed256
	{Name: "warm_launch_ms_p90", Unit: "ms", Better: "lower", Bound: 0.20},                   // -> tail of warm16, tenants64 (n>=100 only)
	{Name: "delta_launch_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10},                  // -> ops_per_s on warm16
	{Name: "clean_launch_ms_p50", Unit: "ms", Better: "lower"},                               // -> ops_per_s on faulty16 (shaped links, no fault)
	{Name: "degraded_launch_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10},               // -> is op_ms_p50 on faulty16
	{Name: "recovery_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10},                      // -> op_ms_p50 on faulty16
	{Name: "degraded_deep_launch_ms_p50", Unit: "ms", Better: "lower"},                       // -> ops_per_s on faulty16 (victim reported by its parent relay)
	{Name: "recovery_deep_ms_p50", Unit: "ms", Better: "lower"},                              // -> degraded_deep_launch_ms_p50 on faulty16
	{Name: "op_ms_p90", Unit: "ms", Better: "lower"},                                         // -> tail of the primary class (n>=100 only)
	{Name: "delivered_mb_per_s", Unit: "MB/s", Better: "higher", Bound: 0.10},                // -> ops_per_s on cold16, faulty16
	{Name: "mm_egress_kb_per_launch", Unit: "KB", Better: "lower", Bound: 0.01, Exact: true}, // -> exact count; op_ms_p50 on cold16
	{Name: "failed_share", Unit: "%", Better: "lower"},                                       // -> must stay 0 everywhere
	{Name: "sim_suite_s", Unit: "s", Better: "lower", Bound: 0.10},                           // -> op_ms_p50 on sim_figs (which is per 1e7 events)
	{Name: "sim_events_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},                   // -> ops_per_s on sim_figs

	{Name: "client.submit_overhead_ms_p50", Unit: "ms", Better: "lower"},                 // -> op_ms_p50 on tenants64; nothing on cold16
	{Name: "client.status_query_us_p50", Unit: "us", Better: "lower"},                    // -> op_ms_p50 on tenants64
	{Name: "admit.queued_ms_p50", Unit: "ms", Better: "lower"},                           // -> ops_per_s on tenants64; ~0 with one client
	{Name: "admit.phase_admitted_ms_p50", Unit: "ms", Better: "lower"},                   // -> ops_per_s, op_ms_p50 on tenants64
	{Name: "place.pick_ns_64", Unit: "ns", Better: "lower"},                              // -> ops_per_s on tenants64; invisible elsewhere
	{Name: "place.pick_ns_1024", Unit: "ns", Better: "lower"},                            // -> ops_per_s on tenants64; invisible elsewhere
	{Name: "plan.phase_ms_p50", Unit: "ms", Better: "lower"},                             // -> op_ms_p50 on warm16, fed256
	{Name: "manifest.phase_ms_p50", Unit: "ms", Better: "lower"},                         // -> op_ms_p50 on warm16; small share on cold16
	{Name: "stream.phase_ms_p50", Unit: "ms", Better: "lower"},                           // -> op_ms_p50 on cold16, clean half of faulty16
	{Name: "stream.send_ms_p50", Unit: "ms", Better: "lower"},                            // -> op_ms_p50 on cold16, faulty16
	{Name: "stream.mb_per_s", Unit: "MB/s", Better: "higher"},                            // -> delivered_mb_per_s on cold16
	{Name: "stream.window_peak", Unit: "count", Better: "lower"},                         // -> op_ms_p50 on cold16, faulty16
	{Name: "stream.chunks_sent_per_launch", Unit: "count", Better: "lower", Exact: true}, // -> exact count; 0 on warm16
	{Name: "stream.frags_written_per_launch", Unit: "count", Better: "lower"},            // -> exact count on cold16
	{Name: "stream.frags_relayed_per_launch", Unit: "count", Better: "lower"},            // -> exact count on cold16
	{Name: "launch.execute_ms_p50", Unit: "ms", Better: "lower"},                         // -> op_ms_p50 on warm16, fed256
	{Name: "launch.phase_ms_p50", Unit: "ms", Better: "lower"},                           // -> op_ms_p50 on warm16, fed256
	{Name: "ctl.heartbeat_rtt_us_mean", Unit: "us", Better: "lower"},                     // -> recovery_ms_p50 on faulty16
	{Name: "ctl.strobe_latency_us_mean", Unit: "us", Better: "lower"},                    // -> ops_per_s on tenants64
	{Name: "ctl.strobe_latency_us_max", Unit: "us", Better: "lower"},                     // -> tail of tenants64
	{Name: "ctl.egress_frames_per_period", Unit: "count", Better: "lower"},               // -> proc.cpu_ms_per_op on tenants64, faulty16
	{Name: "ctl.egress_bytes_per_period", Unit: "B", Better: "lower"},                    // -> proc.cpu_ms_per_op on tenants64, faulty16
	{Name: "detector.replans_per_fault", Unit: "count", Better: "lower"},                 // -> recovery_ms_p50 on faulty16
	{Name: "detector.stripe_replans_per_fault", Unit: "count", Better: "lower"},          // -> recovery_ms_p50 on faulty16
	{Name: "detector.deep_miss_share", Unit: "%", Better: "lower"},                       // -> known defect: deep-victim launches not ending Failed == [victim], survivors identical
	{Name: "detector.false_convictions", Unit: "count", Better: "lower"},                 // -> must stay 0 on faulty16
	{Name: "federation.root_overhead_ms_p50", Unit: "ms", Better: "lower"},               // -> op_ms_p50 on fed256
	{Name: "federation.root_egress_bytes_per_launch", Unit: "B", Better: "lower"},        // -> exact-ish count on fed256
	{Name: "federation.partitions_per_job", Unit: "count", Better: "lower"},              // -> op_ms_p50 on fed256
	{Name: "chunkcache.put_mb_per_s", Unit: "MB/s", Better: "higher"},                    // -> op_ms_p50 on cold16
	{Name: "chunkcache.get_mb_per_s", Unit: "MB/s", Better: "higher"},                    // -> op_ms_p50 on warm16
	{Name: "chunkcache.use_ns", Unit: "ns", Better: "lower"},                             // -> op_ms_p50 on warm16
	{Name: "chunkcache.hit_ratio", Unit: "%", Better: "higher"},                          // -> ops_per_s on tenants64
	{Name: "chunkcache.evictions_per_launch", Unit: "count", Better: "lower"},            // -> ops_per_s on tenants64, cold16
	{Name: "journal.append_us_p50", Unit: "us", Better: "lower"},                         // -> ops_per_s on tenants64
	{Name: "journal.replay_events_per_s", Unit: "1/s", Better: "higher"},                 // -> setup_s after an MM restart (no workload yet)
	{Name: "journal.events_per_launch", Unit: "count", Better: "lower"},                  // -> ops_per_s on tenants64
	{Name: "sim.kernel_events_per_s", Unit: "1/s", Better: "higher"},                     // -> sim_events_per_s on sim_figs
	{Name: "sim.suite_events", Unit: "count", Better: "lower", Exact: true},              // -> exact count on sim_figs
	{Name: "experiments.launch_family_s", Unit: "s", Better: "lower"},                    // -> setup_s on sim_figs
	{Name: "experiments.gang_family_s", Unit: "s", Better: "lower"},                      // -> op_ms_p50 on sim_figs
	{Name: "experiments.slowest_s", Unit: "s", Better: "lower"},                          // -> op_ms_p50 on sim_figs (critical path)
	{Name: "proc.cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.10},               // -> op_ms_p50 wherever one client is CPU-bound (cold16, warm16)
	{Name: "proc.goroutines_per_nm", Unit: "count", Better: "lower"},                     // -> peak_rss_mb on fed256
	{Name: "proc.heap_kib_per_nm", Unit: "KiB", Better: "lower"},                         // -> peak_rss_mb on fed256
	{Name: "proc.allocs_per_launch", Unit: "count", Better: "lower"},                     // -> proc.cpu_ms_per_op on warm16
	{Name: "proc.alloc_kb_per_launch", Unit: "KB", Better: "lower"},                      // -> proc.cpu_ms_per_op on warm16
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},                              // -> tail of every live workload
	{Name: "proc.teardown_hung", Unit: "count", Better: "lower"},                         // -> must stay 0 (ROADMAP item 0)
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},                             // -> traced vs untraced op_ms_p50, same run
	{Name: "trace.phase_cover_pct", Unit: "%", Better: "higher"},                         // -> share of the median launch the phase spans explain
}

// stat is one printed metric: its value and, where the value summarizes
// per-operation samples, their quartiles and count.
type stat struct {
	Value  float64
	Unit   string
	Q1, Q3 float64
	N      int
}

func sampleOf(xs []float64) *metrics.Sample {
	s := &metrics.Sample{}
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

func median(xs []float64) float64 { return sampleOf(xs).Median() }

// summarize turns per-operation samples into a stat at quantile p (0..1).
func summarize(xs []float64, p float64, unit string) stat {
	if len(xs) == 0 {
		return stat{Unit: unit}
	}
	s := sampleOf(xs)
	return stat{Value: s.Percentile(100 * p), Unit: unit, Q1: s.Percentile(25), Q3: s.Percentile(75), N: s.N()}
}

// p90 reports the 90th percentile only where at least ten samples lie
// beyond it (n >= 100); elsewhere the metric does not apply.
func p90(xs []float64, unit string) stat {
	if len(xs) < 100 {
		return stat{Unit: unit, N: len(xs)}
	}
	return summarize(xs, 0.9, unit)
}

// pyQuartiles reproduces Python's statistics.quantiles(xs, n=4), the
// method the acceptance check uses for the run-to-run spread.
func pyQuartiles(xs []float64) (q1, q2, q3 float64) {
	s := sampleOf(xs).Values() // sorted
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
