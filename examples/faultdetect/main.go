// Fault-detection demo: the paper's §4 sketch in action. The master
// multicasts heartbeats with XFER-AND-SIGNAL and checks receipt with a
// single COMPARE-AND-WRITE network conditional; when a node dies, the
// collective check fails and per-node probes isolate the failure.
package main

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/storm"
	"repro/internal/workload"
)

// cluster boots a simulated cluster of n nodes with the default
// platform configuration and the given seed.
func cluster(n int, seed uint64) (*sim.Env, *storm.System) {
	cfg := storm.DefaultConfig(n)
	cfg.Seed = seed
	env := sim.NewEnv()
	return env, storm.New(env, cfg)
}

func main() {
	const nodes = 32
	// Heartbeats every 100 ms; a probed node gets a tenth of the period
	// to answer.
	const period, grace = 100 * sim.Millisecond, 10 * sim.Millisecond
	env, sys := cluster(nodes, 3)
	defer sys.Shutdown()

	fmt.Printf("Monitoring %d nodes with 100 ms heartbeats...\n", nodes)
	var detectedAt sim.Time
	var detected int = -1
	sys.StartFaultDetector(period, grace, func(n int) {
		detected = n
		detectedAt = env.Now()
		fmt.Printf("  [%8.3fs] node %d declared FAILED\n", detectedAt.Seconds(), n)
	})

	env.RunUntil(env.Now() + 500*sim.Millisecond)
	fmt.Printf("  [%8.3fs] all heartbeats healthy\n", env.Now().Seconds())

	failAt := env.Now()
	fmt.Printf("  [%8.3fs] killing node 13 (fault injection)\n", failAt.Seconds())
	sys.Network().FailNode(13)

	env.RunUntil(env.Now() + 10*sim.Second)
	if detected != 13 {
		fmt.Printf("detection failed: got %d\n", detected)
		return
	}
	fmt.Printf("\nDetection latency: %.0f ms after the failure.\n",
		(detectedAt - failAt).Milliseconds())
	fmt.Println("One multicast + one network conditional per period monitors the")
	fmt.Println("whole machine; per-node status gathering runs only on failure.")

	// Part two: detection wired into the Machine Manager — a running job
	// loses a node, is reaped, and the machine keeps scheduling.
	fmt.Println("\nFault recovery: a 16-node job loses node 13 mid-run...")
	env2, sys2 := cluster(nodes, 4)
	defer sys2.Shutdown()
	sys2.EnableFaultRecovery(period, grace, func(n int) {
		fmt.Printf("  [%8.3fs] node %d failed; MM reaping its jobs\n", env2.Now().Seconds(), n)
	})
	victim := sys2.Submit(&job.Job{
		Name: "victim", BinaryBytes: 4_000_000, NodesWanted: 16, PEsPerNode: 2,
		Program: workload.Synthetic{Total: 100 * sim.Second},
	})
	env2.RunUntil(env2.Now() + 500*sim.Millisecond)
	sys2.Network().FailNode(13)
	sys2.RunUntilDone(victim)
	fmt.Printf("  [%8.3fs] job state: %v (space reclaimed)\n", env2.Now().Seconds(), victim.State)
	next := sys2.Submit(&job.Job{Name: "next", BinaryBytes: 2_000_000, NodesWanted: 8, PEsPerNode: 1})
	sys2.RunUntilDone(next)
	fmt.Printf("  [%8.3fs] follow-up job on the healthy half: %v\n", env2.Now().Seconds(), next.State)
}
