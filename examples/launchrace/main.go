// Launch shoot-out: STORM against the launchers of the paper's related
// work (its §5.1, Fig. 11) — rsh, RMS, GLUnix, Cplant, BProc — at growing
// machine sizes. The baselines run as executable simulations of their
// algorithms; STORM runs as the full simulated dæmon stack.
package main

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/job"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/storm"
)

func stormMeasured(nodes int) float64 {
	cfg := storm.DefaultConfig(nodes)
	cfg.Timeslice, cfg.Seed = sim.Millisecond, 11
	cluster := storm.New(sim.NewEnv(), cfg)
	defer cluster.Shutdown()
	j := cluster.Submit(&job.Job{
		Name: "do-nothing", BinaryBytes: 12_000_000, NodesWanted: nodes, PEsPerNode: 4,
	})
	return cluster.RunUntilDone(j).Seconds()
}

func main() {
	launchers := baseline.All()
	fmt.Println("Time to launch a job (12 MB where applicable), seconds:")
	header := fmt.Sprintf("%-8s", "nodes")
	for _, l := range launchers {
		header += fmt.Sprintf("%10s", l.Name())
	}
	header += fmt.Sprintf("%12s%12s", "STORM(sim)", "STORM(mod)")
	fmt.Println(header)

	for _, n := range []int{4, 16, 64} {
		row := fmt.Sprintf("%-8d", n)
		for _, l := range launchers {
			row += fmt.Sprintf("%10.2f", l.Launch(n).Seconds())
		}
		row += fmt.Sprintf("%12.3f%12.3f", stormMeasured(n), netmodel.LaunchSTORM(n))
		fmt.Println(row)
	}
	// Beyond the simulated-cluster sizes, show the models (as the paper
	// does in Fig. 11).
	for _, n := range []int{1024, 4096} {
		row := fmt.Sprintf("%-8d", n)
		for _, l := range launchers {
			row += fmt.Sprintf("%10.2f", l.Launch(n).Seconds())
		}
		row += fmt.Sprintf("%12s%12.3f", "-", netmodel.LaunchSTORM(n))
		fmt.Println(row)
	}

	fmt.Println("\nPaper reference (Table 7, 4,096 nodes): rsh 3827 s, RMS 318 s,")
	fmt.Println("GLUnix 49 s, Cplant 23 s, BProc 4.9 s, STORM 0.11 s.")

	total, fails := baseline.NFSLaunch(256, 12_000_000, 30*sim.Second)
	fmt.Printf("\nAnd the PBS-style NFS demand-paged launch on 256 nodes: %.0f s with %d\n", total.Seconds(), fails)
	fmt.Println("clients failing on RPC timeouts - the paper's motivating failure mode.")
}
