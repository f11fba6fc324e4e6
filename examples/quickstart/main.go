// Quickstart: boot a simulated 64-node STORM cluster, launch the paper's
// 12 MB do-nothing benchmark binary on all 256 processors, and print the
// launch-time decomposition — the experiment behind the paper's headline
// "12 MB in 110 ms" number (its §3.1.1 and Fig. 2).
package main

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/storm"
)

func main() {
	fmt.Println("Booting a simulated 64-node AlphaServer ES40 / QsNET cluster...")
	cfg := storm.DefaultConfig(64)
	cfg.Timeslice = sim.Millisecond // the paper's launch-benchmark setting
	cfg.Seed = 1
	cluster := storm.New(sim.NewEnv(), cfg)
	defer cluster.Shutdown()

	fmt.Println("Submitting a 12 MB do-nothing binary on 64 nodes x 4 PEs...")
	j := cluster.Submit(&job.Job{
		Name:        "do-nothing",
		BinaryBytes: 12_000_000,
		NodesWanted: 64,
		PEsPerNode:  4,
	})
	total := cluster.RunUntilDone(j)

	send := j.TransferDone - j.SubmitTime
	exec := j.EndTime - j.TransferDone
	fmt.Printf("\n  send    (read + multicast + write + confirm): %8.1f ms\n", send.Milliseconds())
	fmt.Printf("  execute (launch command + fork + reporting):  %8.1f ms\n", exec.Milliseconds())
	fmt.Printf("  total:                                         %8.1f ms\n", total.Milliseconds())
	fmt.Printf("\n  file-transfer protocol bandwidth: %.0f MB/s per node\n", 12.0/send.Seconds())
	fmt.Printf("  aggregate to 64 nodes:            %.2f GB/s\n", 64*12.0/send.Seconds()/1000)
	fmt.Println("\nPaper reference (SC2002, §3.1.1): ~110 ms total, ~96 ms send,")
	fmt.Println("125 MB/s per node, 7.87 GB/s aggregate.")
}
