// Gang-scheduling demo: run two SWEEP3D instances timeshared on the same
// processors (MPL 2) across a range of timeslice quanta, showing the
// paper's central scheduling result (its §3.2.1, Fig. 4): STORM enacts
// coordinated context switches so cheaply that quanta as small as 2 ms
// cost essentially nothing — interactive granularity on a parallel
// machine.
package main

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/storm"
	"repro/internal/workload"
)

func main() {
	const nodes = 16
	app := workload.ScaledSweep3D(8) // an 8-second SWEEP3D for demo speed

	fmt.Printf("Two SWEEP3D gangs on %d nodes x 2 PEs, timeshared at MPL 2.\n", nodes)
	fmt.Printf("%-14s %-22s %s\n", "quantum", "runtime / MPL", "overhead vs 50ms")
	var plateau float64
	for _, qms := range []float64{50, 10, 2, 1, 0.5, 0.3} {
		cfg := storm.DefaultConfig(nodes)
		cfg.Timeslice = sim.FromMilliseconds(qms)
		cfg.Policy = sched.GangFCFS{MPL: 2}
		cfg.Seed = 7
		cluster := storm.New(sim.NewEnv(), cfg)
		a := cluster.Submit(&job.Job{
			Name: "sweep3d-a", BinaryBytes: 7_000_000, NodesWanted: nodes, PEsPerNode: 2, Program: app,
		})
		b := cluster.Submit(&job.Job{
			Name: "sweep3d-b", BinaryBytes: 7_000_000, NodesWanted: nodes, PEsPerNode: 2, Program: app,
		})
		cluster.RunUntilDone(a, b)

		first := a.FirstRun
		if b.FirstRun < first {
			first = b.FirstRun
		}
		last := a.LastExit
		if b.LastExit > last {
			last = b.LastExit
		}
		norm := (last - first).Seconds() / 2
		if plateau == 0 {
			plateau = norm
		}
		fmt.Printf("%10.1f ms %18.3f s %+14.1f%%\n", qms, norm, (norm/plateau-1)*100)
		cluster.Shutdown()
	}
	fmt.Println("\nPaper reference: flat from 2 ms upward; conventional gang")
	fmt.Println("schedulers need quanta of seconds to minutes (Table 8: RMS 30 s,")
	fmt.Println("SCore-D 100 ms).")
}
