package storm_test

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/storm"
	"repro/internal/workload"
)

// Example reproduces the paper's headline measurement: a 12 MB do-nothing
// binary launched on a 64-node cluster in about a tenth of a second.
func Example() {
	cfg := storm.DefaultConfig(64)
	cfg.Timeslice, cfg.Seed = sim.Millisecond, 1
	cluster := storm.New(sim.NewEnv(), cfg)
	defer cluster.Shutdown()

	j := cluster.Submit(&job.Job{
		Name: "do-nothing", BinaryBytes: 12_000_000, NodesWanted: 64, PEsPerNode: 4,
	})
	total := cluster.RunUntilDone(j)

	fmt.Println("state:", j.State)
	fmt.Println("launched in under 150 ms:", total < 150*sim.Millisecond)
	fmt.Println("send dominates execute:",
		(j.TransferDone-j.SubmitTime) > (j.EndTime-j.TransferDone))
	// Output:
	// state: finished
	// launched in under 150 ms: true
	// send dominates execute: true
}

// Example_gangScheduling timeshares two SWEEP3D instances on the same
// processors with a 2 ms quantum — the granularity the paper shows costs
// essentially nothing.
func Example_gangScheduling() {
	cfg := storm.DefaultConfig(8)
	cfg.Timeslice, cfg.Seed = 2*sim.Millisecond, 1
	cfg.Policy = sched.GangFCFS{MPL: 2}
	cluster := storm.New(sim.NewEnv(), cfg)
	defer cluster.Shutdown()

	app := workload.ScaledSweep3D(1.0) // a 1-second SWEEP3D
	a := cluster.Submit(&job.Job{Name: "a", BinaryBytes: 4_000_000, NodesWanted: 8, PEsPerNode: 2, Program: app})
	b := cluster.Submit(&job.Job{Name: "b", BinaryBytes: 4_000_000, NodesWanted: 8, PEsPerNode: 2, Program: app})
	cluster.RunUntilDone(a, b)

	wallA := (a.LastExit - a.FirstRun).Seconds()
	fmt.Println("both finished:", a.State.String() == "finished" && b.State.String() == "finished")
	fmt.Println("each saw ~half the machine (1.8s-2.3s wall):", wallA > 1.8 && wallA < 2.3)
	// Output:
	// both finished: true
	// each saw ~half the machine (1.8s-2.3s wall): true
}
