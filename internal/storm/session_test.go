package storm

import (
	"testing"

	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestWorkloadOnCluster: a half-second SWEEP3D, two processes on each of
// four nodes, runs for about its nominal time once launched.
func TestWorkloadOnCluster(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Timeslice, cfg.Seed = 10*sim.Millisecond, 5
	s := New(sim.NewEnv(), cfg)
	defer s.Shutdown()
	j := s.Submit(&job.Job{
		Name: "sweep", BinaryBytes: 7_000_000, NodesWanted: 4, PEsPerNode: 2,
		Program: workload.ScaledSweep3D(0.5),
	})
	s.RunUntilDone(j)
	if j.State != job.Finished {
		t.Fatalf("state = %v", j.State)
	}
	wall := (j.LastExit - j.FirstRun).Seconds()
	if wall < 0.45 || wall > 0.8 {
		t.Fatalf("0.5s SWEEP3D wall = %.3fs", wall)
	}
}

// TestPolicyOverride: Config.Policy replaces the default gang policy;
// under batch FCFS (MPL 1) the second of two full-width jobs cannot start
// before the first exits.
func TestPolicyOverride(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Policy, cfg.Timeslice = sched.BatchFCFS{}, 5*sim.Millisecond
	s := New(sim.NewEnv(), cfg)
	defer s.Shutdown()
	prog := workload.Synthetic{Total: 100 * sim.Millisecond}
	a := s.Submit(&job.Job{Name: "a", BinaryBytes: 1_000_000, NodesWanted: 4, PEsPerNode: 1, Program: prog})
	b := s.Submit(&job.Job{Name: "b", BinaryBytes: 1_000_000, NodesWanted: 4, PEsPerNode: 1, Program: prog})
	s.RunUntilDone(a, b)
	if b.FirstRun < a.LastExit {
		t.Fatalf("batch policy overlapped jobs: b started %v, a ended %v", b.FirstRun, a.LastExit)
	}
}

// TestFaultDetectorRidesOutDeadNodeTimeout: on the default platform,
// where a failed collective holds the fabric for the 2 s dead-node
// hardware timeout, the detector still names exactly the dead node, and
// names nobody while every node is up.
func TestFaultDetectorRidesOutDeadNodeTimeout(t *testing.T) {
	env := sim.NewEnv()
	s := New(env, DefaultConfig(8))
	defer s.Shutdown()
	var hit []int
	s.StartFaultDetector(50*sim.Millisecond, 5*sim.Millisecond, func(n int) { hit = append(hit, n) })
	env.RunUntil(200 * sim.Millisecond)
	if len(hit) != 0 {
		t.Fatalf("false positives: %v", hit)
	}
	s.Network().FailNode(2)
	// Detection must ride out the dead-node timeout plus per-node
	// isolation probes with their own retry windows.
	env.RunUntil(env.Now() + 15*sim.Second)
	if len(hit) != 1 || hit[0] != 2 {
		t.Fatalf("detected %v, want [2]", hit)
	}
}

// TestTimelineLifecycleSpans: the job-lifecycle timeline records a lane
// per job with closed queued, transfer and running spans, in that order,
// and renders.
func TestTimelineLifecycleSpans(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Timeslice = sim.Millisecond
	s := New(sim.NewEnv(), cfg)
	defer s.Shutdown()
	tl := s.EnableTimeline()
	j := s.Submit(&job.Job{Name: "traced", BinaryBytes: 4_000_000, NodesWanted: 4, PEsPerNode: 1})
	s.RunUntilDone(j)
	lane := tl.Lane("job1:traced")
	if lane == nil {
		t.Fatal("no lane recorded for the job")
	}
	labels := ""
	for _, sp := range lane.Spans {
		labels += string(sp.Label)
		if sp.Open() {
			t.Fatalf("span %c left open", sp.Label)
		}
	}
	if labels != "qTR" {
		t.Fatalf("lifecycle spans = %q, want qTR", labels)
	}
	if out := tl.Render(tl.End(), 40); len(out) == 0 {
		t.Fatal("empty render")
	}
}

// TestLoadAndCancel: the network loader sets the fabric's background
// load, and a job running beside the CPU loader can still be canceled.
func TestLoadAndCancel(t *testing.T) {
	env := sim.NewEnv()
	cfg := DefaultConfig(4)
	cfg.Timeslice = 5 * sim.Millisecond
	s := New(env, cfg)
	defer s.Shutdown()
	s.LoadNetwork(0.5)
	if got := s.Network().BackgroundLoad(); got != 0.5 {
		t.Fatalf("BackgroundLoad = %v", got)
	}
	s.LoadCPU()
	j := s.Submit(&job.Job{
		Name: "victim", BinaryBytes: 500_000, NodesWanted: 4, PEsPerNode: 1,
		Program: workload.Synthetic{Total: 100 * sim.Second},
	})
	env.RunUntil(2 * sim.Second)
	if env.Now() < 2*sim.Second {
		t.Fatalf("Now = %v", env.Now())
	}
	s.Cancel(j)
	s.RunUntilDone(j)
	if j.State != job.Canceled {
		t.Fatalf("state = %v", j.State)
	}
}
