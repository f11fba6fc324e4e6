package livenet

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestGateBlocksAndReleases(t *testing.T) {
	g := newGate(false)
	released := make(chan struct{})
	go func() {
		g.wait()
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("closed gate did not block")
	case <-time.After(50 * time.Millisecond):
	}
	g.set(true)
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("open gate did not release waiter")
	}
	if !g.isOpen() {
		t.Fatal("gate state wrong")
	}
}

// TestLiveGangScheduling runs two spin jobs timeshared with a 25 ms
// quantum, at MPL 2 and at MPL 1 (one row, which the jobs hold in
// turn): both must finish, the NMs must see strobes, and the pair's
// wall time must clearly exceed one job's CPU demand (they share the
// machine).
func TestLiveGangScheduling(t *testing.T) {
	for _, mpl := range []int{2, 1} {
		t.Run(fmt.Sprintf("mpl%d", mpl), func(t *testing.T) {
			mm, nms := startCluster(t, 2, MMConfig{GangQuantum: 25 * time.Millisecond, MPL: mpl, TermTimeout: 5 * time.Second})
			const work = 300 * time.Millisecond
			spec := func(name string) JobSpec {
				return JobSpec{
					Name: name, BinaryBytes: 64 << 10, Nodes: 2, PEsPerNode: 1,
					Program: ProgramSpec{Kind: "spin", Duration: work},
				}
			}
			var wg sync.WaitGroup
			reports := make([]Report, 2)
			errs := make([]error, 2)
			start := time.Now()
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					reports[i], errs[i] = SubmitJob(mm.Addr(), spec("gang"))
				}(i)
			}
			wg.Wait()
			elapsed := time.Since(start)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("job %d: %v", i, err)
				}
			}
			// Two 300 ms CPU-bound gangs timesharing one machine need >= ~600 ms
			// wall; allow scheduling slack but require clear serialization.
			if elapsed < 450*time.Millisecond {
				t.Fatalf("two timeshared 300ms jobs finished in %v; not serialized", elapsed)
			}
			strobes := 0
			for _, nm := range nms {
				strobes += nmStrobes(nm)
			}
			if strobes == 0 {
				t.Fatal("NMs saw no strobes")
			}
			if mm.status().Strobes == 0 {
				t.Fatal("MM issued no strobes")
			}
		})
	}
}

// TestLiveGangRowsAlternate: with MPL 2, two jobs land on different rows
// (least-loaded assignment).
func TestLiveGangRowAssignment(t *testing.T) {
	mm, err := NewMM("127.0.0.1:0", MMConfig{GangQuantum: 10 * time.Millisecond, MPL: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	mm.mu.Lock()
	r1 := mm.pickRow()
	r2 := mm.pickRow()
	r3 := mm.pickRow()
	mm.mu.Unlock()
	if r1 == r2 {
		t.Fatalf("first two jobs share row %d", r1)
	}
	// Rows are exclusive: with MPL=2 occupied, a third concurrent job
	// must wait in the admission queue, not share a row.
	if r3 != -1 {
		t.Fatalf("row overcommit: third concurrent job got row %d, want -1 (exhausted)", r3)
	}
	mm.mu.Lock()
	mm.releaseRow(r1)
	r4 := mm.pickRow()
	mm.mu.Unlock()
	if r4 != r1 {
		t.Fatalf("released row not reused: got %d, want %d", r4, r1)
	}
}

// TestNonGangJobsFreeRun: without GangQuantum processes run ungated.
func TestNonGangJobsFreeRun(t *testing.T) {
	mm, _ := startCluster(t, 2, MMConfig{})
	start := time.Now()
	_, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "solo", BinaryBytes: 64 << 10, Nodes: 2, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "spin", Duration: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("ungated job took %v", elapsed)
	}
	if got := mm.status().Strobes; got != 0 {
		t.Fatalf("non-gang MM issued %d strobes", got)
	}
}

// TestQueuedJobWaitsForNodes: a job queued behind a hog that dies with
// one of its nodes is not placed on the survivors, too few to hold it —
// it stays admitted until a node joins, and then runs.
func TestQueuedJobWaitsForNodes(t *testing.T) {
	mm, nms := startCluster(t, 3, MMConfig{GangQuantum: 10 * time.Millisecond, MPL: 1, TermTimeout: 10 * time.Second})
	spec := func(name string, p ProgramSpec) JobSpec {
		return JobSpec{Name: name, BinaryBytes: 64 << 10, Nodes: 3, PEsPerNode: 1, Program: p}
	}
	phase := func(name string) string {
		for _, ji := range mm.JobTable() {
			if ji.Name == name {
				return ji.Phase
			}
		}
		return ""
	}
	await := func(name, want string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); phase(name) != want; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s is %q, want %q", name, phase(name), want)
			}
		}
	}
	hog, queued := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := mm.RunJob(spec("hog", ProgramSpec{Kind: "sleep", Duration: 30 * time.Second}))
		hog <- err
	}()
	await("hog", "launched")
	go func() {
		_, err := mm.RunJob(spec("queued", ProgramSpec{Kind: "exit"}))
		queued <- err
	}()
	await("queued", "admitted")
	nms[2].Close()
	select {
	case err := <-hog:
		if err == nil {
			t.Fatal("the hog outlived its node")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the hog never failed")
	}
	time.Sleep(200 * time.Millisecond)
	select {
	case err := <-queued:
		t.Fatalf("the queued job ended on a 2-node cluster: %v", err)
	default:
	}
	if got := phase("queued"); got != "admitted" {
		t.Fatalf("the queued job is %q on a 2-node cluster, want admitted", got)
	}
	nm, err := NewNM(mm.Addr(), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nm.Close)
	select {
	case err := <-queued:
		if err != nil {
			t.Fatalf("the queued job failed once node 3 joined: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the queued job never ran once node 3 joined")
	}
}
