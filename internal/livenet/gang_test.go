package livenet

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/livenet/faultconn"
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

// TestLiveGangRowAssignment: with MPL 2, placeInRow seats each job by
// the Ousterhout matrix rule — the lowest row none of whose in-flight
// jobs holds a node the job takes. Overlapping gangs get different rows,
// a disjoint gang shares row 0, a gang that overlaps both rows gets -1
// (it queues), and a finished job's cells are reused.
func TestLiveGangRowAssignment(t *testing.T) {
	mm, _ := startCluster(t, 4, MMConfig{GangQuantum: 10 * time.Millisecond, MPL: 2})
	seated := map[int]bool{}
	mm.mu.Lock()
	defer func() {
		for id := range seated {
			delete(mm.jobs, id)
		}
		mm.mu.Unlock()
	}()
	// seat places a gang pinned to nodes and, if it got a row, makes it
	// an in-flight job of that row.
	seat := func(id int, nodes ...int) int {
		t.Helper()
		j := &liveJob{id: id, spec: JobSpec{Nodes: len(nodes), Place: nodes}}
		row, links, err := mm.placeInRow(j, nil)
		if err != nil {
			t.Fatalf("job %d on %v: %v", id, nodes, err)
		}
		if row >= 0 {
			j.row = row
			for _, l := range links {
				j.placed = append(j.placed, l.node)
			}
			mm.jobs[id], seated[id] = j, true
		}
		return row
	}
	if r := seat(1001, 0, 1); r != 0 {
		t.Fatalf("the first gang got row %d, want 0", r)
	}
	if r := seat(1002, 1, 2); r != 1 {
		t.Fatalf("a gang overlapping row 0's got row %d, want 1", r)
	}
	if r := seat(1003, 2, 3); r != 0 {
		t.Fatalf("a gang disjoint from row 0's got row %d, want to share row 0", r)
	}
	// Node 0 is held in row 0, node 2 in both rows: no row has room, so
	// the gang must wait in the admission queue, not share a cell.
	if r := seat(1004, 0, 2); r != -1 {
		t.Fatalf("cell overcommit: a gang overlapping both rows got row %d, want -1", r)
	}
	delete(mm.jobs, 1001)
	if r := seat(1005, 0, 1); r != 0 {
		t.Fatalf("released cells not reused: got row %d, want 0", r)
	}
}

// watchMatrix samples the MM's gang matrix — every in-flight job's row
// and placed nodes, under mm.mu — until the returned stop is called,
// which fails the test if any sample held two jobs of one row on a node
// or a node in more than mpl gangs.
func watchMatrix(t *testing.T, mm *MM, mpl int) (stop func()) {
	done := make(chan struct{})
	var bad atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
			cells := make(map[[2]int]int) // (row, node) -> job
			gangs := make(map[int]int)    // node -> in-flight gangs on it
			mm.mu.Lock()
			for _, j := range mm.jobs {
				for _, n := range j.placed {
					if other, dup := cells[[2]int{j.row, n}]; dup {
						bad.Store(fmt.Sprintf("jobs %d and %d share node %d in row %d", other, j.id, n, j.row))
					}
					cells[[2]int{j.row, n}] = j.id
					if gangs[n]++; gangs[n] > mpl {
						bad.Store(fmt.Sprintf("node %d holds %d gangs at MPL %d", n, gangs[n], mpl))
					}
				}
			}
			mm.mu.Unlock()
		}
	}()
	return func() {
		close(done)
		wg.Wait()
		if msg, ok := bad.Load().(string); ok {
			t.Fatal(msg)
		}
	}
}

// gangJob is a one-rank-per-node sleep gang pinned to nodes.
func gangJob(name string, d time.Duration, nodes ...int) JobSpec {
	return JobSpec{Name: name, BinaryBytes: 64 << 10, Nodes: len(nodes), PEsPerNode: 1, Place: nodes,
		Program: ProgramSpec{Kind: "sleep", Duration: d}}
}

// runJobs runs the specs concurrently to their ends.
func runJobs(mm *MM, specs ...JobSpec) ([]Report, []error) {
	reps, errs := make([]Report, len(specs)), make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = mm.RunJob(spec)
		}()
	}
	wg.Wait()
	return reps, errs
}

// awaitPhase polls the job table until the named job reaches phase.
func awaitPhase(t *testing.T, mm *MM, name, phase string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		for _, ji := range mm.JobTable() {
			if ji.Name == name && ji.Phase == phase {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached phase %s: %+v", name, phase, mm.JobTable())
		}
	}
}

// TestGangMatrixDisjointGangsShareRow: two gangs on disjoint nodes share
// timeslot 0 — a strobe opens both, so they run at full duty and finish
// together in about one gang's sleep, not two — while a third gang on
// nodes of both lands in row 1. Throughout, the in-flight jobs of each
// row hold pairwise disjoint nodes and no node holds more than MPL gangs.
func TestGangMatrixDisjointGangsShareRow(t *testing.T) {
	const mpl, nap = 2, 300 * time.Millisecond
	mm, _ := startCluster(t, 4, MMConfig{GangQuantum: 10 * time.Millisecond, MPL: mpl, TermTimeout: 5 * time.Second})
	stop := watchMatrix(t, mm, mpl)
	defer stop()

	start := time.Now()
	reps, errs := runJobs(mm, gangJob("a", nap, 0, 1), gangJob("b", nap, 2, 3))
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("gang %d: %v", i, err)
		}
		if reps[i].Row != 0 {
			t.Fatalf("disjoint gang %d ran in row %d, want to share row 0", i, reps[i].Row)
		}
	}
	if elapsed >= nap*3/2 {
		t.Fatalf("two disjoint %v gangs took %v: they time-shared", nap, elapsed)
	}

	done := make(chan []error, 1)
	go func() {
		_, errs := runJobs(mm, gangJob("a2", 2*nap, 0, 1), gangJob("b2", 2*nap, 2, 3))
		done <- errs
	}()
	awaitPhase(t, mm, "a2", "launched")
	awaitPhase(t, mm, "b2", "launched")
	rep, err := mm.RunJob(gangJob("c", 0, 1, 2))
	if err != nil {
		t.Fatalf("the overlapping gang: %v", err)
	}
	if rep.Row != 1 {
		t.Fatalf("a gang on nodes of both row-0 gangs ran in row %d, want 1", rep.Row)
	}
	for i, err := range <-done {
		if err != nil {
			t.Fatalf("gang %d of the second pair: %v", i, err)
		}
	}
}

// TestGangMatrixRetryKeepsRowDisjoint: a job re-placed after its node
// dies (JobRetries) is re-seated by the matrix rule. Gang b holds the
// spare nodes in job a's row, so a moves to row 1; when a gang c holds
// them in row 1 too, no row has room and a fails with the named error,
// giving the job and the re-placement. It never shares a node with a job
// of its row.
func TestGangMatrixRetryKeepsRowDisjoint(t *testing.T) {
	for _, blocked := range []bool{false, true} {
		t.Run(fmt.Sprintf("row1blocked=%v", blocked), func(t *testing.T) {
			const mpl = 2
			cfg := MMConfig{GangQuantum: 10 * time.Millisecond, MPL: mpl, FragBytes: 32 << 10,
				AckTimeout: 5 * time.Second, TermTimeout: 5 * time.Second, JobRetries: 1}
			// Node 0 dies at the 4th fragment it reads: job a's, as the
			// pinned gangs never touch it.
			var victim atomic.Pointer[NM]
			mm, nms, _ := chaosCluster(t, 3, cfg, func(node int) NMConfig {
				if node != 0 {
					return NMConfig{}
				}
				return NMConfig{WrapConn: func(c net.Conn) net.Conn {
					plan := faultconn.NewPlan()
					plan.CloseAtReadFrag = 4
					plan.OnFault = func(string) {
						go func() {
							if nm := victim.Load(); nm != nil {
								nm.Close()
							}
						}()
					}
					return faultconn.Wrap(c, plan)
				}}
			})
			victim.Store(nms[0])
			stop := watchMatrix(t, mm, mpl)
			defer stop()

			hog := func(name string) {
				go mm.RunJob(gangJob(name, 10*time.Second, 1, 2))
				awaitPhase(t, mm, name, "launched")
			}
			hog("b") // row 0
			if blocked {
				hog("c") // row 1: it overlaps b
			}
			// a, free to go anywhere, takes the one node left in row 0.
			rep, err := mm.RunJob(JobSpec{Name: "a", BinaryBytes: 1 << 20, Nodes: 1, PEsPerNode: 1,
				Program: ProgramSpec{Kind: "exit"}})
			if !blocked {
				if err != nil {
					t.Fatalf("job a was not re-placed in row 1: %v", err)
				}
				if rep.Row != 1 || rep.Retries != 1 {
					t.Fatalf("job a ran in row %d after %d retries, want row 1 after 1", rep.Row, rep.Retries)
				}
				return
			}
			if err == nil {
				t.Fatalf("job a ran in row %d with every row holding the nodes it needs", rep.Row)
			}
			// b, c and a are jobs 1, 2 and 3, in submission order.
			if !errors.Is(err, ErrJobRetriesExhausted) || !strings.Contains(err.Error(), "job 3: re-placement failed") ||
				!strings.Contains(err.Error(), "gang rows") {
				t.Fatalf("job a's failure does not name the job, the re-placement and the rows: %v", err)
			}
		})
	}
}

// TestLaunchGateFollowsLastStrobe: an NM starts a gang launched into the
// row its last strobe opened with the gate open — it runs at once, not a
// quantum later — and any other row's gang with the gate closed; before
// the first strobe every gang starts closed.
func TestLaunchGateFollowsLastStrobe(t *testing.T) {
	nm := bareNM(0, discardConn())
	job := 0
	// launched reports whether a gang launched into row starts open.
	launched := func(row int) bool {
		job++
		nm.mu.Lock()
		nm.jobs[job] = &nmJob{complete: true, stripes: []*stripeRelay{{}}}
		nm.mu.Unlock()
		nm.onLaunch(&Launch{Job: job, PEs: 1, Row: row, Gang: true,
			Program: ProgramSpec{Kind: "sleep", Duration: time.Hour}})
		nm.mu.Lock()
		g := nm.jobs[job].gate
		nm.mu.Unlock()
		open := g.isOpen()
		g.cancel() // the process exits
		return open
	}
	strobe := func(seq int64, row int) {
		nm.onCtlPing(&Ping{Seq: seq, Row: row + 1, Epoch: 1}, discardConn())
	}
	for _, c := range []struct {
		strobe   int // row a strobe opens first; -1 none, and -2 a heartbeat
		row      int
		wantOpen bool
	}{
		{-1, 0, false}, {-1, 1, false}, // no strobe seen yet
		{1, 1, true}, {-1, 0, false},
		{0, 0, true}, {-1, 1, false},
		{-2, 0, true}, // a heartbeat ping opens no row and closes none
	} {
		switch c.strobe {
		case -1:
		case -2:
			nm.onCtlPing(&Ping{Seq: int64(job + 1), Epoch: 1}, discardConn())
		default:
			strobe(int64(job+1), c.strobe)
		}
		if open := launched(c.row); open != c.wantOpen {
			t.Fatalf("after strobing row %d, a gang launched into row %d starts open=%v, want %v",
				c.strobe, c.row, open, c.wantOpen)
		}
	}
	nm.wg.Wait()
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
