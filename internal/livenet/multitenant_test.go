package livenet

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/livenet/faultconn"
	"repro/internal/livenet/wire"
)

// mtCluster boots an MM (with the given config) and n NMs sequentially,
// waiting for each registration before creating the next — so the MM's
// accept order is deterministic: accepted conn k belongs to NM k. nmCfg,
// when set, configures each NM.
func mtCluster(t *testing.T, n int, cfg MMConfig, nmCfg func(node int) NMConfig) (*MM, []*NM) {
	t.Helper()
	mm, err := NewMM("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mm.Close() })
	var nms []*NM
	for i := 0; i < n; i++ {
		var c NMConfig
		if nmCfg != nil {
			c = nmCfg(i)
		}
		nm, err := NewNMConfig(mm.Addr(), i, 4, c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nm.Close() })
		nms = append(nms, nm)
		deadline := time.Now().Add(5 * time.Second)
		for len(mm.NMs()) < i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("NM %d never registered", i)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return mm, nms
}

// TestLaunchPhaseDeathIsNodeDeath: a node whose Launch cannot be written
// — it died after acknowledging the whole transfer — is a node death like
// one in any other phase. The job completes on the nodes that took their
// Launch, naming the lost node in Report.Failed; it fails, naming a node
// and the launch phase, only when no node took one. The injected fault
// hard-closes the MM's side of a link immediately before its first
// outgoing Launch frame, so the transfer on that link is always complete
// when the write fails. The Launch goes down stripe 0's tree, so the MM
// writes a node's Launch in two cases, and each is run: the node is one
// of its own children in the tree (node 1 of 3), or the node's parent
// could not relay the Launch to it (node 2 of 7, below node 0: node 0's
// link to it closes at the Launch and the redial is refused), and the MM
// writes it the Launch itself. Either way the dead node's children in
// the tree (node 6 of 7) still launch: the MM writes them directly.
func TestLaunchPhaseDeathIsNodeDeath(t *testing.T) {
	const pes = 2
	boot := func(n int, armed func(node int) bool, nmCfg func(node int) NMConfig) (*MM, []*NM) {
		cfg := MMConfig{Fanout: 2, FragBytes: 32 << 10, AckTimeout: 700 * time.Millisecond}
		var accepts atomic.Int32
		cfg.WrapConn = func(c net.Conn) net.Conn {
			// mtCluster registers sequentially: accept #k is NM k.
			if node := int(accepts.Add(1) - 1); node >= n || !armed(node) {
				return c
			}
			plan := faultconn.NewPlan()
			plan.CtlFaults = []faultconn.CtlFault{{Kind: wire.Launch, Index: 0, Op: "close"}}
			return faultconn.Wrap(c, plan)
		}
		return mtCluster(t, n, cfg, nmCfg)
	}
	run := func(mm *MM, n int) (Report, error) {
		return mm.RunJob(JobSpec{
			Name: "launch-death", BinaryBytes: 256 << 10, Nodes: n, PEsPerNode: pes,
			Program: ProgramSpec{Kind: "exit"},
		})
	}
	survives := func(nms []*NM, rep Report, err error, victim int) {
		t.Helper()
		if err != nil {
			t.Fatalf("a launch-phase death of node %d failed the job: %v", victim, err)
		}
		if len(rep.Failed) != 1 || rep.Failed[0] != victim {
			t.Fatalf("Report.Failed = %v, want [%d]", rep.Failed, victim)
		}
		for _, nm := range nms {
			want := pes
			if nm.Node() == victim {
				want = 0 // the lost node's ranks do not run
			}
			if got := nmLaunches(nm); got != want {
				t.Fatalf("node %d forked %d processes, want %d", nm.Node(), got, want)
			}
		}
	}

	const rootVictim = 1 // an MM child in the 3-node tree
	mm, nms := boot(3, func(node int) bool { return node == rootVictim }, nil)
	rep, err := run(mm, 3)
	survives(nms, rep, err, rootVictim)

	// Node 0 relays to node 2, which relays to node 6. Node 0's dialer
	// learns the victim's relay address once the victim exists; its link
	// to the victim closes at the Launch, and every redial is refused.
	const relayVictim = 2
	var victimAddr atomic.Value
	victimAddr.Store("")
	var refuse atomic.Bool
	mm, nms = boot(7, func(node int) bool { return node == relayVictim }, func(node int) NMConfig {
		if node != 0 {
			return NMConfig{}
		}
		return NMConfig{Dialer: func(addr string) (net.Conn, error) {
			if addr != victimAddr.Load() {
				return net.DialTimeout("tcp", addr, 5*time.Second)
			}
			if refuse.Load() {
				return nil, fmt.Errorf("dial %s: %w", addr, syscall.ECONNREFUSED)
			}
			c, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			plan := faultconn.NewPlan()
			plan.CtlFaults = []faultconn.CtlFault{{Kind: wire.Launch, Index: 0, Op: "close"}}
			plan.OnFault = func(string) { refuse.Store(true) }
			return faultconn.Wrap(c, plan), nil
		}}
	})
	victimAddr.Store(nms[relayVictim].PeerAddr())
	rep, err = run(mm, 7)
	survives(nms, rep, err, relayVictim)
	if !refuse.Load() {
		t.Fatal("node 0 never relayed the Launch to the victim: the MM wrote it first")
	}

	mm, _ = boot(3, func(int) bool { return true }, nil)
	if _, err = run(mm, 3); err == nil {
		t.Fatal("a launch no node took reported success")
	}
	if !strings.Contains(err.Error(), "launch phase") || !strings.Contains(err.Error(), "launch to node 2") {
		t.Fatalf("error does not name the launch phase and a node: %v", err)
	}
}

// TestGangRowExclusiveQueueing: with MPL=2 gang rows and three
// concurrent jobs that overlap — each takes both of the cluster's two
// nodes, so no two can share a row's cells — no two in-flight jobs may
// ever share a row, and the third job must queue (not fail) until a row
// frees. The job table is sampled throughout to catch any overlap.
func TestGangRowExclusiveQueueing(t *testing.T) {
	cfg := MMConfig{GangQuantum: 10 * time.Millisecond, MPL: 2}
	mm, _ := mtCluster(t, 2, cfg, nil)

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	var overlap atomic.Value
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			rows := make(map[int]int)
			for _, info := range mm.JobTable() {
				switch info.Phase {
				case "admitted", "done", "failed":
					continue
				}
				if other, dup := rows[info.Row]; dup {
					overlap.Store([2]int{other, info.ID})
					return
				}
				rows[info.Row] = info.ID
			}
		}
	}()

	const jobs = 3
	reports := make([]Report, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = SubmitJob(mm.Addr(), JobSpec{
				Name: "gang", BinaryBytes: 64 << 10, Nodes: 2, PEsPerNode: 1,
				Program: ProgramSpec{Kind: "sleep", Duration: 150 * time.Millisecond},
			})
		}(i)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()

	if pair, ok := overlap.Load().([2]int); ok {
		t.Fatalf("jobs %d and %d shared a gang row while in flight", pair[0], pair[1])
	}
	queued := 0
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d failed under row exhaustion, want queued admission: %v", i, errs[i])
		}
		if reports[i].Row < 0 || reports[i].Row >= cfg.MPL {
			t.Fatalf("job %d ran on row %d, outside MPL %d", i, reports[i].Row, cfg.MPL)
		}
		if reports[i].Queued > 50*time.Millisecond {
			queued++
		}
	}
	if queued == 0 {
		t.Fatal("no job reports a queue wait: the third job should have waited for a free row")
	}
}

// TestAdmissionPolicies checks the pluggable admission policies' pick
// ordering directly (pick is a pure function of the queue).
func TestAdmissionPolicies(t *testing.T) {
	if _, err := newAdmissionPolicy("bogus"); err == nil {
		t.Fatal("unknown policy name accepted")
	}
	mkJob := func(id int, user string, weight, bytes int) *liveJob {
		return &liveJob{id: id, spec: JobSpec{User: user, Weight: weight, BinaryBytes: bytes}}
	}

	t.Run("fifo", func(t *testing.T) {
		p, _ := newAdmissionPolicy("")
		if p.name() != "fifo" {
			t.Fatalf("default policy is %q, want fifo", p.name())
		}
		q := []*liveJob{mkJob(3, "a", 1, 500), mkJob(4, "b", 1, 100)}
		if got := p.pick(q); got.id != 3 {
			t.Fatalf("fifo picked job %d, want 3 (head of queue)", got.id)
		}
	})

	t.Run("sif", func(t *testing.T) {
		p, _ := newAdmissionPolicy("sif")
		q := []*liveJob{mkJob(1, "a", 1, 300), mkJob(2, "a", 1, 100), mkJob(3, "a", 1, 200)}
		if got := p.pick(q); got.id != 2 {
			t.Fatalf("sif picked job %d (size %d), want 2 (smallest image)", got.id, got.spec.BinaryBytes)
		}
		// Ties break toward the earlier submission.
		q = []*liveJob{mkJob(5, "a", 1, 100), mkJob(4, "a", 1, 100)}
		if got := p.pick(q); got.id != 4 {
			t.Fatalf("sif tie-break picked job %d, want 4", got.id)
		}
	})

	t.Run("wfair", func(t *testing.T) {
		p, _ := newAdmissionPolicy("wfair")
		a1 := mkJob(1, "alice", 1, 1000)
		a2 := mkJob(2, "alice", 1, 1000)
		b1 := mkJob(3, "bob", 1, 1000)
		// Fresh users tie at virtual time 0; lower id wins.
		if got := p.pick([]*liveJob{a1, b1}); got.id != 1 {
			t.Fatalf("wfair picked job %d, want 1", got.id)
		}
		p.granted(a1)
		// alice has been charged 1000 virtual bytes; bob goes next even
		// though alice has the earlier queued job.
		if got := p.pick([]*liveJob{a2, b1}); got.id != 3 {
			t.Fatalf("wfair picked job %d after charging alice, want 3 (bob)", got.id)
		}
		p.granted(b1)
		// Weight divides the charge: a weight-4 user streams 4x the bytes
		// for the same virtual time.
		c1 := mkJob(4, "carol", 4, 4000)
		p.granted(c1)
		d1 := mkJob(5, "dave", 1, 999)
		c2 := mkJob(6, "carol", 4, 4000)
		if got := p.pick([]*liveJob{c2, d1}); got.id != 5 {
			t.Fatalf("wfair picked job %d, want 5 (dave at vt 0)", got.id)
		}
		p.granted(d1)
		// carol vt=1000, dave vt=999: dave still ahead.
		d2 := mkJob(7, "dave", 1, 999)
		if got := p.pick([]*liveJob{c2, d2}); got.id != 7 {
			t.Fatalf("wfair picked job %d, want 7 (dave vt 999 < carol vt 1000)", got.id)
		}
	})
}

// TestPlacementPinning: JobSpec.Place pins a job's node set verbatim
// (in tree-position order); an unregistered node is an error, not a
// queue wait.
func TestPlacementPinning(t *testing.T) {
	mm, nms := mtCluster(t, 4, MMConfig{Fanout: 2, FragBytes: 32 << 10}, nil)
	rep, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "pinned", BinaryBytes: 128 << 10, Nodes: 3, PEsPerNode: 1,
		Place:   []int{2, 0, 3},
		Program: ProgramSpec{Kind: "exit"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{2, 0, 3} {
		if _, ok := nms[id].ImageDigest(rep.JobID); !ok {
			t.Fatalf("pinned node %d holds no image for job %d", id, rep.JobID)
		}
	}
	if _, ok := nms[1].ImageDigest(rep.JobID); ok {
		t.Fatalf("node 1 was not placed but holds the job %d image", rep.JobID)
	}
	if _, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "bad-pin", BinaryBytes: 1 << 10, Nodes: 2, PEsPerNode: 1,
		Place:   []int{0, 9},
		Program: ProgramSpec{Kind: "exit"},
	}); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("pinning an unregistered node: got %v, want 'not registered'", err)
	}
	if _, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "short-pin", BinaryBytes: 1 << 10, Nodes: 3, PEsPerNode: 1,
		Place:   []int{0, 1},
		Program: ProgramSpec{Kind: "exit"},
	}); err == nil {
		t.Fatal("Place shorter than Nodes accepted")
	}
	// A repeated node is refused before queueing, naming the node —
	// not after an AckTimeout waiting on a HAVE the twin never sends.
	start := time.Now()
	if _, err := SubmitJob(mm.Addr(), JobSpec{
		Name: "dup-pin", BinaryBytes: 1 << 10, Nodes: 3, PEsPerNode: 1,
		Place:   []int{2, 2, 3},
		Program: ProgramSpec{Kind: "exit"},
	}); err == nil || !strings.Contains(err.Error(), "node 2 twice") {
		t.Fatalf("pinning node 2 twice: got %v, want 'node 2 twice'", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("duplicate Place refused after %v, want before queueing", elapsed)
	}
}

// TestConcurrentStreamsSharedLinks: many jobs streaming at once through
// the same NMs and cached relay links must all complete with correct,
// distinct images — the NM-side demultiplexing by job id and the
// per-stripe windows must not mix streams or deadlock, on one tree or
// on two stripes sharing every link.
func TestConcurrentStreamsSharedLinks(t *testing.T) {
	for _, stripes := range []int{1, 2} {
		t.Run(fmt.Sprintf("stripes%d", stripes), func(t *testing.T) {
			mm, nms := mtCluster(t, 7, MMConfig{Fanout: 2, FragBytes: 16 << 10, MaxConcurrent: 8, Stripes: stripes}, nil)
			const jobs = 6
			var wg sync.WaitGroup
			reports := make([]Report, jobs)
			errs := make([]error, jobs)
			for i := 0; i < jobs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					reports[i], errs[i] = SubmitJob(mm.Addr(), JobSpec{
						Name: "tenant", BinaryBytes: (256 + 64*i) << 10, Nodes: 7, PEsPerNode: 1,
						Program: ProgramSpec{Kind: "exit"},
					})
				}(i)
			}
			wg.Wait()
			for i := 0; i < jobs; i++ {
				if errs[i] != nil {
					t.Fatalf("concurrent job %d failed: %v", i, errs[i])
				}
				// Every node must hold the complete, identical image for this job.
				var ref ImageDigest
				for n, nm := range nms {
					d, ok := nm.ImageDigest(reports[i].JobID)
					if !ok {
						t.Fatalf("node %d holds no image for job %d", n, reports[i].JobID)
					}
					if n == 0 {
						ref = d
					} else if d != ref {
						t.Fatalf("node %d image for job %d differs: %+v vs %+v", n, reports[i].JobID, d, ref)
					}
				}
			}
		})
	}
}

// TestAdmitQueueShared drives the one admission queue the way both its
// owners do, many submitters at once (run it under -race): MM-style, a
// grant hook that hands out a scarce second resource — gang rows — and
// refuses while none is free; federation-style, no hook. Neither the
// slots nor the rows are ever oversubscribed, everybody gets through,
// and a shutdown releases whoever is still parked with the owner's named
// error.
func TestAdmitQueueShared(t *testing.T) {
	errClosed := errors.New("owner closed")
	for _, style := range []string{"mm", "federation"} {
		t.Run(style, func(t *testing.T) {
			const slots, rows, jobs = 4, 2, 48
			var (
				mu       sync.Mutex
				closed   bool
				freeRows = rows
				refused  int
			)
			policy, err := newAdmissionPolicy("wfair")
			if err != nil {
				t.Fatal(err)
			}
			q := admitQueue{cond: sync.NewCond(&mu), closed: &closed, errClosed: errClosed, policy: policy, slots: slots}
			var grant func() bool
			if style == "mm" {
				grant = func() bool {
					if freeRows == 0 {
						refused++
						return false
					}
					freeRows--
					return true
				}
			}
			var wg sync.WaitGroup
			for i := 1; i <= jobs; i++ {
				wg.Add(1)
				go func(j *liveJob) {
					defer wg.Done()
					mu.Lock()
					err := q.await(j, grant)
					if err != nil || q.inUse > slots || freeRows < 0 {
						t.Errorf("job %d: err %v, %d of %d slots in use, %d rows free", j.id, err, q.inUse, slots, freeRows)
					}
					mu.Unlock()
					time.Sleep(time.Millisecond)
					mu.Lock()
					if grant != nil {
						freeRows++
					}
					q.release()
					mu.Unlock()
				}(&liveJob{id: i, spec: JobSpec{User: string(rune('a' + i%3)), BinaryBytes: 1 + i%5}})
			}
			wg.Wait()
			if q.inUse != 0 || len(q.q) != 0 || freeRows != rows {
				t.Fatalf("after %d jobs: %d slots in use, %d queued, %d rows free", jobs, q.inUse, len(q.q), freeRows)
			}
			if style == "mm" && refused == 0 {
				t.Fatal("the row hook never refused: the test did not exercise refuse-then-grant")
			}

			// Shutdown: fill the slots, park one more, close.
			mu.Lock()
			freeRows = slots
			for i := 0; i < slots; i++ {
				if err := q.await(&liveJob{id: 100 + i}, grant); err != nil {
					t.Fatal(err)
				}
			}
			mu.Unlock()
			parked := make(chan error, 1)
			go func() {
				mu.Lock()
				defer mu.Unlock()
				parked <- q.await(&liveJob{id: 200}, grant)
			}()
			for {
				mu.Lock()
				n := len(q.q)
				mu.Unlock()
				if n == 1 {
					break
				}
				time.Sleep(time.Millisecond)
			}
			mu.Lock()
			closed = true
			q.cond.Broadcast()
			mu.Unlock()
			select {
			case err := <-parked:
				if !errors.Is(err, errClosed) {
					t.Fatalf("parked job released with %v, want the owner's closed error", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("a parked job was not released by shutdown")
			}
		})
	}
}
