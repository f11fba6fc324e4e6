package livenet

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/livenet/faultconn"
	"repro/internal/livenet/journal"
)

// Restart-and-rejoin chaos: where chaos_test.go proves the cluster
// survives losing a component, this file proves it heals back to full
// strength — a convicted NM rejoins and is trusted again after
// probation, a crashed MM resumes its admitted backlog from the
// journal, and a dead federation leaf is re-absorbed by the root's
// resurrection prober.

// gatedNMConfig arms every conn a node accepts or dials with the same
// process-level Gate, so Pause/Heal/Kill act on the whole NM like
// signals on a dæmon.
func gatedNMConfig(gate *faultconn.Gate) NMConfig {
	gatedPlan := func() faultconn.Plan {
		plan := faultconn.NewPlan()
		plan.Gate = gate
		return plan
	}
	return NMConfig{
		WrapConn: func(c net.Conn) net.Conn {
			return faultconn.Wrap(c, gatedPlan())
		},
		Dialer: func(addr string) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			return faultconn.Wrap(c, gatedPlan()), nil
		},
	}
}

// waitStatus polls the MM until cond(status) holds, failing after the
// deadline.
func waitStatus(t *testing.T, mm *MM, what string, timeout time.Duration, cond func(StatusRep) bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := mm.status()
		if cond(st) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (status %+v)", what, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseWithQueuedAdmissions: jobs parked in the admission queue
// when the MM shuts down must fail promptly with the named ErrMMClosed
// — never hang on the condition variable, never return a misleading
// placement error.
func TestCloseWithQueuedAdmissions(t *testing.T) {
	cfg := chaosMMConfig()
	// Two gang rows, both held by long sleeps: later submissions park in
	// the admission queue on row exhaustion.
	cfg.GangQuantum = 10 * time.Millisecond
	cfg.MPL = 2
	mm, _, _ := chaosCluster(t, 2, cfg, nil)
	hogErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := mm.RunJob(JobSpec{
				Name: "hog", BinaryBytes: 64 << 10, Nodes: 2, PEsPerNode: 1,
				Program: ProgramSpec{Kind: "sleep", Duration: 10 * time.Second},
			})
			hogErrs <- err
		}()
	}
	waitStatus(t, mm, "both gang rows occupied", 5*time.Second,
		func(st StatusRep) bool { return st.Jobs == 2 })

	const queued = 4
	qErrs := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func() {
			_, err := mm.RunJob(JobSpec{
				Name: "parked", BinaryBytes: 64 << 10, Nodes: 2, PEsPerNode: 1,
				Program: ProgramSpec{Kind: "exit"},
			})
			qErrs <- err
		}()
	}
	waitStatus(t, mm, "submissions parked in the admission queue", 5*time.Second,
		func(st StatusRep) bool { return st.Queued == queued })

	mm.Close()
	for i := 0; i < queued; i++ {
		select {
		case err := <-qErrs:
			if !errors.Is(err, ErrMMClosed) {
				t.Fatalf("queued waiter got %v, want ErrMMClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("queued admission waiter %d still hung after Close", i)
		}
	}
}

// TestChaosDetectorFlapNoConviction: a node that stalls for a bit over
// one heartbeat period — a GC pause, a scheduler hiccup — and then
// recovers must never be convicted. One missed round is an absence
// streak, not a failure; conviction needs two consecutive misses plus a
// failed directed probe, and this node answers its probe.
func TestChaosDetectorFlapNoConviction(t *testing.T) {
	const n, victim = 3, 2
	const period = 200 * time.Millisecond
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			gate := faultconn.NewGate()
			mm, _, _ := chaosCluster(t, n, chaosMMConfig(), func(node int) NMConfig {
				if node != victim {
					return NMConfig{}
				}
				return gatedNMConfig(gate)
			})
			fails := make(chan int, n)
			stop := mm.StartHeartbeat(period, func(node int) { fails <- node })
			defer stop()
			time.Sleep(4 * period) // settle: every node vouched for
			select {
			case node := <-fails:
				t.Fatalf("false positive on node %d before any fault", node)
			default:
			}
			// Stall the whole node for 1.0–1.33 periods, the seed picking
			// where in that band. Its queued pongs flush on heal.
			pause := period + time.Duration(seedIntn(seed, int(period)/3))
			gate.Pause()
			time.Sleep(pause)
			gate.Heal()
			time.Sleep(6 * period)
			select {
			case node := <-fails:
				t.Fatalf("node %d convicted for a %v stall (period %v)", node, pause, period)
			default:
			}
			if !nodeRow(mm, victim).eligible() {
				t.Fatal("flapped node lost placement eligibility without a conviction")
			}
		})
	}
}

// TestChaosNMRejoinFullStrength is the healing half of the kill tests:
// an NM is hard-killed mid-transfer and convicted, then restarts with
// the Rejoin handshake and its persisted chunk cache. It must re-enter
// under its probation, earn back placement eligibility by
// answering heartbeats, and the next full-cluster launch must use it —
// completing with zero failures, a byte-identical image everywhere, and
// its warm cache honored (the relaunch streams less than the image).
func TestChaosNMRejoinFullStrength(t *testing.T) {
	const n = 5
	const period = 250 * time.Millisecond
	victim := n - 1 // a distribution-tree leaf
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := chaosMMConfig()
			killAt := 8 + seedIntn(seed, 16)
			cacheDir := t.TempDir() // the victim's cache survives its restart
			var victimNM atomic.Pointer[NM]
			mm, nms, _ := chaosCluster(t, n, cfg, func(node int) NMConfig {
				c := NMConfig{CacheBytes: 8 << 20}
				if node != victim {
					return c
				}
				c.CacheDir = cacheDir
				c.WrapConn = func(nc net.Conn) net.Conn {
					plan := faultconn.NewPlan()
					plan.CloseAtReadFrag = killAt
					plan.OnFault = func(string) {
						go func() {
							if nm := victimNM.Load(); nm != nil {
								nm.Close()
							}
						}()
					}
					return faultconn.Wrap(nc, plan)
				}
				return c
			})
			victimNM.Store(nms[victim])
			fails := make(chan int, n)
			stop := mm.StartHeartbeat(period, func(node int) { fails <- node })
			defer stop()
			time.Sleep(3 * period)

			spec := JobSpec{
				Name: "heal", BinaryBytes: chaosBinary, Nodes: n, PEsPerNode: 1,
				ImageSeed: 0xBEEF, Program: ProgramSpec{Kind: "exit"},
			}
			rep1, err := SubmitJob(mm.Addr(), spec)
			if err != nil {
				t.Fatalf("launch did not recover from killing node %d at frag %d: %v", victim, killAt, err)
			}
			if len(rep1.Failed) != 1 || rep1.Failed[0] != victim {
				t.Fatalf("report names failed nodes %v, want [%d]", rep1.Failed, victim)
			}

			// The detector convicts the dead node; until it rejoins it is
			// out of the placement rotation.
			select {
			case node := <-fails:
				if node != victim {
					t.Fatalf("healthy node %d convicted", node)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("killed node never convicted")
			}
			if nodeRow(mm, victim).eligible() {
				t.Fatal("convicted node still placement-eligible")
			}

			// Restart: same node ID, same cache dir, Rejoin handshake.
			nm2, err := NewNMConfig(mm.Addr(), victim, 4, NMConfig{
				Rejoin: true, CacheBytes: 8 << 20, CacheDir: cacheDir,
			})
			if err != nil {
				t.Fatalf("rejoin failed: %v", err)
			}
			t.Cleanup(nm2.Close)
			if nm2.Probation() != rejoinProbation {
				t.Fatalf("rejoin ack granted probation %d, want %d", nm2.Probation(), rejoinProbation)
			}
			deadline := time.Now().Add(10*period + 5*time.Second)
			for !nodeRow(mm, victim).eligible() {
				if time.Now().After(deadline) {
					t.Fatalf("rejoined node never cleared probation (%d rounds left)",
						nodeRow(mm, victim).probation)
				}
				time.Sleep(20 * time.Millisecond)
			}

			// Full strength: the n-node relaunch can only succeed if the
			// rejoined node is back in the rotation.
			rep2, err := SubmitJob(mm.Addr(), spec)
			if err != nil {
				t.Fatalf("full-cluster relaunch after rejoin failed: %v", err)
			}
			if len(rep2.Failed) != 0 {
				t.Fatalf("relaunch reported failed nodes %v on a healed cluster", rep2.Failed)
			}
			if rep2.BytesSaved <= 0 {
				t.Fatalf("relaunch of the same image saved no bytes — caches (incl. the rejoined node's) ignored: %+v", rep2)
			}
			frags := chaosBinary / cfg.FragBytes
			assertSurvivorImages(t, nms, victim, rep2.JobID, frags)
			d, ok := nm2.ImageDigest(rep2.JobID)
			if !ok || d.Frags != frags {
				t.Fatalf("rejoined node holds no complete image for job %d (%+v, ok=%v)", rep2.JobID, d, ok)
			}
			if ref, _ := nms[0].ImageDigest(rep2.JobID); d != ref {
				t.Fatalf("rejoined node's image %+v differs from survivor's %+v", d, ref)
			}
			if nmLaunches(nm2) == 0 {
				t.Fatal("rejoined node launched no processes")
			}
			// Conviction of the old incarnation must not have leaked into
			// the new one.
			select {
			case node := <-fails:
				if node == victim {
					t.Fatal("rejoined node re-convicted without a new failure")
				}
				t.Fatalf("healthy node %d convicted", node)
			default:
			}
		})
	}
}

// TestChaosMMRestartJournalReplay: an MM with a durable journal goes
// down with two jobs mid-flight and two more parked in the admission
// queue. The queued waiters fail promptly with ErrMMClosed; a new MM on
// the same journal fails the in-flight jobs durably, recovers exactly
// the two admitted-but-unplaced specs, and — once NMs register — reruns
// them to completion. A second restart must not re-run them again.
func TestChaosMMRestartJournalReplay(t *testing.T) {
	jdir := t.TempDir()
	cfg := chaosMMConfig()
	cfg.JournalDir = jdir
	cfg.GangQuantum = 10 * time.Millisecond
	cfg.MPL = 2
	mm, _, shutdown := chaosCluster(t, 3, cfg, nil)
	if mm.JournalPath() == "" {
		t.Fatal("journal not open")
	}

	hogErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := mm.RunJob(JobSpec{
				Name: "hog", BinaryBytes: 64 << 10, Nodes: 3, PEsPerNode: 1,
				Program: ProgramSpec{Kind: "sleep", Duration: 10 * time.Second},
			})
			hogErrs <- err
		}()
	}
	waitStatus(t, mm, "both gang rows occupied", 5*time.Second,
		func(st StatusRep) bool { return st.Jobs == 2 })

	qErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := mm.RunJob(JobSpec{
				Name: fmt.Sprintf("recover-%d", i), BinaryBytes: 128 << 10, Nodes: 3,
				PEsPerNode: 1, ImageSeed: 0xFEED, Program: ProgramSpec{Kind: "exit"},
			})
			qErrs <- err
		}(i)
	}
	waitStatus(t, mm, "two jobs parked in the admission queue", 5*time.Second,
		func(st StatusRep) bool { return st.Queued == 2 })
	waitReplayEqualsLive(t, mm, jdir, map[string]int{"launched": 2, "admitted": 2})

	// The MM crashes, then its NMs go down. (NMs first would be node
	// deaths the running MM acts on: the hogs fail at once, and the
	// queued pair is admitted onto a cluster too small to place it.)
	mm.Close()
	shutdown()
	for i := 0; i < 2; i++ {
		select {
		case err := <-qErrs:
			if !errors.Is(err, ErrMMClosed) {
				t.Fatalf("queued waiter got %v, want ErrMMClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued admission waiter hung across shutdown")
		}
	}

	// Restart on the same journal. The hogs were placed (in flight), so
	// they are failed durably; the parked pair is the recovery backlog.
	mm2, err := NewMM("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mm2.Close)
	rec := mm2.RecoveredJobs()
	if len(rec) != 2 {
		t.Fatalf("restart recovered %d jobs, want 2 (%+v)", len(rec), rec)
	}
	names := map[string]bool{}
	for _, rj := range rec {
		names[rj.Spec.Name] = true
	}
	if !names["recover-0"] || !names["recover-1"] {
		t.Fatalf("recovered the wrong specs: %v", names)
	}

	// The backlog waits for membership; give the restarted cluster NMs.
	for i := 0; i < 3; i++ {
		nm, err := NewNMConfig(mm2.Addr(), i, 4, NMConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nm.Close)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		rec = mm2.RecoveredJobs()
		done := 0
		for _, rj := range rec {
			if rj.Done {
				done++
				if rj.Err != nil {
					t.Fatalf("recovered job %q failed its rerun: %v", rj.Spec.Name, rj.Err)
				}
				if rj.Report.JobID == 0 || rj.Report.Total <= 0 {
					t.Fatalf("recovered job %q has a bogus report: %+v", rj.Spec.Name, rj.Report)
				}
			}
		}
		if done == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered jobs never completed (%d/2 done)", done)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Idempotence: the reruns retired the original IDs, so yet another
	// restart finds nothing to recover.
	mm2.Close()
	mm3, err := NewMM("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mm3.Close)
	if rec := mm3.RecoveredJobs(); len(rec) != 0 {
		t.Fatalf("second restart re-recovered %d jobs, want 0: %+v", len(rec), rec)
	}
}

// liveRows is JobTable's (ID, phase) rows.
func liveRows(mm *MM) map[int]string {
	rows := make(map[int]string)
	for _, info := range mm.JobTable() {
		rows[info.ID] = info.Phase
	}
	return rows
}

// replayedRows is the (ID, phase) rows of the unfinished jobs the
// journal under dir replays to, through the MM's own apply.
func replayedRows(t *testing.T, dir string) map[int]string {
	t.Helper()
	jobs, err := replayJobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[int]string)
	for _, j := range jobs {
		if j.phase < phaseDone {
			rows[j.id] = phases[j.phase].name
		}
	}
	return rows
}

// waitReplayEqualsLive waits for the MM's job table to hold want (a
// count per phase) and then checks that the journal replays to exactly
// those rows. A record moves its row just before it appends, so the two
// may differ for that instant: the check allows them a moment to agree.
func waitReplayEqualsLive(t *testing.T, mm *MM, dir string, want map[string]int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		live := liveRows(mm)
		count := make(map[string]int)
		for _, p := range live {
			count[p]++
		}
		settled := fmt.Sprint(count) == fmt.Sprint(want)
		replayed := replayedRows(t, dir)
		if settled && fmt.Sprint(live) == fmt.Sprint(replayed) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job table %v (want phases %v), journal replays to %v", live, want, replayed)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosMMRestartRotationKeepsBacklog: a restarted MM whose journal
// is past its rotation limit rotates on its first recovered rerun. That
// rotation's snapshot must keep every recovered job still waiting its
// turn — here a 2-node job queued behind a 1-node one on a 1-NM
// cluster — so a second restart still finds it.
func TestChaosMMRestartRotationKeepsBacklog(t *testing.T) {
	jdir := t.TempDir()
	jnl, err := journal.Open(jdir)
	if err != nil {
		t.Fatal(err)
	}
	filler := make([]byte, 4<<10)
	id := 0
	for !jnl.NeedsRotation() {
		id++
		jnl.Append(journal.Event{Type: journal.JobAdmitted, Job: id, Data: filler})
		jnl.Append(journal.Event{Type: journal.JobDone, Job: id})
	}
	for _, nodes := range []int{1, 2} {
		id++
		spec := JobSpec{Name: fmt.Sprintf("backlog-%d", nodes), BinaryBytes: 64 << 10, Nodes: nodes,
			PEsPerNode: 1, Program: ProgramSpec{Kind: "exit"}}
		jnl.Append(journal.Event{Type: journal.JobAdmitted, Job: id, Data: encodeSpec(&spec)})
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := chaosMMConfig()
	cfg.JournalDir = jdir
	mm, _, shutdown := chaosCluster(t, 1, cfg, nil)
	if rec := mm.RecoveredJobs(); len(rec) != 2 {
		t.Fatalf("restart recovered %d jobs, want 2 (%+v)", len(rec), rec)
	}
	deadline := time.Now().Add(10 * time.Second)
	for rec := mm.RecoveredJobs(); !rec[0].Done; rec = mm.RecoveredJobs() {
		if time.Now().After(deadline) {
			t.Fatal("the 1-node recovered job never reran")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rj := mm.RecoveredJobs()[0]; rj.Err != nil {
		t.Fatalf("recovered job %q failed its rerun: %v", rj.Spec.Name, rj.Err)
	}
	shutdown()

	mm2, err := NewMM("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mm2.Close()
	rec := mm2.RecoveredJobs()
	if len(rec) != 1 || rec[0].Spec.Name != "backlog-2" {
		t.Fatalf("second restart recovered %+v, want only backlog-2", rec)
	}
}

// TestChaosFederationResurrection: a federation leaf MM dies
// mid-transfer (the root re-admits the job's share to the survivor and
// convicts the partition), then the leaf restarts from its journal on a
// fresh port. After Reabsorb hands the root the new incarnation, the
// resurrection prober verifies it over the wire and marks the partition
// live again — and placement flows back to it.
func TestChaosFederationResurrection(t *testing.T) {
	const perPart = 3
	cfg := chaosMMConfig()
	jdir := t.TempDir()
	seed := chaosSeeds[0]
	killAt := 8 + seedIntn(seed, 16)

	newLeaf := func(p int, journal string, wrap func(net.Conn) net.Conn) *MM {
		c := cfg
		c.JobBase = fedJobBase(p)
		c.JournalDir = journal
		c.WrapConn = wrap
		mm, err := NewMM("127.0.0.1:0", c)
		if err != nil {
			t.Fatal(err)
		}
		return mm
	}
	startNMs := func(mm *MM, base int, nmCfg func(node int) NMConfig) []*NM {
		var out []*NM
		for i := 0; i < perPart; i++ {
			var c NMConfig
			if nmCfg != nil {
				c = nmCfg(base + i)
			}
			nm, err := NewNMConfig(mm.Addr(), base+i, 4, c)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(nm.Close)
			out = append(out, nm)
		}
		deadline := time.Now().Add(5 * time.Second)
		for len(mm.NMs()) < perPart {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d NMs registered on leaf %s", len(mm.NMs()), perPart, mm.Addr())
			}
			time.Sleep(5 * time.Millisecond)
		}
		return out
	}

	// The stream fault models the leaf MM process dying. MM.Kill lands on
	// a goroutine of its own, so the death takes effect first on the
	// links: partition 0's NM links and every link its first leaf MM
	// accepts — the root's submit link among them — are on one gate,
	// killed the moment the fault fires. The leaf can then neither finish
	// the job nor answer the root. Its restarted incarnation and NMs are
	// not gated.
	gate := faultconn.NewGate()
	gated := func(c net.Conn) net.Conn {
		plan := faultconn.NewPlan()
		plan.Gate = gate
		return faultconn.Wrap(c, plan)
	}
	var victimMM atomic.Pointer[MM]
	mm0 := newLeaf(0, jdir, gated)
	t.Cleanup(mm0.Close)
	victimMM.Store(mm0)
	mm1 := newLeaf(1, "", nil)
	t.Cleanup(mm1.Close)
	nms0 := startNMs(mm0, 0, func(node int) NMConfig {
		if node != 0 { // partition 0's direct MM child carries the stream
			return NMConfig{WrapConn: gated}
		}
		return NMConfig{WrapConn: func(c net.Conn) net.Conn {
			plan := faultconn.NewPlan()
			plan.Gate = gate
			plan.CloseAtReadFrag = killAt
			plan.OnFault = func(kind string) {
				if kind != "read-close" {
					return
				}
				gate.Kill()
				go func() {
					if mm := victimMM.Load(); mm != nil {
						mm.Kill()
					}
				}()
			}
			return faultconn.Wrap(c, plan)
		}}
	})
	startNMs(mm1, perPart, nil)
	fed, err := NewFederation("127.0.0.1:0", FedConfig{}, []*MM{mm0, mm1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Close)

	// Free placement on an idle federation picks partition 0 — the one
	// armed to die. The share is re-admitted to partition 1.
	rep, err := fed.RunJob(JobSpec{
		Name: "leafdeath", BinaryBytes: chaosBinary, Nodes: perPart, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	})
	if err != nil {
		t.Fatalf("job did not survive leaf death at frag %d: %v", killAt, err)
	}
	if rep.Readmits != 1 {
		t.Fatalf("want one re-admission, got %d (parts %+v)", rep.Readmits, rep.Parts)
	}
	if live := livePartitions(fed); len(live) != 1 || live[0] != 1 {
		t.Fatalf("partition 0 should be convicted, live=%v", live)
	}

	// Restart the dead leaf from its journal. Its in-flight share was
	// failed durably on replay (the root already re-ran it elsewhere),
	// so the recovery backlog is empty.
	for _, nm := range nms0 {
		nm.Close()
	}
	mm0b := newLeaf(0, jdir, nil)
	t.Cleanup(mm0b.Close)
	if rec := mm0b.RecoveredJobs(); len(rec) != 0 {
		t.Fatalf("restarted leaf re-recovered %d in-flight jobs, want 0: %+v", len(rec), rec)
	}
	startNMs(mm0b, 0, nil)
	if err := fed.Reabsorb(mm0b); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(livePartitions(fed)) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("prober never resurrected partition 0, live=%v", livePartitions(fed))
		}
		time.Sleep(10 * time.Millisecond)
	}
	fed.mu.Lock()
	resurrections := fed.resurrections
	fed.mu.Unlock()
	if resurrections != 1 {
		t.Fatalf("resurrections=%d, want 1", resurrections)
	}

	// Placement rebalances toward the returned partition: it carries no
	// load, so the next free placement lands there...
	rep2, err := fed.RunJob(JobSpec{
		Name: "rebalance", BinaryBytes: 256 << 10, Nodes: perPart, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	})
	if err != nil {
		t.Fatalf("post-resurrection launch failed: %v", err)
	}
	if parts := partitionsOf(rep2); len(parts) != 1 || parts[0] != 0 {
		t.Fatalf("free placement should favor the resurrected idle partition: partitions %v", parts)
	}
	// ...and a spanning job uses the whole federation again.
	rep3, err := fed.RunJob(JobSpec{
		Name: "span", BinaryBytes: 256 << 10, Nodes: 2 * perPart, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	})
	if err != nil {
		t.Fatalf("spanning launch after resurrection failed: %v", err)
	}
	if parts := partitionsOf(rep3); len(parts) != 2 || parts[0] != 0 || parts[1] != 1 {
		t.Fatalf("spanning job should cross both partitions: partitions %v", parts)
	}
}
