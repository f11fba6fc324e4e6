package livenet

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/testutil"
)

// fedJobBase returns the partition-scoped job-ID base for partition p.
// Bases are spaced 1<<20 apart so a leaf would need a million jobs to
// collide with its neighbour.
func fedJobBase(p int) int { return (p + 1) << 20 }

// partitionsOf lists the partitions a federated job ran on, ascending.
func partitionsOf(rep FedReport) []int {
	var ids []int
	for _, p := range rep.Parts {
		ids = append(ids, p.Partition)
	}
	return ids
}

// livePartitions lists the partitions the root has not marked dead.
func livePartitions(f *Federation) []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	var ids []int
	for _, p := range f.parts {
		if !p.dead {
			ids = append(ids, p.id)
		}
	}
	return ids
}

// fedCluster boots a two-level federation: one shared PeerHub, P leaf
// MMs each owning perPart lite NMs (partition p owns global node IDs
// [p·perPart, (p+1)·perPart)), and a federation root over them. nmCfg,
// when non-nil, customizes individual NMs by global node ID — the hook
// the chaos suite uses to arm fault plans. Shutdown is explicit
// (returned close func) so leak tests can assert the goroutine count
// after teardown; it is also registered via t.Cleanup and safe to call
// twice.
func fedCluster(t testing.TB, partitions, perPart int, fcfg FedConfig, mmCfg MMConfig,
	nmCfg func(node int) NMConfig) (*Federation, []*MM, []*NM, func()) {
	t.Helper()
	hub, err := NewPeerHub("")
	if err != nil {
		t.Fatal(err)
	}
	var mms []*MM
	var nms []*NM
	var fed *Federation
	done := false
	shutdown := func() {
		if done {
			return
		}
		done = true
		if fed != nil {
			fed.Close()
		}
		for _, nm := range nms {
			nm.Close()
		}
		for _, mm := range mms {
			mm.Close()
		}
		hub.Close()
	}
	t.Cleanup(shutdown)
	for p := 0; p < partitions; p++ {
		cfg := mmCfg
		cfg.JobBase = fedJobBase(p)
		cfg.Lite = true
		mm, err := NewMM("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		mms = append(mms, mm)
		for i := 0; i < perPart; i++ {
			node := p*perPart + i
			var c NMConfig
			if nmCfg != nil {
				c = nmCfg(node)
			}
			c.Hub = hub
			c.Lite = true
			nm, err := NewNMConfig(mm.Addr(), node, 4, c)
			if err != nil {
				t.Fatal(err)
			}
			nms = append(nms, nm)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, mm := range mms {
		for len(mm.NMs()) < perPart {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d NMs registered on leaf %s", len(mm.NMs()), perPart, mm.Addr())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	fed, err = NewFederation("127.0.0.1:0", fcfg, mms)
	if err != nil {
		t.Fatal(err)
	}
	return fed, mms, nms, shutdown
}

// TestFederationSinglePartition checks that a job fitting one partition
// lands on exactly one leaf — the root never splits a job that doesn't
// need splitting — and that clients cannot tell a federation root from
// a flat MM: the plain SubmitJob client call works against it.
func TestFederationSinglePartition(t *testing.T) {
	fed, mms, _, _ := fedCluster(t, 2, 4, FedConfig{Lite: true}, MMConfig{Fanout: 2}, nil)
	rep, err := SubmitJob(fed.Addr(), JobSpec{
		Name: "one", BinaryBytes: 256 << 10, Nodes: 4, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Send <= 0 || rep.Total < rep.Send {
		t.Fatalf("nonsensical report: %+v", rep)
	}
	// Exactly one leaf ran the sub-job (a 4-node job on a 2x4 federation
	// lands on partition 0 alone); job accounting is leaf-local.
	st0, st1 := mms[0].status(), mms[1].status()
	if st0.Completed != 1 || st1.Completed != 0 {
		t.Fatalf("sub-job accounting: partition 0 completed %d, partition 1 completed %d; want 1, 0",
			st0.Completed, st1.Completed)
	}
}

// TestFederationSpanning checks that a job larger than any single
// partition spans multiple leaves, that the aggregate report is the
// critical path over the concurrent sub-jobs, and that the root's
// delegation egress stays O(partitions) — a couple of Submit frames,
// nowhere near the image bytes the leaves push.
func TestFederationSpanning(t *testing.T) {
	fed, _, _, _ := fedCluster(t, 2, 3, FedConfig{Lite: true}, MMConfig{Fanout: 2}, nil)
	rep, err := fed.RunJob(JobSpec{
		Name: "span", BinaryBytes: 512 << 10, Nodes: 6, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Parts) != 2 {
		t.Fatalf("6-node job over 2x3 should span 2 partitions, got %d: %+v", len(rep.Parts), rep.Parts)
	}
	for _, p := range rep.Parts {
		if p.Nodes != 3 {
			t.Fatalf("partition %d got %d nodes, want 3", p.Partition, p.Nodes)
		}
		if p.Report.Send > rep.Send {
			t.Fatalf("aggregate Send %v below partition %d's %v", rep.Send, p.Partition, p.Report.Send)
		}
	}
	// One Submit frame per partition: generously bounded well below
	// the 512 KiB image each leaf then fans out itself.
	if rep.RootEgress <= 0 || rep.RootEgress > 8<<10 {
		t.Fatalf("root egress %dB, want small O(partitions) delegation cost", rep.RootEgress)
	}
}

// TestFederationPlaceGrouping checks that an explicitly placed job is
// split by node ownership: each pinned node reaches its owning
// partition, and an unknown node is rejected.
func TestFederationPlaceGrouping(t *testing.T) {
	fed, mms, _, _ := fedCluster(t, 2, 4, FedConfig{Lite: true}, MMConfig{Fanout: 2}, nil)
	// Nodes 1,2 live in partition 0; nodes 5,6 in partition 1.
	rep, err := fed.RunJob(JobSpec{
		Name: "pin", BinaryBytes: 128 << 10, Nodes: 4, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"}, Place: []int{1, 2, 5, 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Parts) != 2 || rep.Parts[0].Nodes != 2 || rep.Parts[1].Nodes != 2 {
		t.Fatalf("pinned 2+2 split, got %+v", rep.Parts)
	}
	if st := mms[0].status(); st.Completed != 1 {
		t.Fatalf("partition 0 should have completed its pinned share: %+v", st)
	}
	if _, err := fed.RunJob(JobSpec{
		Name: "ghost", BinaryBytes: 64 << 10, Nodes: 1, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"}, Place: []int{99},
	}); err == nil {
		t.Fatal("placing an unregistered node must fail")
	}
}

// TestFederationJobIDsPartitionScoped checks the tentpole's frame-header
// invariant: leaves number jobs from disjoint JobBase ranges, so the
// u32 job ID in every frame already names its partition, and a
// federation over clashing bases is refused outright.
func TestFederationJobIDsPartitionScoped(t *testing.T) {
	fed, mms, nms, _ := fedCluster(t, 2, 2, FedConfig{Lite: true}, MMConfig{Fanout: 2}, nil)
	if _, err := fed.RunJob(JobSpec{
		Name: "ids", BinaryBytes: 128 << 10, Nodes: 4, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	}); err != nil {
		t.Fatal(err)
	}
	// Each NM holds the image under its own leaf's job ID, inside that
	// partition's base range.
	for _, nm := range nms {
		part := nm.Node() / 2
		want := fedJobBase(part) + 1
		if _, ok := nm.ImageDigest(want); !ok {
			t.Fatalf("node %d (partition %d) has no image for job %d", nm.Node(), part, want)
		}
	}
	// Clashing bases are a construction error, not a latent collision.
	if _, err := NewFederation("127.0.0.1:0", FedConfig{}, []*MM{mms[0], mms[0]}); err == nil {
		t.Fatal("duplicate JobBase must be rejected")
	}
}

// TestFederationStatusFold checks that the live partitions' snapshots
// fold up to one cluster view, answered to the wire StatusQ a plain
// client sends.
func TestFederationStatusFold(t *testing.T) {
	fed, _, _, _ := fedCluster(t, 3, 2, FedConfig{Lite: true}, MMConfig{Fanout: 2}, nil)
	if _, err := fed.RunJob(JobSpec{
		Name: "st", BinaryBytes: 64 << 10, Nodes: 6, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	}); err != nil {
		t.Fatal(err)
	}
	if live := livePartitions(fed); len(live) != 3 {
		t.Fatalf("live partitions: %v", live)
	}
	wire, err := QueryStatus(fed.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if len(wire.Nodes) != 6 || wire.Launched != 1 || wire.Completed != 1 {
		t.Fatalf("wire status: %+v", wire)
	}
	for i, n := range wire.Nodes {
		if n != i {
			t.Fatalf("folded node set not ascending globals: %v", wire.Nodes)
		}
	}
}

// TestFederationDeterministicPick checks satellite determinism one
// level up: on an idle federation the partition pick is a pure function
// of (load, partition ID), so back-to-back identical jobs land on the
// same partitions every time.
func TestFederationDeterministicPick(t *testing.T) {
	fed, _, _, _ := fedCluster(t, 3, 2, FedConfig{Lite: true}, MMConfig{Fanout: 2}, nil)
	var first string
	for i := 0; i < 3; i++ {
		rep, err := fed.RunJob(JobSpec{
			Name: "det", BinaryBytes: 64 << 10, Nodes: 3, PEsPerNode: 1,
			Program: ProgramSpec{Kind: "exit"},
		})
		if err != nil {
			t.Fatal(err)
		}
		pick := fmt.Sprint(partitionsOf(rep))
		if first == "" {
			first = pick
		} else if pick != first {
			t.Fatalf("run %d picked %s, run 0 picked %s — partition pick must be deterministic", i, pick, first)
		}
	}
	if first != "[0 1]" {
		t.Fatalf("idle 3x2 federation, 3-node job: want fill-from-partition-0 spill to 1, got %s", first)
	}
}

// TestFederationCapacity checks that a job exceeding the whole cluster
// is refused with the partition-aware error, not hung.
func TestFederationCapacity(t *testing.T) {
	fed, _, _, _ := fedCluster(t, 2, 2, FedConfig{Lite: true}, MMConfig{Fanout: 2}, nil)
	_, err := fed.RunJob(JobSpec{
		Name: "big", BinaryBytes: 64 << 10, Nodes: 5, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	})
	if err == nil || !strings.Contains(err.Error(), "partitions") {
		t.Fatalf("want capacity error naming partitions, got %v", err)
	}
}

// TestFederationTeardown checks the whole two-level stack — root, hub,
// leaves, NMs — returns the process to its goroutine baseline, using
// the shared testutil helper the 512-NM runs rely on.
func TestFederationTeardown(t *testing.T) {
	base := runtime.NumGoroutine()
	fed, _, _, shutdown := fedCluster(t, 2, 4, FedConfig{Lite: true}, MMConfig{Fanout: 2}, nil)
	if _, err := SubmitJob(fed.Addr(), JobSpec{
		Name: "bye", BinaryBytes: 64 << 10, Nodes: 8, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"},
	}); err != nil {
		t.Fatal(err)
	}
	shutdown()
	testutil.WaitForGoroutines(t, base, 5*time.Second)
}
