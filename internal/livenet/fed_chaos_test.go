package livenet

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/livenet/faultconn"
)

// Partition-boundary chaos: the failure domains the flat-cluster suite
// cannot express. A leaf MM dying takes a whole partition with it — the
// root must convict the partition off the dead submit link and re-admit
// the job's share to a survivor. An NM dying inside one partition must
// stay that partition's problem — the leaf replans locally and the root
// never hears about it, so a bystander job in another partition is
// bit-for-bit undisturbed.

// TestChaosFederationLeafDeathReadmits kills a leaf MM mid-transfer
// (the trigger is seed-deterministic: the victim partition's direct
// child NM faults its stream at a seed-chosen fragment and takes the
// whole leaf down) and asserts the root re-admits the job to the
// surviving partition and completes it there.
func TestChaosFederationLeafDeathReadmits(t *testing.T) {
	const perPart = 3
	cfg := chaosMMConfig()
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			killAt := 8 + seedIntn(seed, 16)
			// The fault plan is armed before the leaf MM exists; the kill
			// callback resolves it through an atomic holder.
			var victimMM atomic.Pointer[MM]
			// The stream fault models the leaf MM process dying, not one NM.
			// MM.Kill lands on a goroutine of its own, so the death takes
			// effect first on the links: every link of partition 0 — its
			// NMs', and every one its leaf MM accepts once known, the root's
			// submit link among them — is on one gate, killed the moment
			// the fault fires. The leaf can then neither finish the job nor
			// answer the root.
			gate := faultconn.NewGate()
			gated := func(c net.Conn) net.Conn {
				plan := faultconn.NewPlan()
				plan.Gate = gate
				return faultconn.Wrap(c, plan)
			}
			leafCfg := cfg
			leafCfg.WrapConn = func(c net.Conn) net.Conn {
				if mm := victimMM.Load(); mm != nil && c.LocalAddr().String() == mm.Addr() {
					return gated(c)
				}
				return c
			}
			fed, mms, nms, _ := fedCluster(t, 2, perPart, FedConfig{Lite: true}, leafCfg,
				func(node int) NMConfig {
					switch {
					case node >= perPart:
						return NMConfig{}
					case node > 0:
						return NMConfig{WrapConn: gated}
					}
					// Partition 0's first NM — a direct MM child — trips it.
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
			victimMM.Store(mms[0])
			// Free placement on an idle federation deterministically picks
			// partition 0 — the one armed to die at fragment killAt.
			rep, err := fed.RunJob(JobSpec{
				Name: "leafdeath", BinaryBytes: chaosBinary, Nodes: perPart, PEsPerNode: 1,
				Program: ProgramSpec{Kind: "exit"},
			})
			if err != nil {
				t.Fatalf("job did not survive leaf death at frag %d: %v", killAt, err)
			}
			if rep.Readmits != 1 {
				t.Fatalf("want exactly one re-admission, got %d (parts %+v)", rep.Readmits, rep.Parts)
			}
			if len(rep.Parts) != 1 || rep.Parts[0].Partition != 1 {
				t.Fatalf("re-admitted share should have completed on partition 1: %+v", rep.Parts)
			}
			if live := livePartitions(fed); len(live) != 1 || live[0] != 1 {
				t.Fatalf("partition 0 should be convicted, live=%v", live)
			}
			// The survivors — partition 1's NMs — hold the complete image
			// under partition 1's job-ID range.
			leafJob := rep.Parts[0].Report.JobID
			if leafJob <= fedJobBase(1) || leafJob > fedJobBase(1)+1024 {
				t.Fatalf("re-admitted job ID %d outside partition 1's base range", leafJob)
			}
			assertSurvivorImages(t, nms[perPart:], -1, leafJob, chaosBinary/cfg.FragBytes)
			// The federation keeps serving from the survivor.
			if _, err := SubmitJob(fed.Addr(), JobSpec{
				Name: "after", BinaryBytes: 256 << 10, Nodes: perPart, PEsPerNode: 1,
				Program: ProgramSpec{Kind: "exit"},
			}); err != nil {
				t.Fatalf("post-conviction launch failed: %v", err)
			}
		})
	}
}

// TestChaosFederationPartitionIsolation kills an NM in partition 0
// mid-transfer while a bystander job runs pinned to partition 1. The
// disturbed job must recover via its own leaf's replan machinery; the
// bystander must complete with zero replans, zero failed nodes, and
// byte-identical images — proof the failure domain is the partition.
func TestChaosFederationPartitionIsolation(t *testing.T) {
	const perPart, victim = 5, 2 // node 2: a distribution-tree leaf of partition 0
	cfg := chaosMMConfig()
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			killAt := 8 + seedIntn(seed, 16)
			var victimNM atomic.Pointer[NM]
			fed, _, nms, _ := fedCluster(t, 2, perPart, FedConfig{Lite: true}, cfg,
				func(node int) NMConfig {
					if node != victim {
						return NMConfig{}
					}
					return NMConfig{WrapConn: func(c net.Conn) net.Conn {
						plan := faultconn.NewPlan()
						plan.CloseAtReadFrag = killAt
						plan.OnFault = func(string) {
							go func() {
								if nm := victimNM.Load(); nm != nil {
									nm.Close()
								}
							}()
						}
						return faultconn.Wrap(c, plan)
					}}
				})
			victimNM.Store(nms[victim])

			type res struct {
				rep FedReport
				err error
			}
			run := func(name string, place []int) chan res {
				ch := make(chan res, 1)
				go func() {
					rep, err := fed.RunJob(JobSpec{
						Name: name, BinaryBytes: chaosBinary, Nodes: len(place), PEsPerNode: 1,
						Program: ProgramSpec{Kind: "exit"}, Place: place,
					})
					ch <- res{rep, err}
				}()
				return ch
			}
			disturbedCh := run("disturbed", []int{0, 1, 2, 3, 4})
			bystanderCh := run("bystander", []int{5, 6, 7, 8, 9})
			disturbed, bystander := <-disturbedCh, <-bystanderCh

			if disturbed.err != nil {
				t.Fatalf("disturbed job did not recover from NM death at frag %d: %v", killAt, disturbed.err)
			}
			dr := disturbed.rep.Parts[0].Report
			if dr.Replans < 1 || len(dr.Failed) != 1 || dr.Failed[0] != victim {
				t.Fatalf("disturbed job should have replanned around node %d: replans=%d failed=%v",
					victim, dr.Replans, dr.Failed)
			}
			assertSurvivorImages(t, nms[:perPart], victim, dr.JobID, chaosBinary/cfg.FragBytes)

			if bystander.err != nil {
				t.Fatalf("bystander job failed: %v", bystander.err)
			}
			br := bystander.rep.Parts[0].Report
			if br.Replans != 0 || len(br.Failed) != 0 {
				t.Fatalf("bystander in partition 1 disturbed by partition 0's NM death: replans=%d failed=%v",
					br.Replans, br.Failed)
			}
			assertSurvivorImages(t, nms[perPart:], -1, br.JobID, chaosBinary/cfg.FragBytes)
			if live := livePartitions(fed); len(live) != 2 {
				t.Fatalf("an NM death must not convict its partition, live=%v", live)
			}
		})
	}
}
