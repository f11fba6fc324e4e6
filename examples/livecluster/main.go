// Live-cluster demo: boots a real (wall-clock) STORM instance — one MM
// and four NMs talking typed frames over TCP on the loopback interface —
// then launches three jobs through it: the do-nothing benchmark, a real
// SWEEP3D-style kernel computation, and a parallel sleep. It then
// offers six jobs at once to a two-slot MM and prints the live job
// table (per-job phase, queue wait, flow-control window) mid-flight.
// A gang section runs two pairs of gangs on four NMs: one pair on the
// same nodes time-shares two rows, the other, on disjoint nodes, shares
// row 0.
// A placement section then boots a 16-node cluster with declared
// per-node capacities, parks demand on most of it, and compares where
// the spread and locality policies seat the same 4-node gang (per-node
// capacity/used/load table included). Finally it kills a node and lets
// the heartbeat detector find the failure.
//
// This is the "distributed dæmon" face of the reproduction: the same
// MM/NM/PL division of labor as the simulator, over real sockets.
package main

import (
	"fmt"
	"time"

	"repro/internal/livenet"
	"repro/internal/livenet/chunkcache"
	"repro/internal/metrics"
	"repro/internal/place"
)

func main() {
	mm, err := livenet.NewMM("127.0.0.1:0", livenet.MMConfig{})
	if err != nil {
		panic(err)
	}
	defer mm.Close()
	fmt.Printf("MM listening on %s\n", mm.Addr())

	var nms []*livenet.NM
	for i := 0; i < 4; i++ {
		// 32 MB content-addressed chunk cache per NM: relaunches of the
		// same (or slightly rebuilt) image skip the bulk transfer.
		nm, err := livenet.NewNMConfig(mm.Addr(), i, 4, livenet.NMConfig{CacheBytes: 32 << 20})
		if err != nil {
			panic(err)
		}
		defer nm.Close()
		nms = append(nms, nm)
	}
	for len(mm.NMs()) < 4 {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("4 NMs registered: %v\n\n", mm.NMs())

	run := func(spec livenet.JobSpec) {
		rep, err := livenet.SubmitJob(mm.Addr(), spec)
		if err != nil {
			fmt.Printf("  %-10s ERROR: %v\n", spec.Name, err)
			return
		}
		fmt.Printf("  %-10s send %-12v execute %-12v total %v\n",
			spec.Name, rep.Send.Round(time.Microsecond),
			rep.Execute.Round(time.Microsecond), rep.Total.Round(time.Microsecond))
	}

	fmt.Println("Launching jobs:")
	run(livenet.JobSpec{
		Name: "do-nothing", BinaryBytes: 12_000_000, Nodes: 4, PEsPerNode: 4,
		Program: livenet.ProgramSpec{Kind: "exit"},
	})
	run(livenet.JobSpec{
		Name: "sweep3d", BinaryBytes: 4_000_000, Nodes: 4, PEsPerNode: 2,
		Program: livenet.ProgramSpec{Kind: "sweep", Grid: 48, Iters: 30},
	})
	run(livenet.JobSpec{
		Name: "sleep", BinaryBytes: 1_000_000, Nodes: 2, PEsPerNode: 1,
		Program: livenet.ProgramSpec{Kind: "sleep", Duration: 200 * time.Millisecond},
	})

	fmt.Println("\nDelta transfer: cold launch, warm relaunch, 1-chunk rebuild of a 12 MB image...")
	deltaTable := metrics.NewTable("delta launches", "launch", "chunks streamed", "bytes saved", "send")
	delta := func(label string, patch map[int]uint64) {
		rep, err := livenet.SubmitJob(mm.Addr(), livenet.JobSpec{
			Name: "delta-" + label, BinaryBytes: 12_000_000, Nodes: 4, PEsPerNode: 4,
			ImageSeed: 0xD5, ImagePatch: patch,
			Program: livenet.ProgramSpec{Kind: "exit"},
		})
		if err != nil {
			fmt.Printf("  delta-%s ERROR: %v\n", label, err)
			return
		}
		deltaTable.AddRow(label, fmt.Sprintf("%d/%d", rep.ChunksSent, rep.Chunks),
			rep.BytesSaved, rep.Send.Round(time.Microsecond))
	}
	delta("cold", nil)
	delta("warm", nil)
	delta("rebuild", map[int]uint64{3: 0xBEEF})
	fmt.Println(deltaTable.String())
	var cacheStats chunkcache.Stats
	for _, nm := range nms {
		if st, ok := nm.CacheStats(); ok {
			cacheStats.Hits += st.Hits
			cacheStats.Misses += st.Misses
			cacheStats.Evictions += st.Evictions
			cacheStats.BytesSaved += st.BytesSaved
		}
	}
	fmt.Printf("NM chunk caches: %d hits, %d misses, %d evictions, %d bytes served locally\n",
		cacheStats.Hits, cacheStats.Misses, cacheStats.Evictions, cacheStats.BytesSaved)

	fmt.Println("\nMulti-tenant admission: 6 jobs offered at once, 2 streaming slots...")
	mtMM, err := livenet.NewMM("127.0.0.1:0", livenet.MMConfig{
		MaxConcurrent: 2, Admission: "fifo",
	})
	if err != nil {
		panic(err)
	}
	defer mtMM.Close()
	for i := 0; i < 4; i++ {
		nm, err := livenet.NewNM(mtMM.Addr(), i, 4)
		if err != nil {
			panic(err)
		}
		defer nm.Close()
	}
	for len(mtMM.NMs()) < 4 {
		time.Sleep(5 * time.Millisecond)
	}
	// Sample the MM's job table while the jobs are in flight and keep the
	// busiest snapshot: per-job phase, queue wait, flow-control window.
	sampled := make(chan []livenet.JobInfo, 1)
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		var busiest []livenet.JobInfo
		for {
			select {
			case <-sampled:
				sampled <- busiest
				return
			default:
			}
			if snap := mtMM.JobTable(); len(snap) > len(busiest) {
				busiest = snap
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	mtDone := make(chan *livenet.Report, 6)
	for i := 0; i < 6; i++ {
		go func(i int) {
			rep, err := mtMM.RunJob(livenet.JobSpec{
				Name: fmt.Sprintf("tenant-%d", i), User: fmt.Sprintf("user%d", i%3),
				BinaryBytes: 2_000_000, Nodes: 4, PEsPerNode: 1,
				ImageSeed: 0xA0 + uint64(i),
				Program:   livenet.ProgramSpec{Kind: "sleep", Duration: 50 * time.Millisecond},
			})
			if err != nil {
				fmt.Printf("  tenant-%d ERROR: %v\n", i, err)
				mtDone <- nil
				return
			}
			mtDone <- &rep
		}(i)
	}
	mtTable := metrics.NewTable("launched jobs", "job", "queued", "send", "total", "window peak")
	for i := 0; i < 6; i++ {
		if rep := <-mtDone; rep != nil {
			mtTable.AddRow(rep.JobID, rep.Queued.Round(time.Microsecond),
				rep.Send.Round(time.Microsecond), rep.Total.Round(time.Microsecond),
				rep.WindowPeak)
		}
	}
	sampled <- nil
	<-sampleDone
	snap := <-sampled
	inflight := metrics.NewTable("mid-flight job table", "job", "phase", "queued", "window used")
	for _, ji := range snap {
		inflight.AddRow(fmt.Sprintf("%d:%s", ji.ID, ji.Name), ji.Phase,
			ji.Queued.Round(time.Microsecond), ji.WindowUsed)
	}
	fmt.Println(inflight.String())
	fmt.Println(mtTable.String())

	fmt.Println("\nLive gang scheduling: pairs of 300 ms spin gangs at MPL 2, 25 ms quanta, 4 NMs...")
	gangMM, err := livenet.NewMM("127.0.0.1:0", livenet.MMConfig{
		GangQuantum: 25 * time.Millisecond, MPL: 2,
	})
	if err != nil {
		panic(err)
	}
	defer gangMM.Close()
	for i := 0; i < 4; i++ {
		nm, err := livenet.NewNM(gangMM.Addr(), i, 4)
		if err != nil {
			panic(err)
		}
		defer nm.Close()
	}
	for len(gangMM.NMs()) < 4 {
		time.Sleep(5 * time.Millisecond)
	}
	// Gangs on the same nodes time-share two rows of the Ousterhout
	// matrix; gangs on disjoint nodes share row 0 and run side by side.
	gangTable := metrics.NewTable("gang matrix (rows = timeslots, columns = nodes)",
		"pair", "nodes", "rows", "elapsed")
	for _, pair := range []struct {
		label string
		nodes [2][]int
	}{
		{"overlapping", [2][]int{{0, 1}, {0, 1}}},
		{"disjoint", [2][]int{{0, 1}, {2, 3}}},
	} {
		gangStart := time.Now()
		reps := make(chan livenet.Report, 2)
		for _, nodes := range pair.nodes {
			go func() {
				rep, err := livenet.SubmitJob(gangMM.Addr(), livenet.JobSpec{
					Name: "gang", BinaryBytes: 256 << 10, Nodes: 2, PEsPerNode: 1, Place: nodes,
					Program: livenet.ProgramSpec{Kind: "spin", Duration: 300 * time.Millisecond},
				})
				if err != nil {
					fmt.Printf("  gang job error: %v\n", err)
				}
				reps <- rep
			}()
		}
		r1, r2 := <-reps, <-reps
		gangTable.AddRow(pair.label, fmt.Sprint(pair.nodes[0], pair.nodes[1]),
			fmt.Sprint(min(r1.Row, r2.Row), max(r1.Row, r2.Row)),
			time.Since(gangStart).Round(time.Millisecond))
	}
	st, err := livenet.QueryStatus(gangMM.Addr())
	if err != nil {
		panic(err)
	}
	fmt.Println(gangTable.String())
	fmt.Printf("  %d strobes issued\n", st.Strobes)

	fmt.Println("\nResource-aware placement: spread vs locality on a 16-node cluster...")
	// Every node declares a capacity; a pinned sleep job parks demand on
	// all nodes except {3, 5, 9, 13}, which sit one per topology group.
	// Load-only spread chases those idle nodes cross-rack; locality takes
	// the equally-loaded but adjacent block [0..3].
	busy := []int{0, 1, 2, 4, 6, 7, 8, 10, 11, 12, 14, 15}
	polTable := metrics.NewTable("placement-policy comparison (4-node gang, parked load)",
		"policy", "placed nodes", "gang span (hops)")
	for _, pol := range []string{"spread", "locality"} {
		pmm, err := livenet.NewMM("127.0.0.1:0", livenet.MMConfig{Placement: pol})
		if err != nil {
			panic(err)
		}
		var pnms []*livenet.NM
		for i := 0; i < 16; i++ {
			nm, err := livenet.NewNMConfig(pmm.Addr(), i, 4, livenet.NMConfig{
				Cap: place.Vec{CPU: 4, Mem: 8192, Net: 100},
			})
			if err != nil {
				panic(err)
			}
			pnms = append(pnms, nm)
		}
		for len(pmm.NMs()) < 16 {
			time.Sleep(5 * time.Millisecond)
		}
		parked := make(chan error, 1)
		go func() {
			_, err := pmm.RunJob(livenet.JobSpec{
				Name: "parked", BinaryBytes: 256 << 10, Nodes: len(busy), PEsPerNode: 1,
				Place: busy, Demand: place.Vec{CPU: 2, Mem: 4096, Net: 40},
				Program: livenet.ProgramSpec{Kind: "sleep", Duration: 1500 * time.Millisecond},
			})
			parked <- err
		}()
		// Wait until the parked job's demand is committed everywhere.
		for resident := 0; resident < len(busy); {
			resident = 0
			for _, ni := range pmm.NodeTable() {
				if ni.Load > 0 {
					resident++
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		if pol == "spread" {
			// Per-node capacity accounting, mid-flight: declared capacity,
			// committed usage, and job load while the parked job runs.
			nodeTab := metrics.NewTable("node table (parked job resident)",
				"node", "cpus", "capacity", "used", "load", "eligible")
			for _, ni := range pmm.NodeTable() {
				nodeTab.AddRow(ni.Node, ni.CPUs, ni.Cap.String(), ni.Used.String(), ni.Load, ni.Eligible)
			}
			fmt.Println(nodeTab.String())
		}
		rep, err := pmm.RunJob(livenet.JobSpec{
			Name: "gang-" + pol, BinaryBytes: 512 << 10, Nodes: 4, PEsPerNode: 1,
			Demand:  place.Vec{CPU: 1, Mem: 1024, Net: 10},
			Program: livenet.ProgramSpec{Kind: "exit"},
		})
		if err != nil {
			panic(err)
		}
		var placed []int
		for _, nm := range pnms {
			if _, ok := nm.ImageDigest(rep.JobID); ok {
				placed = append(placed, nm.Node())
			}
		}
		polTable.AddRow(pol, fmt.Sprint(placed), place.Span(placed, 4))
		if err := <-parked; err != nil {
			panic(err)
		}
		for _, nm := range pnms {
			nm.Close()
		}
		pmm.Close()
	}
	fmt.Println(polTable.String())

	fmt.Println("\nStarting 50 ms heartbeats, then killing node 3...")
	detected := make(chan int, 1)
	stop := mm.StartHeartbeat(50*time.Millisecond, func(n int) { detected <- n })
	defer stop()
	time.Sleep(200 * time.Millisecond)
	killAt := time.Now()
	nms[3].Close()
	select {
	case n := <-detected:
		fmt.Printf("node %d declared failed %v after the kill\n", n, time.Since(killAt).Round(time.Millisecond))
	case <-time.After(5 * time.Second):
		fmt.Println("failure not detected (unexpected)")
	}
}
