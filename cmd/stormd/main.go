// Command stormd runs a live STORM dæmon over TCP — the distributed-
// process deployment of the reproduction (one MM per cluster, one NM per
// node, as in the paper's Table 2), on real sockets instead of the
// simulated QsNET.
//
// Start a Machine Manager:
//
//	stormd -role mm -listen 127.0.0.1:7070
//
// Start Node Managers (one per "node"; -node must be unique):
//
//	stormd -role nm -mm 127.0.0.1:7070 -node 0
//	stormd -role nm -mm 127.0.0.1:7070 -node 1
//
// Binaries are distributed down a software-multicast forwarding tree
// among the NMs (fanout set on the MM with -fanout; -peer pins the
// listen address of an NM's relay hub when nodes span machines). The
// same tree carries the control plane: heartbeat pings multicast down it
// with aggregated pong ledgers coming back (on by default, period set
// with -heartbeat), and -strobe
// enables live gang scheduling at the given quantum. An NM started with
// -cache-size keeps a bounded content-addressed chunk cache (persisted
// under -cache-dir when set), so repeated launches of the same or a
// slightly rebuilt binary stream only the missing chunks. The MM admits
// several jobs at once and interleaves their streams over the shared
// links: -max-concurrent bounds how many stream at a time and -admission
// picks the queue order (fifo, wfair, sif). Nodes may declare hard
// resource capacities (-cap-cpu/-cap-mem/-cap-net) and jobs a matching
// demand vector (storm -demand-*): the MM's indexed placement engine
// seats gangs only where the demand fits, and -policy chooses between
// the classic least-loaded spread and a locality policy that packs each
// gang into the smallest aligned subtree with room. Then submit jobs
// with cmd/storm.
//
// Past one MM's comfortable span, -partitions P starts a two-level
// federation in one dæmon: P in-process leaf MMs on ephemeral ports
// (printed at startup — point each NM at its partition's leaf) behind
// one root serving -listen. Clients cannot tell the root from a flat
// MM; jobs spanning partitions are split, delegated concurrently, and
// their reports folded. Any role takes -pprof ADDR to serve
// net/http/pprof for live profiling (see EXPERIMENTS.md for the
// footprint recipe).
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/livenet"
	"repro/internal/place"
)

func main() {
	role := flag.String("role", "", "dæmon role: mm or nm")
	listen := flag.String("listen", "127.0.0.1:7070", "MM listen address (role mm)")
	fanout := flag.Int("fanout", 0, "forwarding-tree fanout, 1 = flat unicast (role mm; 0 = default)")
	policy := flag.String("policy", "spread", "placement policy: spread (deterministic least-loaded) or locality (pack each gang into the smallest subtree with free capacity)")
	stripes := flag.Int("stripes", 1, "disjoint spanning trees striping each transfer, chunks interleaved round-robin (role mm; 1 = single-tree legacy)")
	mmAddr := flag.String("mm", "127.0.0.1:7070", "MM address to register with (role nm)")
	node := flag.Int("node", 0, "node ID (role nm)")
	cpus := flag.Int("cpus", 4, "advertised CPUs per node (role nm)")
	capCPU := flag.Int64("cap-cpu", 0, "declared CPU-slot capacity; jobs declaring demand only land where it fits (role nm; 0 = unbounded)")
	capMem := flag.Int64("cap-mem", 0, "declared memory capacity, in the cluster's memory units (role nm; 0 = unbounded)")
	capNet := flag.Int64("cap-net", 0, "declared network-bandwidth capacity, relative units (role nm; 0 = unbounded)")
	peer := flag.String("peer", "", "listen address of the NM's relay hub, where tree parents dial in (role nm; default 127.0.0.1:0)")
	spool := flag.String("spool", "", "directory to persist delivered binary images via temp-file+rename (role nm; empty keeps images in memory only)")
	cacheSize := flag.Int64("cache-size", 0, "content-addressed chunk cache budget in bytes (role nm; 0 disables delta caching)")
	cacheDir := flag.String("cache-dir", "", "directory backing the chunk cache (role nm; empty keeps cached chunks in memory)")
	hb := flag.Duration("heartbeat", time.Second, "tree-heartbeat period on the MM (0 disables)")
	strobe := flag.Duration("strobe", 0, "gang-scheduling strobe quantum on the MM (0 disables live gang scheduling)")
	maxConc := flag.Int("max-concurrent", 0, "max jobs streaming concurrently on the MM (0 = default 8)")
	admission := flag.String("admission", "fifo", "admission policy when jobs queue: fifo, wfair, or sif")
	partitions := flag.Int("partitions", 1, "leaf-MM partitions behind a federation root on -listen (role mm; 1 = flat MM)")
	journalDir := flag.String("journal", "", "directory for the MM's durable job journal; a restart replays it and resumes queued jobs (role mm; with -partitions, each leaf journals under journal/partN)")
	retries := flag.Int("retries", 0, "re-place and retry a job this many times after it exhausts replans or loses its nodes (role mm)")
	rejoin := flag.Bool("rejoin", false, "rejoin the MM after a restart instead of registering fresh: the node re-enters under probation and its persisted chunk cache makes it a warm relay (role nm)")
	lite := flag.Bool("lite", false, "dense connection profile: 8 KiB stream buffers, kernel-tuned sockets (hundreds of NMs per host)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty disables)")
	flag.Parse()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "stormd: pprof: %v\n", err)
			}
		}()
		fmt.Printf("stormd: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	switch *role {
	case "mm":
		if *partitions > 1 {
			runFederation(*listen, *partitions, livenet.MMConfig{
				Fanout: *fanout, Stripes: *stripes, GangQuantum: *strobe,
				MaxConcurrent: *maxConc, Admission: *admission, Placement: *policy,
				Lite: *lite, JournalDir: *journalDir, JobRetries: *retries,
			}, *admission, *hb, sig)
			return
		}
		mm, err := livenet.NewMM(*listen, livenet.MMConfig{
			Fanout: *fanout, Stripes: *stripes, GangQuantum: *strobe,
			MaxConcurrent: *maxConc, Admission: *admission, Placement: *policy,
			Lite: *lite, JournalDir: *journalDir, JobRetries: *retries,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "stormd: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("stormd: MM listening on %s\n", mm.Addr())
		if p := mm.JournalPath(); p != "" {
			fmt.Printf("stormd: job journal at %s\n", p)
			if rec := mm.RecoveredJobs(); len(rec) > 0 {
				fmt.Printf("stormd: replayed journal, resuming %d queued job(s)\n", len(rec))
			}
		}
		if *strobe > 0 {
			fmt.Printf("stormd: gang scheduling on, strobe quantum %v\n", *strobe)
		}
		if *hb > 0 {
			stop := mm.StartHeartbeat(*hb, func(n int) {
				fmt.Printf("stormd: node %d FAILED (missed heartbeats)\n", n)
			})
			defer stop()
		}
		<-sig
		mm.Close()
	case "nm":
		nm, err := livenet.NewNMConfig(*mmAddr, *node, *cpus, livenet.NMConfig{
			PeerAddr: *peer, SpoolDir: *spool,
			CacheBytes: *cacheSize, CacheDir: *cacheDir, Lite: *lite,
			Rejoin: *rejoin,
			Cap:    place.Vec{CPU: *capCPU, Mem: *capMem, Net: *capNet},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "stormd: %v\n", err)
			os.Exit(1)
		}
		if *rejoin {
			fmt.Printf("stormd: NM %d rejoined %s (%d CPUs, relay %s, probation %d heartbeat rounds)\n",
				*node, *mmAddr, *cpus, nm.PeerAddr(), nm.Probation())
		} else {
			fmt.Printf("stormd: NM %d registered with %s (%d CPUs, relay %s)\n",
				*node, *mmAddr, *cpus, nm.PeerAddr())
		}
		<-sig
		nm.Close()
	default:
		fmt.Fprintln(os.Stderr, "stormd: -role must be mm or nm")
		flag.Usage()
		os.Exit(2)
	}
}

// runFederation serves a two-level cluster from one dæmon: P leaf MMs
// on ephemeral ports, each owning the NMs that register with it, behind
// a federation root on the public listen address. Leaves get disjoint
// job-ID bases so the job field in every frame header is
// partition-scoped. With hb > 0 every leaf runs its own heartbeat
// detector over its own NMs.
func runFederation(listen string, partitions int, leafCfg livenet.MMConfig, admission string, hb time.Duration, sig chan os.Signal) {
	var leaves []*livenet.MM
	for p := 0; p < partitions; p++ {
		cfg := leafCfg
		cfg.JobBase = (p + 1) << 20
		if leafCfg.JournalDir != "" {
			cfg.JournalDir = filepath.Join(leafCfg.JournalDir, fmt.Sprintf("part%d", p))
		}
		mm, err := livenet.NewMM("127.0.0.1:0", cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stormd: leaf %d: %v\n", p, err)
			os.Exit(1)
		}
		leaves = append(leaves, mm)
	}
	fed, err := livenet.NewFederation(listen, livenet.FedConfig{
		Admission: admission, Placement: leafCfg.Placement, Lite: leafCfg.Lite,
	}, leaves)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stormd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("stormd: federation root listening on %s (%d partitions)\n", fed.Addr(), partitions)
	var stops []func()
	for p, mm := range leaves {
		fmt.Printf("stormd: partition %d leaf MM on %s — register this partition's NMs here\n", p, mm.Addr())
		if jp := mm.JournalPath(); jp != "" {
			fmt.Printf("stormd: partition %d job journal at %s\n", p, jp)
		}
		if hb > 0 {
			stops = append(stops, mm.StartHeartbeat(hb, func(n int) {
				fmt.Printf("stormd: partition %d node %d FAILED (missed heartbeats)\n", p, n)
			}))
		}
	}
	<-sig
	for _, stop := range stops {
		stop()
	}
	fed.Close()
	for _, mm := range leaves {
		mm.Close()
	}
}
