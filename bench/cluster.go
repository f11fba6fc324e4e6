package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/livenet"
)

// cluster is one in-process live cluster on loopback TCP: a flat MM with
// its NMs, or (fed != nil) leaf MMs under a federation root. Everything
// the benchmark touches goes through livenet's exported API.
type cluster struct {
	mms    []*livenet.MM
	nms    []*livenet.NM
	hub    *livenet.PeerHub
	fed    *livenet.Federation
	stopHB []func()
	// heartbeat is the detector's period, 0 when it is not running.
	heartbeat time.Duration
	// onFail receives the heartbeat detector's convictions.
	failMu    sync.Mutex
	convicted []int
}

// clusterSpec is the geometry of a cluster; nm customizes one node's
// config by global node ID (nil for the defaults).
type clusterSpec struct {
	partitions int // leaf MMs; 1 builds a flat MM with no federation root
	perPart    int
	mm         livenet.MMConfig
	nm         func(node int) livenet.NMConfig
	hub        bool // route relay links through one shared PeerHub (lite NMs)
	heartbeat  time.Duration
}

// fedJobBase spaces the leaves' job-ID ranges 1<<20 apart, as the
// repository's own federation tests do.
func fedJobBase(p int) int { return (p + 1) << 20 }

// closeTimeout bounds every Close call: ROADMAP item 0 (NM.Close racing a
// relay dial) can hang a teardown forever, and the benchmark must not.
const closeTimeout = 5 * time.Second

// teardownHung counts Close calls abandoned by the watchdog in this
// process; hungNames says which.
var (
	teardownMu   sync.Mutex
	teardownHung int
	hungNames    []string
)

// closer is one Close call and the name the output gives it if it hangs.
type closer struct {
	name string
	fn   func()
}

// closeWithin runs a batch of Close calls concurrently, each under the
// watchdog deadline. A hung Close is abandoned (its goroutine leaks until
// os.Exit), counted and named.
func closeWithin(batch ...closer) {
	var wg sync.WaitGroup
	for _, c := range batch {
		wg.Add(1)
		go func(c closer) {
			defer wg.Done()
			if !within(closeTimeout, c.fn) {
				teardownMu.Lock()
				teardownHung++
				hungNames = append(hungNames, c.name)
				teardownMu.Unlock()
			}
		}(c)
	}
	wg.Wait()
}

func newCluster(cs clusterSpec) (*cluster, error) {
	cl := &cluster{heartbeat: cs.heartbeat}
	fail := func(err error) (*cluster, error) {
		cl.close()
		return nil, err
	}
	if cs.hub {
		hub, err := livenet.NewPeerHub("")
		if err != nil {
			return fail(err)
		}
		cl.hub = hub
	}
	for p := 0; p < cs.partitions; p++ {
		cfg := cs.mm
		if cs.partitions > 1 {
			cfg.JobBase = fedJobBase(p)
		}
		mm, err := livenet.NewMM("127.0.0.1:0", cfg)
		if err != nil {
			return fail(err)
		}
		cl.mms = append(cl.mms, mm)
		for i := 0; i < cs.perPart; i++ {
			node := p*cs.perPart + i
			var c livenet.NMConfig
			if cs.nm != nil {
				c = cs.nm(node)
			}
			if cl.hub != nil {
				c.Hub = cl.hub
				c.Lite = true
			}
			nm, err := livenet.NewNMConfig(mm.Addr(), node, 4, c)
			if err != nil {
				return fail(err)
			}
			cl.nms = append(cl.nms, nm)
		}
	}
	// Registration is asynchronous; wait for every NM to appear.
	deadline := time.Now().Add(10 * time.Second)
	for _, mm := range cl.mms {
		for len(mm.NMs()) < cs.perPart {
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("only %d of %d NMs registered on %s", len(mm.NMs()), cs.perPart, mm.Addr()))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if cs.partitions > 1 {
		fed, err := livenet.NewFederation("127.0.0.1:0", livenet.FedConfig{Lite: true}, cl.mms)
		if err != nil {
			return fail(err)
		}
		cl.fed = fed
	}
	if cs.heartbeat > 0 {
		for _, mm := range cl.mms {
			cl.stopHB = append(cl.stopHB, mm.StartHeartbeat(cs.heartbeat, func(node int) {
				cl.failMu.Lock()
				cl.convicted = append(cl.convicted, node)
				cl.failMu.Unlock()
			}))
		}
	}
	return cl, nil
}

// close tears the cluster down root first: the federation, then every NM
// at once, then the MMs, then the hub, each step under the watchdog.
func (cl *cluster) close() {
	for _, stop := range cl.stopHB {
		stop()
	}
	if cl.fed != nil {
		closeWithin(closer{"federation", cl.fed.Close})
	}
	var batch []closer
	for _, nm := range cl.nms {
		batch = append(batch, closer{fmt.Sprintf("nm%d", nm.Node()), nm.Close})
	}
	closeWithin(batch...)
	batch = nil
	for i, mm := range cl.mms {
		batch = append(batch, closer{fmt.Sprintf("mm%d", i), mm.Close})
	}
	closeWithin(batch...)
	if cl.hub != nil {
		closeWithin(closer{"hub", cl.hub.Close})
	}
}

// convictions returns the nodes the heartbeat detector has convicted.
func (cl *cluster) convictions() []int {
	cl.failMu.Lock()
	defer cl.failMu.Unlock()
	return append([]int(nil), cl.convicted...)
}
