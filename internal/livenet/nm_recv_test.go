package livenet

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/livenet/chunkcache"
)

// within fails the test if fn has not returned after d — the shape of
// every "this must not hang" assertion below.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// TestFragForReleasedJobIsDropped is the regression test for the
// panic-under-lock the benchmark found: a fragment is relayed and
// verified against the snapshot handleFrag took, the job's state is
// released meanwhile (finishJob after the last termination, or onAbort),
// and the write-back finds nothing. It must drop the frame — no panic,
// no ack, no state resurrected — and leave nm.mu free, so the getters
// still answer.
func TestFragForReleasedJobIsDropped(t *testing.T) {
	releases := map[string]func(nm *NM, job int){
		"finishJob": func(nm *NM, job int) { nm.finishJob(job) },
		"onAbort":   func(nm *NM, job int) { nm.onAbort(&Abort{Job: job}) },
	}
	for name, release := range releases {
		t.Run(name, func(t *testing.T) {
			nm := &NM{
				bins:    make(map[int]*binState),
				relays:  make(map[int]*relayState),
				digests: make(map[int]ImageDigest),
				gates:   make(map[int]*gateRow),
			}
			const job, chunks, size = 9, 4, 64
			man := &Manifest{Job: job, Stripes: 1, ChunkBytes: size, TotalBytes: chunks * size,
				Hashes: make([]uint64, chunks), CRCs: make([]uint32, chunks)}
			image := fragPattern(job, 0, chunks*size)
			for i := 0; i < chunks; i++ {
				c := image[i*size : (i+1)*size]
				man.Hashes[i], man.CRCs[i] = chunkcache.Hash64(c), fragCRC(c)
			}
			var wire bytes.Buffer
			parent := &conn{w: bufio.NewWriter(&wire)}
			nm.onManifest(man, parent)
			st := nm.bins[job]
			if st == nil || st.man == nil {
				t.Fatal("manifest did not open the transfer")
			}

			release(nm, job)
			sent := wire.Len() // the HAVE the manifest round already sent

			f := newFrag(size)
			f.Job, f.Index, f.CRC = job, 1, man.CRCs[1]
			copy(f.Data, image[size:2*size])
			within(t, 2*time.Second, "writeManifestChunk for a released job", func() {
				nm.writeManifestChunk(f, parent, 0, st, st.man)
			})
			within(t, 2*time.Second, "the NM's getters", func() {
				nm.FragsWritten()
				nm.ImageDigest(job)
			})
			if nm.FragsWritten() != 0 || nm.bins[job] != nil || nm.relays[job] != nil {
				t.Fatal("a fragment for a released job was written or revived its state")
			}
			if wire.Len() != sent {
				t.Fatalf("a fragment for a released job was answered with %d bytes", wire.Len()-sent)
			}
		})
	}
}

// TestFragBeforeManifestIsDropped: a fragment for a job this node has no
// manifest for — which no transfer sends, every epoch opening with its
// manifest on the same link — is dropped like one for a released job: no
// ack or nack goes up, no receive or relay state appears, and its pooled
// buffer goes back (or a stream of them would allocate one payload
// each).
func TestFragBeforeManifestIsDropped(t *testing.T) {
	nm := &NM{
		bins:    make(map[int]*binState),
		relays:  make(map[int]*relayState),
		digests: make(map[int]ImageDigest),
	}
	const job, size, frames = 9, 1 << 20, 32
	var wire bytes.Buffer
	parent := &conn{w: bufio.NewWriter(&wire)}
	// No collections while counting: each stops the world, after which
	// this goroutine may run on another P, away from the buffer it pooled.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := allocBytes(func() {
		for i := 0; i < frames; i++ {
			f := newFrag(size)
			f.Job, f.Index = job, i
			nm.handleFrag(f, parent)
		}
	})
	if wire.Len() != 0 {
		t.Fatalf("a fragment with no manifest was answered with %d bytes", wire.Len())
	}
	if nm.bins[job] != nil || nm.relays[job] != nil || nm.FragsWritten() != 0 {
		t.Fatal("a fragment with no manifest opened receive or relay state or was written")
	}
	// Under -race sync.Pool drops a quarter of the puts at random, and a
	// goroutine that changes P between a put and the next get misses the
	// buffer; a leak allocates every payload.
	if got > frames*3/4*size {
		t.Fatalf("%d dropped fragments allocated %d bytes: their buffers are not going back to the pool", frames, got)
	}
}

// TestDialChildVersusClose hammers relay dials against Close (ROADMAP
// item 0): a link that loses the race must be refused with errNMClosed,
// one that wins it must be swept by Close, and Close must return — a
// link inserted after the sweep would leave its read loop reading a peer
// that never hangs up, and nm.wg.Wait() waiting on it forever. Even
// rounds let the dials fall where they may; odd rounds hold every
// established connection back until Close has swept, the schedule that
// hung tier-1.
func TestDialChildVersusClose(t *testing.T) {
	mm, err := NewMM("127.0.0.1:0", MMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()

	// Relay targets that accept and then stay silent and open until the
	// round is over: only the NM's own Close can stop a loop reading one.
	const dialers = 4
	var held []net.Conn
	var heldMu sync.Mutex
	addrs := make([]string, dialers)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				heldMu.Lock()
				held = append(held, c)
				heldMu.Unlock()
			}
		}()
	}
	hangUp := func() {
		heldMu.Lock()
		defer heldMu.Unlock()
		for _, c := range held {
			c.Close()
		}
		held = nil
	}
	defer hangUp()

	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	for round := 0; round < rounds; round++ {
		var late atomic.Pointer[NM] // set: relay dials return only after its Close swept
		nm, err := NewNMConfig(mm.Addr(), round, 1, NMConfig{Dialer: func(addr string) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, dialTimeout)
			if nm := late.Load(); nm != nil && err == nil {
				<-nm.closed
				time.Sleep(5 * time.Millisecond)
			}
			return c, err
		}})
		if err != nil {
			t.Fatal(err)
		}
		if round%2 == 1 {
			late.Store(nm)
		}
		// The dialers join nm.wg, as the NM's own dialers do (plans and
		// relay redials run on its reader goroutines): Close waits for
		// them, so a read loop one of them starts late is waited for too.
		var refused atomic.Int64
		for _, addr := range addrs {
			nm.wg.Add(1)
			go func(addr string) {
				defer nm.wg.Done()
				// Evict the previous link before each dial, so every dial
				// inserts afresh — and the last one, the one that races
				// Close, is left for Close alone to deal with.
				var prev *conn
				for {
					if prev != nil {
						nm.dropLink(prev)
					}
					cc, err := nm.dialChild(0, addr)
					if errors.Is(err, errNMClosed) {
						refused.Add(1)
						return
					}
					if err != nil {
						t.Errorf("dial %s: %v", addr, err)
						return
					}
					prev = cc
				}
			}(addr)
		}
		time.Sleep(time.Duration(round%5) * 200 * time.Microsecond)
		within(t, 2*time.Second, "NM.Close racing relay dials", nm.Close)
		if refused.Load() != dialers {
			t.Fatalf("round %d: %d of %d dialers saw errNMClosed", round, refused.Load(), dialers)
		}
		hangUp() // only now: the round's verdict is in, free the descriptors
	}
}

// TestWarmRelaunchStructure is the structural guard on the NM receive
// path, in counts rather than times so it cannot go stale with the host:
// on a 16-node, 16-chunk image (cold, then fully warm) every NM builds at
// most two CRC shift operators per launch — one per distinct chunk length
// in the manifest, not one per chunk — and nothing that costs O(bytes) or
// O(chunks) (fragCRC, Hash64, the cache's copy, the digest fold) runs
// with nm.mu held. The probe at each such point takes nm.mu itself: it
// gets it at once, or as soon as another goroutine lets go, unless the
// caller is the holder — then it never does.
func TestWarmRelaunchStructure(t *testing.T) {
	const n, chunks, frag = 16, 16, 32 << 10
	mm, nms, _ := chaosCluster(t, n, MMConfig{Fanout: 2, Stripes: 2, FragBytes: frag,
		AckTimeout: 5 * time.Second}, func(int) NMConfig { return NMConfig{CacheBytes: 8 << 20} })
	var probes, underLock atomic.Int64
	for _, nm := range nms {
		nm := nm
		nm.mu.Lock()
		nm.testOffLock = func() {
			probes.Add(1)
			for start := time.Now(); !nm.mu.TryLock(); runtime.Gosched() {
				if time.Since(start) > 5*time.Second {
					underLock.Add(1)
					return
				}
			}
			nm.mu.Unlock()
		}
		nm.mu.Unlock()
	}
	shiftOps := func(nm *NM) int {
		nm.mu.Lock()
		defer nm.mu.Unlock()
		return nm.shiftOps
	}
	// A short tail, so the manifest has two distinct chunk lengths.
	spec := deltaSpec(n, 0x5702, nil)
	spec.BinaryBytes = (chunks-1)*frag + 100
	for _, launch := range []struct {
		name       string
		chunksSent int
	}{{"cold", chunks}, {"warm", 0}} {
		before := make([]int, n)
		for i, nm := range nms {
			before[i] = shiftOps(nm)
		}
		rep, err := SubmitJob(mm.Addr(), spec)
		if err != nil {
			t.Fatalf("%s launch: %v", launch.name, err)
		}
		if rep.ChunksSent != launch.chunksSent {
			t.Fatalf("%s launch streamed %d chunks, want %d", launch.name, rep.ChunksSent, launch.chunksSent)
		}
		for i, nm := range nms {
			if built := shiftOps(nm) - before[i]; built < 1 || built > 2 {
				t.Errorf("%s launch: node %d built %d shift operators for %d chunks, want 1 or 2",
					launch.name, nm.Node(), built, chunks)
			}
			if _, ok := nm.ImageDigest(rep.JobID); !ok {
				t.Errorf("%s launch: node %d has no image", launch.name, nm.Node())
			}
		}
	}
	// Cold: one probe per chunk verified plus one per digest fold, on
	// every node; warm: the folds alone.
	if want := int64(n*(chunks+1) + n); probes.Load() != want {
		t.Errorf("off-lock points crossed %d times, want %d", probes.Load(), want)
	}
	if underLock.Load() != 0 {
		t.Fatalf("%d off-lock points ran with nm.mu held", underLock.Load())
	}
}

// TestEpochAnswersRestartAtManifest: after a replan a fragment of the old
// epoch can reach a node before the new epoch's manifest does. The node
// takes it under the old epoch and answers up the old link, to a parent
// that has moved on and drops the answers. The epoch's manifest, which
// installs the node's new relay, must restart its answers up the new
// link: otherwise the credit it already counted as sent is lost for good
// and the MM's wait stalls out its AckTimeout (the
// TestChaosConcurrentJobsInteriorKill flake). Here the straggler
// completes the image, so the restarted answer is a full HAVE — which is
// the epoch's whole credit, and no ack follows it.
func TestEpochAnswersRestartAtManifest(t *testing.T) {
	nm := &NM{
		bins:    make(map[int]*binState),
		relays:  make(map[int]*relayState),
		digests: make(map[int]ImageDigest),
	}
	const job, chunks, size = 9, 2, 64
	image := fragPattern(job, 0, chunks*size)
	man := &Manifest{Job: job, Stripes: 1, ChunkBytes: size, TotalBytes: chunks * size, ImageCRC: fragCRC(image),
		Hashes: make([]uint64, chunks), CRCs: make([]uint32, chunks)}
	for i := 0; i < chunks; i++ {
		c := image[i*size : (i+1)*size]
		man.Hashes[i], man.CRCs[i] = chunkcache.Hash64(c), fragCRC(c)
	}
	frag := func(i int) *Frag {
		f := newFrag(size)
		f.Job, f.Index, f.CRC, f.Last = job, i, man.CRCs[i], i == chunks-1
		copy(f.Data, image[i*size:(i+1)*size])
		return f
	}
	var old, cur bytes.Buffer
	oldLink, link := &conn{w: bufio.NewWriter(&old)}, &conn{w: bufio.NewWriter(&cur)}

	nm.onManifest(man, oldLink)
	nm.handleFrag(frag(0), oldLink)
	nm.handleFrag(frag(1), oldLink) // the old epoch's straggler
	if _, ok := nm.ImageDigest(job); !ok {
		t.Fatal("the straggler did not complete the image")
	}

	m1 := man.clone()
	m1.Epoch = 1
	nm.onManifest(m1, link)
	var acks int
	var have bool
	c := &conn{r: bufio.NewReader(&cur)}
	for {
		m, err := c.recv()
		if err != nil {
			break
		}
		switch {
		case m.FragAck != nil:
			acks++
		case m.Have != nil:
			have = have || m.Have.Epoch == 1 && maskGet(m.Have.Bits, 0) && maskGet(m.Have.Bits, 1)
		}
	}
	if !have || acks != 0 {
		t.Fatalf("after the epoch's manifest the parent heard: full epoch-1 HAVE %v, %d acks; want the HAVE alone", have, acks)
	}
}

// TestNoAckBeforeHave: a stripe's HAVE is its first answer of an epoch
// and its prefix the credit, so no ack may go up before it. Here a leaf's
// second stripe manifest lands while the first stripe's image seal is in
// flight: its fold is deferred, and the chunk the stripe already holds
// must wait for that fold rather than go up as an ack of its own — after
// the seal the one HAVE carries it.
func TestNoAckBeforeHave(t *testing.T) {
	nm := &NM{
		bins:    make(map[int]*binState),
		relays:  make(map[int]*relayState),
		digests: make(map[int]ImageDigest),
	}
	const job = 9
	man := &Manifest{Job: job, Stripes: 2, ChunkBytes: 4, TotalBytes: 8, Hashes: make([]uint64, 2), CRCs: make([]uint32, 2)}
	nm.onManifest(man, discardConn())
	st := nm.bins[job]
	st.draining = true // stripe 0's seal in flight
	bitSet(st.written, 1)
	st.wcount++
	st.advanceStripe(1)

	var up bytes.Buffer
	m1 := man.clone()
	m1.Stripe = 1
	nm.onManifest(m1, &conn{w: bufio.NewWriter(&up)})
	if up.Len() != 0 {
		t.Fatalf("stripe 1 answered with %d bytes while its fold was deferred", up.Len())
	}
	st.draining = false
	nm.settle(job, 2)
	var haves, acks int
	for c := (&conn{r: bufio.NewReader(&up)}); ; {
		m, err := c.recv()
		if err != nil {
			break
		}
		switch {
		case m.Have != nil:
			haves++
		case m.FragAck != nil:
			acks++
		}
	}
	if haves != 1 || acks != 0 || nm.relays[job].stripes[1].sentUp != 1 {
		t.Fatalf("stripe 1 sent %d HAVEs and %d acks, credit %d up; want one HAVE carrying credit 1",
			haves, acks, nm.relays[job].stripes[1].sentUp)
	}
}
