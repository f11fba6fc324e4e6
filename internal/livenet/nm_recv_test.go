package livenet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
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

// bareNM is an NM with no hub, no goroutine and no link of its own, for
// driving its handlers by hand; up stands in for its MM link.
func bareNM(node int, up *conn) *NM {
	return &NM{node: node, c: up, jobs: make(map[int]*nmJob), digests: make(map[int]ImageDigest),
		links: make(map[*conn]struct{}), writers: make(map[string]*linkWriter)}
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
			// A stripe-tree root: its parent is its MM link.
			var wire bytes.Buffer
			parent := writeConn(&wire)
			nm := bareNM(0, parent)
			const job, chunks, size = 9, 4, 64
			man := &Manifest{Job: job, Stripes: 1, ChunkBytes: size, TotalBytes: chunks * size,
				Hashes: make([]uint64, chunks)}
			image := fragPattern(job, 0, chunks*size)
			for i := 0; i < chunks; i++ {
				c := image[i*size : (i+1)*size]
				man.Hashes[i] = chunkcache.Hash64(c)
			}
			nm.onManifest(man, parent)
			st := nm.jobs[job]
			if st == nil || st.man == nil {
				t.Fatal("manifest did not open the transfer")
			}

			release(nm, job)
			sent := wire.Len() // the HAVE the manifest round already sent

			f := newFrag(size)
			f.Job, f.Index = job, 1
			copy(f.Data, image[size:2*size])
			within(t, 2*time.Second, "writeManifestChunk for a released job", func() {
				nm.writeManifestChunk(f, 0, st, st.man)
			})
			within(t, 2*time.Second, "the NM's getters", func() {
				nm.FragsWritten()
				nm.ImageDigest(job)
			})
			if nm.FragsWritten() != 0 || nm.jobs[job] != nil {
				t.Fatal("a fragment for a released job was written or revived its state")
			}
			if wire.Len() != sent {
				t.Fatalf("a fragment for a released job was answered with %d bytes", wire.Len()-sent)
			}
		})
	}
}

// TestRelayRebindAnswersOnLiveLink: a relay redialed its child and
// installed it again on link L2, and the install it had written on the
// dying link L1 is read after L2's. When L1 ends, the stripe's answers go
// up L2 — the HAVE again, then the credit — instead of stopping: a stripe
// bound to no link drops every answer, and its parent's window stalls
// until the MM's ack timeout.
func TestRelayRebindAnswersOnLiveLink(t *testing.T) {
	var up, w1, w2 bytes.Buffer
	nm := bareNM(3, writeConn(&up))
	l1, l2 := writeConn(&w1), writeConn(&w2)
	const job, chunks, size = 9, 4, 64
	image := fragPattern(job, 0, chunks*size)
	man := &Manifest{Job: job, Stripes: 1, ChunkBytes: size, TotalBytes: chunks * size, Hashes: make([]uint64, chunks)}
	for i := range man.Hashes {
		man.Hashes[i] = chunkcache.Hash64(image[i*size : (i+1)*size])
	}
	nm.onManifest(man, l2)
	nm.onManifest(man, l1)
	w2.Reset()
	nm.dropLink(l1)
	f := newFrag(size)
	f.Job = job
	copy(f.Data, image[:size])
	nm.handleFrag(f)

	var got []string
	for c := (&conn{r: bufio.NewReader(&w2)}); ; {
		m, err := c.recv()
		if err != nil {
			break
		}
		switch {
		case m.Have != nil:
			got = append(got, "have")
		case m.FragAck != nil && m.FragAck.OK:
			got = append(got, fmt.Sprintf("credit %d", m.FragAck.Index+1))
		}
	}
	if want := []string{"have", "credit 1"}; !slices.Equal(got, want) {
		t.Fatalf("after L1 ended, L2 carried %v, want %v", got, want)
	}
}

// TestFragBeforeManifestIsDropped: a fragment for a job this node has no
// manifest for — which no transfer sends, every epoch opening with its
// manifest on the same link — is dropped like one for a released job: no
// ack or nack goes up, no receive or relay state appears, and its pooled
// buffer goes back (or a stream of them would allocate one payload
// each).
func TestFragBeforeManifestIsDropped(t *testing.T) {
	var wire bytes.Buffer
	nm := bareNM(0, writeConn(&wire))
	const job, size, frames = 9, 1 << 20, 32
	// No collections while counting: each stops the world, after which
	// this goroutine may run on another P, away from the buffer it pooled.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := allocBytes(func() {
		for i := 0; i < frames; i++ {
			f := newFrag(size)
			f.Job, f.Index = job, i
			nm.handleFrag(f)
		}
	})
	if wire.Len() != 0 {
		t.Fatalf("a fragment with no manifest was answered with %d bytes", wire.Len())
	}
	if nm.jobs[job] != nil || nm.FragsWritten() != 0 {
		t.Fatal("a fragment with no manifest opened receive or relay state or was written")
	}
	// Under -race sync.Pool drops a quarter of the puts at random, and a
	// goroutine that changes P between a put and the next get misses the
	// buffer; a leak allocates every payload.
	if got > frames*3/4*size {
		t.Fatalf("%d dropped fragments allocated %d bytes: their buffers are not going back to the pool", frames, got)
	}
}

// TestRelayDialVersusClose hammers the link writers' relay dials against
// Close (ROADMAP item 0): a link that loses the race must be refused, one
// that wins it must be swept by Close, and Close must return with no
// writer left — a link inserted after the sweep would leave its read
// loop reading a peer that never hangs up, and nm.wg.Wait() waiting on it
// forever. Even rounds let the dials fall where they may; odd rounds hold
// every established connection back until Close has swept, the schedule
// that hung tier-1.
func TestRelayDialVersusClose(t *testing.T) {
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
		// A churner joins nm.wg, as the link writers do: it has every
		// writer dial its child, evicts each link once it is up, and goes
		// again until Close — so the last dials race it.
		kids := make([]*relayChild, dialers)
		for i, addr := range addrs {
			kids[i] = &relayChild{node: i, addr: addr, install: Message{CtlPlan: &CtlPlan{Epoch: 1}}}
		}
		nm.wg.Add(1)
		go func() {
			defer nm.wg.Done()
			for !nm.isClosed() {
				nm.mu.Lock()
				for _, rc := range kids {
					nm.relay(0, rc, Message{})
				}
				nm.mu.Unlock()
				var up []*conn
				for len(up) < dialers && !nm.isClosed() {
					up = up[:0]
					nm.mu.Lock()
					for _, lw := range nm.writers {
						if lw.c != nil {
							up = append(up, lw.c)
						}
					}
					nm.mu.Unlock()
					runtime.Gosched()
				}
				for _, c := range up {
					nm.dropLink(c)
				}
			}
		}()
		time.Sleep(time.Duration(round%5) * 200 * time.Microsecond)
		within(t, 2*time.Second, "NM.Close racing relay dials", nm.Close)
		nm.mu.Lock()
		for _, lw := range nm.writers {
			if lw.running || len(lw.q) > lw.head {
				t.Errorf("round %d: the writer of %s outlived Close", round, lw.addr)
			}
		}
		nm.mu.Unlock()
		hangUp() // only now: the round's verdict is in, free the descriptors
	}
}

// TestWarmRelaunchStructure is the structural guard on the NM receive
// path, in counts rather than times so it cannot go stale with the host:
// on a 16-node, 16-chunk image (cold, then fully warm) nothing that costs
// O(bytes) or O(chunks) (Hash64, the cache's copy, the image seal) runs
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
	// A short tail, so the manifest has two distinct chunk lengths.
	spec := deltaSpec(n, 0x5702, nil)
	spec.BinaryBytes = (chunks-1)*frag + 100
	for _, launch := range []struct {
		name       string
		chunksSent int
	}{{"cold", chunks}, {"warm", 0}} {
		rep, err := SubmitJob(mm.Addr(), spec)
		if err != nil {
			t.Fatalf("%s launch: %v", launch.name, err)
		}
		if rep.ChunksSent != launch.chunksSent {
			t.Fatalf("%s launch streamed %d chunks, want %d", launch.name, rep.ChunksSent, launch.chunksSent)
		}
		for _, nm := range nms {
			if _, ok := nm.ImageDigest(rep.JobID); !ok {
				t.Errorf("%s launch: node %d has no image", launch.name, nm.Node())
			}
		}
	}
	// Cold: one probe per chunk verified plus one per seal, on every node;
	// warm: the seals alone.
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
	nm := bareNM(0, discardConn())
	const job, chunks, size = 9, 2, 64
	image := fragPattern(job, 0, chunks*size)
	man := &Manifest{Job: job, Stripes: 1, ChunkBytes: size, TotalBytes: chunks * size,
		Hashes: make([]uint64, chunks)}
	for i := 0; i < chunks; i++ {
		c := image[i*size : (i+1)*size]
		man.Hashes[i] = chunkcache.Hash64(c)
	}
	frag := func(i int) *Frag {
		f := newFrag(size)
		f.Job, f.Index, f.Last = job, i, i == chunks-1
		copy(f.Data, image[i*size:(i+1)*size])
		return f
	}
	var old, cur bytes.Buffer
	oldLink, link := writeConn(&old), writeConn(&cur)

	nm.onManifest(man, oldLink)
	nm.handleFrag(frag(0))
	nm.handleFrag(frag(1)) // the old epoch's straggler
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
	nm := bareNM(0, discardConn())
	const job = 9
	man := &Manifest{Job: job, Stripes: 2, ChunkBytes: 4, TotalBytes: 8, Hashes: make([]uint64, 2)}
	nm.onManifest(man, discardConn())
	st := nm.jobs[job]
	st.draining = true // stripe 0's seal in flight
	bitSet(st.written, 1)
	st.wcount++
	st.advanceStripe(1)

	var up bytes.Buffer
	m1 := man.clone()
	m1.Stripe = 1
	nm.onManifest(m1, writeConn(&up))
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
	if haves != 1 || acks != 0 || nm.jobs[job].stripes[1].sentUp != 1 {
		t.Fatalf("stripe 1 sent %d HAVEs and %d acks, credit %d up; want one HAVE carrying credit 1",
			haves, acks, nm.jobs[job].stripes[1].sentUp)
	}
}

// TestSpoolReadBack: the seal of a spooled image reads the temp file back
// and checks every chunk against its manifest hash before the rename. A
// clean image is published, with the digest every node computes: the
// CRC-32 of the manifest's hash list. Then, for a second job, one byte of
// the temp file flips at the seal's off-lock point, after both chunks
// passed their checks on arrival. The seal must fail closed: nothing
// published under the final name, the temp file removed, a nack naming
// this node on its MM link, and no digest.
func TestSpoolReadBack(t *testing.T) {
	dir := t.TempDir()
	var up bytes.Buffer
	nm := bareNM(4, writeConn(&up))
	nm.cfg = NMConfig{SpoolDir: dir}
	const chunks, size = 2, 64
	var flip bool
	crossed := 0
	nm.testOffLock = func() {
		// One off-lock point per chunk verified, then the seal's.
		if crossed++; !flip || crossed%(chunks+1) != 0 {
			return
		}
		tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
		if len(tmps) != 1 {
			t.Errorf("spool temp files at the seal: %v, want one", tmps)
			return
		}
		fh, err := os.OpenFile(tmps[0], os.O_RDWR, 0)
		if err != nil {
			t.Error(err)
			return
		}
		defer fh.Close()
		b := make([]byte, 1)
		if _, err := fh.ReadAt(b, size+7); err != nil {
			t.Error(err)
		}
		b[0] ^= 0xff
		if _, err := fh.WriteAt(b, size+7); err != nil {
			t.Error(err)
		}
	}
	for job := 1; job <= 2; job++ {
		flip = job == 2
		image := fragPattern(job, 0, chunks*size)
		man := &Manifest{Job: job, Stripes: 1, ChunkBytes: size, TotalBytes: chunks * size, Hashes: make([]uint64, chunks)}
		var list []byte
		for i := range man.Hashes {
			man.Hashes[i] = chunkcache.Hash64(image[i*size : (i+1)*size])
			list = binary.LittleEndian.AppendUint64(list, man.Hashes[i])
		}
		nm.onManifest(man, discardConn())
		for i := 0; i < chunks; i++ {
			f := newFrag(size)
			f.Job, f.Index, f.Last = job, i, i == chunks-1
			copy(f.Data, image[i*size:(i+1)*size])
			nm.handleFrag(f)
		}
		if crossed != job*(chunks+1) {
			t.Fatalf("job %d: %d off-lock points crossed, want %d", job, crossed, job*(chunks+1))
		}
		final := filepath.Join(dir, fmt.Sprintf("node%d-job%d.bin", nm.node, job))
		_, statErr := os.Stat(final)
		d, sealed := nm.ImageDigest(job)
		nacked := false
		for c := (&conn{r: bufio.NewReader(&up)}); ; {
			m, err := c.recv()
			if err != nil {
				break
			}
			if a := m.FragAck; a != nil && !a.OK {
				nacked = nacked || a.Node == nm.node
			}
		}
		if !flip {
			if statErr != nil || !sealed || nacked || d.CRC != crc32.ChecksumIEEE(list) {
				t.Fatalf("clean image: published %v, digest %+v (sealed %v), nacked %v; want published, sealed, CRC %08x",
					statErr, d, sealed, nacked, crc32.ChecksumIEEE(list))
			}
			continue
		}
		if !os.IsNotExist(statErr) {
			t.Fatalf("a corrupt spool was published under %s (%v)", final, statErr)
		}
		if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
			t.Fatalf("a failed seal left %v behind", tmps)
		}
		if !nacked {
			t.Fatal("no nack naming the node went to the MM after a failed seal")
		}
		if sealed {
			t.Fatalf("a failed seal reported the digest %+v", d)
		}
	}
}
