package livenet

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/livenet/chunkcache"
)

// nackTap is an MMConfig.WrapConn that decodes what the far end of each
// link the MM accepts writes on it, and counts the nacks by the node
// that registered the link.
type nackTap struct {
	mu    sync.Mutex
	nacks map[int]int
}

func (nt *nackTap) wrap(c net.Conn) net.Conn {
	pr, pw := io.Pipe()
	go func() {
		in, node := &conn{r: bufio.NewReader(pr)}, -1
		for {
			m, err := in.recv()
			if err != nil {
				pr.CloseWithError(err)
				return
			}
			switch {
			case m.Register != nil:
				node = m.Register.Node
			case m.FragAck != nil && !m.FragAck.OK:
				nt.mu.Lock()
				nt.nacks[node]++
				nt.mu.Unlock()
			}
		}
	}()
	return &teeConn{Conn: c, w: pw}
}

// count returns the nacks counted on node's MM link so far.
func (nt *nackTap) count(node int) int {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	return nt.nacks[node]
}

// teeConn copies every byte read from its conn to w.
type teeConn struct {
	net.Conn
	w *io.PipeWriter
}

func (c *teeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.Write(p[:n])
	if err != nil {
		c.w.CloseWithError(err)
	}
	return n, err
}

// TestRejectionGoesStraightToMM: a node that rejects a chunk nacks it on
// its own MM link, not up the tree. MM -> {0, 1}, node 0 -> {2}; node 0's
// relay link corrupts the first fragment it carries, so node 2 rejects
// it. The nack arrives on node 2's MM link and none on node 0's, and the
// job's error names node 2 and the fragment.
func TestRejectionGoesStraightToMM(t *testing.T) {
	tap := &nackTap{nacks: map[int]int{}}
	mm, _, _ := chaosCluster(t, 3, MMConfig{Fanout: 2, FragBytes: 64 << 10, AckTimeout: 5 * time.Second, WrapConn: tap.wrap},
		func(node int) NMConfig {
			if node != 0 {
				return NMConfig{}
			}
			return NMConfig{WrapConn: corruptFrag(0)}
		})
	_, err := SubmitJob(mm.Addr(), JobSpec{Name: "reject", BinaryBytes: 128 << 10, Nodes: 3, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"}})
	if err == nil || !strings.Contains(err.Error(), "node 2 rejected fragment 0") {
		t.Fatalf("job error %v, want node 2's rejection of fragment 0", err)
	}
	// The tap decodes behind the MM's reads: give it a moment to count.
	for deadline := time.Now().Add(2 * time.Second); tap.count(2) == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n0, n2 := tap.count(0), tap.count(2); n0 != 0 || n2 == 0 {
		t.Fatalf("nacks on node 0's MM link: %d, on node 2's: %d; want none on node 0's, some on node 2's", n0, n2)
	}
}

// TestRejectionWithoutParent: a node whose stripe parent's link was
// dropped still reaches the MM with its rejection, on its own MM link:
// of a corrupt chunk, and of a warm image whose seal fails. A rejection
// that waited for a parent would be lost, and the job would wait out its
// AckTimeout to fail as a transfer timeout instead.
func TestRejectionWithoutParent(t *testing.T) {
	const job, chunks, size = 9, 2, 64
	image := fragPattern(job, 0, chunks*size)
	man := &Manifest{Job: job, Stripes: 1, ChunkBytes: size, TotalBytes: chunks * size, Hashes: make([]uint64, chunks)}
	for i := range man.Hashes {
		man.Hashes[i] = chunkcache.Hash64(image[i*size : (i+1)*size])
	}
	nacks := func(nm *NM, up *bytes.Buffer) (n int) {
		for c := (&conn{r: bufio.NewReader(up)}); ; {
			m, err := c.recv()
			if err != nil {
				return n
			}
			if a := m.FragAck; a != nil && !a.OK && a.Node == nm.node {
				n++
			}
		}
	}

	t.Run("chunk", func(t *testing.T) {
		var up bytes.Buffer
		nm := bareNM(5, writeConn(&up))
		parent := discardConn()
		nm.onManifest(man, parent)
		nm.dropLink(parent)
		f := newFrag(size)
		f.Job = job
		copy(f.Data, image[:size])
		f.Data[7] ^= 0xff
		nm.handleFrag(f)
		if n := nacks(nm, &up); n != 1 {
			t.Fatalf("a rejected chunk put %d nacks on the MM link, want 1", n)
		}
	})

	t.Run("seal", func(t *testing.T) {
		// Every chunk is cached, so the manifest's own round splices the
		// image into the spool and seals it. At the seal's off-lock point the
		// parent's link drops and a spooled byte flips, so the read-back
		// fails.
		dir := t.TempDir()
		var up bytes.Buffer
		nm := bareNM(5, writeConn(&up))
		nm.cfg = NMConfig{SpoolDir: dir}
		cache, err := chunkcache.New(1<<20, "")
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range man.Hashes {
			cache.Put(h, 0, image[i*size:(i+1)*size])
		}
		nm.cache = cache
		parent := discardConn()
		nm.testOffLock = func() {
			nm.dropLink(parent)
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
			if _, err := fh.WriteAt([]byte{^image[3]}, 3); err != nil {
				t.Error(err)
			}
		}
		nm.onManifest(man, parent)
		if _, sealed := nm.ImageDigest(job); sealed {
			t.Fatal("a corrupt spool was sealed")
		}
		if n := nacks(nm, &up); n != 1 {
			t.Fatalf("a failed seal put %d nacks on the MM link, want 1", n)
		}
	})
}
