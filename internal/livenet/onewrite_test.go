package livenet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/livenet/chunkcache"
	"repro/internal/livenet/wire"
)

// frameWrites is what a set of writeCounters saw: how many Write calls,
// every one that did not carry exactly one whole frame, and the first
// copy of each fragment frame by (job, index).
type frameWrites struct {
	mu         sync.Mutex
	writes     int
	fragWrites int
	torn       []string
	frags      map[[2]uint32][]byte
	differ     []string
}

// note checks that p is one whole frame, and that a fragment frame is
// byte for byte the one every other hop wrote for the same chunk.
func (fw *frameWrites) note(p []byte) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.writes++
	n := -1
	if sh := wire.Shapes[p[0]]; sh.Fixed > 0 && len(p) >= 1+sh.Fixed {
		n = 1 + sh.Fixed + sh.Tail(p[1:1+sh.Fixed])
	}
	if n != len(p) {
		fw.torn = append(fw.torn, fmt.Sprintf("a %d-byte write opening a %#x frame of %d bytes", len(p), p[0], n))
		return
	}
	if p[0] != wire.Frag {
		return
	}
	fw.fragWrites++
	key := [2]uint32{binary.BigEndian.Uint32(p[1:]), binary.BigEndian.Uint32(p[5:])} // job, index
	if first, ok := fw.frags[key]; !ok {
		fw.frags[key] = append([]byte(nil), p...)
	} else if !bytes.Equal(first, p) {
		fw.differ = append(fw.differ, fmt.Sprintf("job %d fragment %d", key[0], key[1]))
	}
}

// check fails t on any torn write or relayed fragment that changed.
func (fw *frameWrites) check(t *testing.T) {
	t.Helper()
	fw.mu.Lock()
	defer fw.mu.Unlock()
	for _, s := range fw.torn {
		t.Error(s)
	}
	for _, s := range fw.differ {
		t.Errorf("%s left one hop with other bytes than it arrived with", s)
	}
}

// writeCounter is a net.Conn that reports every Write to its frameWrites;
// with a nil Conn it discards what is written.
type writeCounter struct {
	net.Conn
	fw *frameWrites
}

func (c writeCounter) Write(p []byte) (int, error) {
	c.fw.note(p)
	if c.Conn == nil {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// oneWriteSizes are the fragment payloads the test sends: one byte, the
// read buffer's size and 64 KiB and each payload whose frame is one of
// those (±1), and the default fragment.
func oneWriteSizes() []int {
	sizes := []int{1, 256 << 10}
	for _, b := range []int{connReadBuf, 64 << 10} {
		for d := -1; d <= 1; d++ {
			sizes = append(sizes, b+d, b-fragRoom+d)
		}
	}
	return sizes
}

// TestOneWritePerFrame: every frame leaves in exactly one Write on the
// connection under it — whatever its type, and for a fragment whatever
// its size against the bufio buffer — on both connection profiles, from
// the codec, from an NM's relay and from a live MM's stream through
// relaying NMs; and a relayed fragment frame is the frame received.
// A shaped link charges its delay per Write, so a frame split in two
// pays it twice.
func TestOneWritePerFrame(t *testing.T) {
	profiles := []struct {
		name string
		prof connProfile
	}{{"bulk", bulkProfile}, {"lite", liteProfile}}
	for _, p := range profiles {
		t.Run(p.name+"/codec", func(t *testing.T) {
			fw := &frameWrites{frags: make(map[[2]uint32][]byte)}
			c := newConnProf(writeCounter{fw: fw}, p.prof)
			var msgs []Message
			for _, f := range append(goldenFrames(), bodyFrames()...) {
				msgs = append(msgs, f.m)
			}
			for _, n := range oneWriteSizes() {
				// A pooled frame, and a Frag around a buffer of its own.
				f := newFrag(n)
				f.Job, f.Index = 1, n
				g := &Frag{Job: 2, Index: n, Data: fragPattern(2, n, n)}
				msgs = append(msgs, Message{Frag: f}, Message{Frag: g}, Message{Frag: g})
			}
			for i, m := range msgs {
				before := fw.writes
				if _, err := c.send(m); err != nil {
					t.Fatal(err)
				}
				if w := fw.writes - before; w != 1 {
					t.Errorf("message %d took %d writes", i, w)
				}
			}
			fw.check(t)
		})
		t.Run(p.name+"/relay", func(t *testing.T) {
			fw := &frameWrites{frags: make(map[[2]uint32][]byte)}
			nm := bareNM(0, discardConn())
			nm.writers["a"] = &linkWriter{c: newConnProf(writeCounter{fw: fw}, p.prof)}
			up := writeConn(io.Discard)
			for job, n := range oneWriteSizes() {
				data := fragPattern(job, 0, n)
				nm.onManifest(&Manifest{Job: job, Stripes: 1, ChunkBytes: n, TotalBytes: int64(n),
					Hashes: []uint64{chunkcache.Hash64(data)}, Tree: []TreeNode{{Node: 1, Addr: "a", Size: 1}}}, up)
				var in bytes.Buffer
				(writeConn(&in)).send(Message{Frag: &Frag{Job: job, Last: true, Data: data}})
				received := append([]byte(nil), in.Bytes()...)
				m, err := (&conn{r: bufio.NewReaderSize(&in, connReadBuf)}).recv()
				if err != nil {
					t.Fatal(err)
				}
				nm.wg.Wait() // the child's install is written
				before := fw.writes
				nm.handleFrag(m.Frag)
				nm.wg.Wait() // and the relayed fragment
				if w := fw.writes - before; w != 1 {
					t.Errorf("a relayed %d-byte fragment took %d writes", n, w)
				}
				if got := fw.frags[[2]uint32{uint32(job), 0}]; !bytes.Equal(got, received) {
					t.Errorf("a relayed %d-byte fragment left as %d bytes other than the %d received", n, len(got), len(received))
				}
				if _, ok := nm.ImageDigest(job); !ok {
					t.Errorf("the %d-byte image was not written", n)
				}
			}
			fw.check(t)
		})
		t.Run(p.name+"/stream", func(t *testing.T) {
			fw := &frameWrites{frags: make(map[[2]uint32][]byte)}
			wrap := func(nc net.Conn) net.Conn { return writeCounter{Conn: nc, fw: fw} }
			lite := p.prof == liteProfile
			// Fanout 1 chains the nodes, so all but the last relay.
			mm, err := NewMM("127.0.0.1:0", MMConfig{Fanout: 1, FragBytes: 256 << 10, WrapConn: wrap, Lite: lite})
			if err != nil {
				t.Fatal(err)
			}
			defer mm.Close()
			const nodes = 3
			for i := 0; i < nodes; i++ {
				nm, err := NewNMConfig(mm.Addr(), i, 1, NMConfig{WrapConn: wrap, Lite: lite})
				if err != nil {
					t.Fatal(err)
				}
				defer nm.Close()
			}
			for deadline := time.Now().Add(5 * time.Second); len(mm.NMs()) < nodes; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the NMs did not register")
				}
			}
			// A job of n bytes streams one n-byte fragment, which every
			// node but the last relays.
			jobs := 0
			for _, n := range oneWriteSizes() {
				rep, err := mm.RunJob(JobSpec{Name: "one-write", BinaryBytes: n, Nodes: nodes, PEsPerNode: 1,
					Program: ProgramSpec{Kind: "exit"}})
				if err != nil {
					t.Fatalf("%d-byte job: %v", n, err)
				}
				if rep.ChunksSent != 1 {
					t.Fatalf("%d-byte job streamed %d chunks, want 1", n, rep.ChunksSent)
				}
				jobs++
			}
			fw.mu.Lock()
			frags, writes := len(fw.frags), fw.fragWrites
			fw.mu.Unlock()
			if frags != jobs || writes != nodes*jobs {
				t.Errorf("%d fragment frames in %d writes, want %d in %d (one per hop)", frags, writes, jobs, nodes*jobs)
			}
			fw.check(t)
		})
	}
}
