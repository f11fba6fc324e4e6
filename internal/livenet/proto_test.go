package livenet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"repro/internal/livenet/chunkcache"
	"repro/internal/livenet/wire"
)

// fragPatternCheck verifies data against the deterministic pattern in
// place, without materializing the expected image.
func fragPatternCheck(job, index int, data []byte) bool {
	seed := byte(job*31 + index*7)
	w := patternRamp[seed : int(seed)+256]
	for len(data) >= 256 {
		if !bytes.Equal(data[:256], w) {
			return false
		}
		data = data[256:]
	}
	return bytes.Equal(data, w[:len(data)])
}

// pipeConns returns two framed conns joined by an in-memory pipe.
func pipeConns(t *testing.T) (*conn, *conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := newConn(a), newConn(b)
	t.Cleanup(func() { ca.close(); cb.close() })
	return ca, cb
}

// TestFrameRoundTripControl: body-frame messages survive the codec.
func TestFrameRoundTripControl(t *testing.T) {
	ca, cb := pipeConns(t)
	go func() {
		ca.send(Message{Register: &Register{Node: 3, CPUs: 4, Addr: "127.0.0.1:99"}})
		ca.send(Message{Manifest: &Manifest{Job: 7, Epoch: 4, Stripe: 1, Stripes: 2,
			Tree: []TreeNode{{Node: 1, Addr: "a", Size: 2}, {Node: 2, Addr: "b", Size: 1}}}})
	}()
	m, err := cb.recv()
	if err != nil || m.Register == nil || m.Register.Node != 3 || m.Register.Addr != "127.0.0.1:99" {
		t.Fatalf("register round trip: %+v, %v", m, err)
	}
	m, err = cb.recv()
	if err != nil || m.Manifest == nil || m.Manifest.Job != 7 || len(m.Manifest.Tree) != 2 {
		t.Fatalf("manifest round trip: %+v, %v", m, err)
	}
	if g := m.Manifest; g.Epoch != 4 || g.Stripe != 1 || g.Stripes != 2 || len(g.Hashes) != 0 ||
		g.Tree[0] != (TreeNode{Node: 1, Addr: "a", Size: 2}) || g.Tree[1].Addr != "b" {
		t.Fatalf("manifest round trip: %+v", g)
	}
}

// TestFrameRoundTripFrag: the binary fragment frame carries payload
// and flags intact, and the receive buffer is pooled.
func TestFrameRoundTripFrag(t *testing.T) {
	ca, cb := pipeConns(t)
	data := fragPattern(7, 3, 1234)
	go ca.send(Message{Frag: &Frag{Job: 7, Index: 3, Last: true, Data: data}})
	m, err := cb.recv()
	if err != nil || m.Frag == nil {
		t.Fatalf("frag round trip: %v", err)
	}
	f := m.Frag
	if f.Job != 7 || f.Index != 3 || !f.Last || len(f.Data) != 1234 {
		t.Fatalf("frag header mangled: %+v", f)
	}
	if !fragPatternCheck(f.Job, f.Index, f.Data) {
		t.Fatal("frag payload mangled")
	}
	f.release()
}

// TestFrameRoundTripAck: the fixed ack frame, OK and not.
func TestFrameRoundTripAck(t *testing.T) {
	ca, cb := pipeConns(t)
	go func() {
		ca.send(Message{FragAck: &FragAck{Job: 9, Index: 41, Node: 6, OK: true}})
		ca.send(Message{FragAck: &FragAck{Job: 9, Index: 2, Node: 5, OK: false}})
	}()
	m, err := cb.recv()
	if err != nil || m.FragAck == nil || !m.FragAck.OK || m.FragAck.Index != 41 || m.FragAck.Node != 6 {
		t.Fatalf("ack round trip: %+v, %v", m, err)
	}
	m, err = cb.recv()
	if err != nil || m.FragAck == nil || m.FragAck.OK || m.FragAck.Node != 5 {
		t.Fatalf("nack round trip: %+v, %v", m, err)
	}
}

// TestFrameInterleaving: bulk frames and control frames share a link
// without corrupting each other.
func TestFrameInterleaving(t *testing.T) {
	ca, cb := pipeConns(t)
	data := fragPattern(1, 0, 4096)
	go func() {
		ca.send(Message{Ping: &Ping{Seq: 1}})
		ca.send(Message{Frag: &Frag{Job: 1, Index: 0, Data: data}})
		ca.send(Message{FragAck: &FragAck{Job: 1, Index: 0, Node: 2, OK: true}})
		ca.send(Message{Ping: &Ping{Seq: 2, Row: 1}})
	}()
	wantKinds := []string{"ping", "frag", "ack", "strobe"}
	for _, want := range wantKinds {
		m, err := cb.recv()
		if err != nil {
			t.Fatalf("awaiting %s: %v", want, err)
		}
		switch want {
		case "ping":
			if m.Ping == nil {
				t.Fatalf("want ping, got %+v", m)
			}
		case "frag":
			if m.Frag == nil || !fragPatternCheck(1, 0, m.Frag.Data) {
				t.Fatalf("want frag, got %+v", m)
			}
			m.Frag.release()
		case "ack":
			if m.FragAck == nil {
				t.Fatalf("want ack, got %+v", m)
			}
		case "strobe":
			if m.Ping == nil || m.Ping.Row != 1 {
				t.Fatalf("want a ping carrying a row, got %+v", m)
			}
		}
	}
}

// sendAll writes each message on c in turn and returns the first error.
func sendAll(c *conn, ms ...Message) error {
	for _, m := range ms {
		if _, err := c.send(m); err != nil {
			return err
		}
	}
	return nil
}

// discardConn builds a conn whose writes go nowhere, for alloc
// accounting of the send path.
func discardConn() *conn { return writeConn(io.Discard) }

// writeConn builds a conn whose frames are written to w, and which reads
// nothing.
func writeConn(w io.Writer) *conn { return &conn{c: writerConn{w: w}} }

// writerConn is a net.Conn whose writes go to w; closing it is a no-op.
type writerConn struct {
	net.Conn
	w io.Writer
}

func (c writerConn) Write(p []byte) (int, error) { return c.w.Write(p) }
func (c writerConn) Close() error                { return nil }

// TestFragCheckAllocs pins the NM's per-fragment verification — content
// hash plus in-place pattern check — at zero allocations, and the
// single-encode fragment send path at zero allocations per destination.
func TestFragCheckAllocs(t *testing.T) {
	data := fragPattern(5, 11, 256<<10)
	hash := chunkcache.Hash64(data)
	if avg := testing.AllocsPerRun(100, func() {
		if chunkcache.Hash64(data) != hash || !fragPatternCheck(5, 11, data) {
			t.Fatal("verification failed")
		}
	}); avg != 0 {
		t.Fatalf("fragment verification allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		fragPatternInto(data, 5, 11)
	}); avg != 0 {
		t.Fatalf("fragPatternInto allocates %.1f/op, want 0", avg)
	}
	c := discardConn()
	f := &Frag{Job: 5, Index: 11, Data: data}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := c.send(Message{Frag: f}); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("fragment send allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := c.send(Message{FragAck: &FragAck{Job: 5, Index: 11, Node: 1, OK: true}}); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Fatalf("ack send allocates %.1f/op, want <= 1", avg)
	}
}

// TestFragBufPoolReuse: fragment frames cycle through the pool, each
// with its header room in front of the payload.
func TestFragBufPoolReuse(t *testing.T) {
	releaseFrame(grabFrame(1 << 20))
	p := grabFrame(64 << 10)
	if len(*p) != fragRoom+64<<10 {
		t.Fatalf("pooled frame is %d bytes, want %d", len(*p), fragRoom+64<<10)
	}
	releaseFrame(p)
}

// TestConnSentBytes: the egress counter sees frame and payload bytes.
func TestConnSentBytes(t *testing.T) {
	ca, cb := pipeConns(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2; i++ {
			m, err := cb.recv()
			if err != nil {
				return
			}
			if m.Frag != nil {
				m.Frag.release()
			}
		}
	}()
	data := fragPattern(1, 0, 1000)
	if _, err := ca.send(Message{Frag: &Frag{Job: 1, Index: 0, Data: data}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ca.send(Message{FragAck: &FragAck{Job: 1, Index: 0, Node: 0, OK: true}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("receiver stuck")
	}
	want := int64(1+wire.FragLen+1000) + int64(1+wire.AckLen)
	if got := ca.sentBytes(); got != want {
		t.Fatalf("sentBytes = %d, want %d", got, want)
	}
}

// TestRefusedRelayDialIsFinal: a relay target is a registered NM whose
// listener was up before it registered, so a refused relay dial is not
// retried; a dial to an MM still gets every attempt.
func TestRefusedRelayDialIsFinal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	for _, tc := range []struct {
		peer, want int
	}{{peer: 3, want: 1}, {peer: noPeer, want: dialAttempts}} {
		attempts := 0
		dialer := func(a string) (net.Conn, error) {
			attempts++
			return net.DialTimeout("tcp", a, time.Second)
		}
		if _, err := dialProf(dialer, nil, addr, tc.peer, profileFor(false)); !errors.Is(err, syscall.ECONNREFUSED) {
			t.Fatalf("peer %d: dial of a closed port = %v, want ECONNREFUSED", tc.peer, err)
		}
		if attempts != tc.want {
			t.Fatalf("peer %d: %d dial attempts, want %d", tc.peer, attempts, tc.want)
		}
	}
}
