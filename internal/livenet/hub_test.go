package livenet

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"
)

// hungUp asserts that the far end closed c: a read fails, and not by
// running out the deadline.
func hungUp(t *testing.T, c *conn, what string) {
	t.Helper()
	c.c.SetReadDeadline(time.Now().Add(2 * time.Second))
	_, err := c.recv()
	var ne net.Error
	if err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("%s: the hub kept the connection open (%v)", what, err)
	}
}

// TestPeerHubRefusals drives the three ways a hub turns a relay
// connection away; each must leave no goroutine behind.
func TestPeerHubRefusals(t *testing.T) {
	// A connection whose hello never arrives is dropped when the hub
	// closes, without waiting out helloTimeout.
	t.Run("silent", func(t *testing.T) {
		base := runtime.NumGoroutine()
		hub, err := NewPeerHub("")
		if err != nil {
			t.Fatal(err)
		}
		nc, err := net.Dial("tcp", hub.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			hub.mu.Lock()
			n := len(hub.pending)
			hub.mu.Unlock()
			if n == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the hub never accepted the connection")
			}
		}
		within(t, time.Second, "PeerHub.Close with a hello outstanding", hub.Close)
		hungUp(t, newConn(nc), "silent connection")
		waitForGoroutines(t, base, 5*time.Second)
	})

	// A hello naming a node the hub does not serve is hung up on.
	t.Run("unknown-node", func(t *testing.T) {
		base := runtime.NumGoroutine()
		hub, err := NewPeerHub("")
		if err != nil {
			t.Fatal(err)
		}
		c, err := dialProf(nil, nil, hub.Addr(), 7, bulkProfile)
		if err != nil {
			t.Fatal(err)
		}
		defer c.close()
		hungUp(t, c, "hello for node 7")
		hub.Close()
		waitForGoroutines(t, base, 5*time.Second)
	})

	// A hello that lands while its NM is closing — marked closed, still
	// on the hub — is refused by adoptPeer, and the NM adopts nothing.
	t.Run("nm-closing", func(t *testing.T) {
		base := runtime.NumGoroutine()
		mm, err := NewMM("127.0.0.1:0", MMConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer mm.Close()
		hub, err := NewPeerHub("")
		if err != nil {
			t.Fatal(err)
		}
		defer hub.Close()
		nm, err := NewNMConfig(mm.Addr(), 3, 1, NMConfig{Hub: hub})
		if err != nil {
			t.Fatal(err)
		}
		nm.mu.Lock()
		close(nm.closed)
		nm.mu.Unlock()
		c, err := dialProf(nil, nil, nm.PeerAddr(), nm.Node(), bulkProfile)
		if err != nil {
			t.Fatal(err)
		}
		defer c.close()
		hungUp(t, c, "hello for a closing NM")
		nm.mu.Lock()
		links := len(nm.links)
		nm.mu.Unlock()
		if links != 1 {
			t.Fatalf("a closing NM serves %d links, want only its MM link", links)
		}
		nm.Close()
		hub.Close()
		mm.Close()
		waitForGoroutines(t, base, 5*time.Second)
	})
}
