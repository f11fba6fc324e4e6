package livenet

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/livenet/wire"
)

// PeerHub is the one way a relay link gets into an NM. The dialing
// parent opens the connection with a 5-byte hello frame naming the
// target node, and the hub's accept loop routes the connection to that
// NM, which applies its own WrapConn fault hook and connection profile
// and serves the link with the same read loop as every other. An NM
// built without NMConfig.Hub starts a hub of its own and advertises its
// endpoint; NMs in one process can share one hub instead
// (NMConfig.Hub), advertising routed "host:port#node" addresses, which
// saves a listener and an accept goroutine per NM — a third of the
// whole per-NM footprint at 512 in-process NMs.
type PeerHub struct {
	ln net.Listener

	mu      sync.Mutex
	nms     map[int]*NM
	pending map[net.Conn]struct{} // accepted, hello not yet read
	closed  bool

	wg sync.WaitGroup
}

// helloTimeout bounds how long the hub waits for a fresh connection's
// routing hello; a dialer that connects and goes silent must not pin a
// hub goroutine forever.
const helloTimeout = 5 * time.Second

// NewPeerHub starts a peer listener on addr ("" or ":0" forms pick an
// ephemeral port on localhost).
func NewPeerHub(addr string) (*PeerHub, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("livenet: hub listen %s: %w", addr, err)
	}
	h := &PeerHub{ln: ln, nms: make(map[int]*NM), pending: make(map[net.Conn]struct{})}
	h.wg.Add(1)
	go h.accept()
	return h, nil
}

// Addr returns the hub's listening endpoint (without a node suffix).
func (h *PeerHub) Addr() string { return h.ln.Addr().String() }

// nodeAddr returns the routed peer address an NM on a shared hub
// registers with the MM: dialing it reaches that NM through the hub.
func (h *PeerHub) nodeAddr(node int) string {
	return fmt.Sprintf("%s#%d", h.Addr(), node)
}

// register claims a node ID on the hub.
func (h *PeerHub) register(node int, nm *NM) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return fmt.Errorf("livenet: hub closed")
	}
	if _, dup := h.nms[node]; dup {
		return fmt.Errorf("livenet: hub already serves node %d", node)
	}
	h.nms[node] = nm
	return nil
}

// unregister releases a node ID; inbound connections for it are refused
// from now on. Connections already routed belong to the NM and die with
// it.
func (h *PeerHub) unregister(node int, nm *NM) {
	h.mu.Lock()
	if h.nms[node] == nm {
		delete(h.nms, node)
	}
	h.mu.Unlock()
}

// Close stops the hub and drops every connection still owing its hello.
// NMs still registered keep running but become unreachable for new relay
// connections; close them first.
func (h *PeerHub) Close() {
	h.mu.Lock()
	h.closed = true
	for nc := range h.pending {
		nc.Close()
	}
	h.mu.Unlock()
	h.ln.Close()
	h.wg.Wait()
}

func (h *PeerHub) accept() {
	defer h.wg.Done()
	for {
		nc, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			nc.Close()
			return
		}
		h.pending[nc] = struct{}{}
		h.wg.Add(1)
		h.mu.Unlock()
		go h.route(nc)
	}
}

// route reads the routing hello off a fresh connection and hands the
// connection to the target NM. The hello is received through a reader
// that ends where a hello does, so the NM-side conn built afterwards
// starts exactly at the first real frame and over-reads nothing.
func (h *PeerHub) route(nc net.Conn) {
	defer h.wg.Done()
	nc.SetReadDeadline(time.Now().Add(helloTimeout))
	hello := &conn{r: bufio.NewReaderSize(io.LimitReader(nc, 1+wire.HelloLen), 16)}
	m, err := hello.recv()
	nc.SetReadDeadline(time.Time{})
	var nm *NM
	h.mu.Lock()
	delete(h.pending, nc)
	if err == nil && m.Hello != nil && !h.closed {
		nm = h.nms[m.Hello.Node]
	}
	h.mu.Unlock()
	if nm == nil || !nm.adoptPeer(nc) {
		nc.Close()
	}
}

// writeHello opens a relay link with the hello naming node. It goes on
// the raw transport, ahead of any WrapConn, as route reads it on the
// accepting side: fault wrappers on both ends of a link see the same
// frames, and a shaped link charges nothing for the hello.
func writeHello(nc net.Conn, node int) error {
	_, err := (&conn{c: nc}).send(Message{Hello: &Hello{Node: node}})
	return err
}
