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

// PeerHub is a process-shared relay listener. The seed design gave
// every NM its own TCP listener plus an accept goroutine — fine at 16
// nodes, a third of the whole per-NM footprint at 512. NMs created with
// NMConfig.Hub instead advertise a shared "host:port#node" address; the
// dialing parent opens the connection with a 5-byte hello frame naming
// the target node, and the hub's single accept loop routes the
// connection to that NM (applying the NM's own WrapConn fault hook and
// connection profile, so per-NM fault injection still works). Per NM
// this removes one listener, one accept goroutine, and one listen
// socket; what remains per inbound link is the servePeer read loop,
// which is inherent (one goroutine per live tree edge).
type PeerHub struct {
	ln net.Listener

	mu     sync.Mutex
	nms    map[int]*NM
	closed bool

	wg sync.WaitGroup
}

// helloTimeout bounds how long the hub waits for a fresh connection's
// routing hello; a dialer that connects and goes silent must not pin a
// hub goroutine forever.
const helloTimeout = 5 * time.Second

// NewPeerHub starts a shared peer listener on addr ("" or ":0" forms
// pick an ephemeral port on localhost).
func NewPeerHub(addr string) (*PeerHub, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("livenet: hub listen %s: %w", addr, err)
	}
	h := &PeerHub{ln: ln, nms: make(map[int]*NM)}
	h.wg.Add(1)
	go h.accept()
	return h, nil
}

// Addr returns the hub's listening endpoint (without a node suffix).
func (h *PeerHub) Addr() string { return h.ln.Addr().String() }

// NodeAddr returns the routed peer address an NM registers with the MM:
// dialing it reaches that NM through the hub.
func (h *PeerHub) NodeAddr(node int) string {
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

// Close stops the hub. NMs still registered keep running but become
// unreachable for new relay connections; close them first.
func (h *PeerHub) Close() {
	h.mu.Lock()
	h.closed = true
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
		h.wg.Add(1)
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
	if err != nil || m.Hello == nil {
		nc.Close()
		return
	}
	nc.SetReadDeadline(time.Time{})
	h.mu.Lock()
	nm := h.nms[m.Hello.Node]
	h.mu.Unlock()
	if nm == nil || !nm.adoptPeer(nc) {
		nc.Close()
	}
}
