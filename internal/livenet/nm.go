package livenet

import (
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/livenet/chunkcache"
	"repro/internal/place"
	"repro/internal/workload"
)

// NMConfig tunes a live Node Manager.
type NMConfig struct {
	// PeerAddr is the listen address of the PeerHub the NM starts for
	// relay connections from parent NMs in the forwarding tree (default
	// "127.0.0.1:0"). Ignored when Hub is set.
	PeerAddr string
	// SpoolDir, when set, makes the NM persist each job's binary image
	// to disk: fragments append to a job-private temp file that is
	// renamed into place only once the full image has verified, so an
	// aborted or failed transfer can never leave a half-written binary
	// behind. Empty keeps the image in memory only (the RAM-disk model).
	SpoolDir string
	// CacheBytes, when positive, gives the NM a bounded content-addressed
	// chunk cache (see internal/livenet/chunkcache): committed image
	// chunks are retained up to this budget and advertised in HAVE
	// ledgers, so a relaunch of an unchanged (or slightly rebuilt) image
	// streams only the missing chunks. Zero disables caching; every
	// transfer then behaves like a cold launch.
	CacheBytes int64
	// CacheDir, when set with CacheBytes, backs the chunk cache with one
	// file per chunk under this directory instead of holding chunks in
	// memory. Corrupt or truncated entries are detected on read and fall
	// back to the wire.
	CacheDir string
	// Dialer overrides how the NM opens its connections (to the MM and
	// to relay children); nil means TCP with retry/backoff. WrapConn,
	// when set, interposes on every established connection, inbound and
	// outbound. Both exist for deterministic fault injection (see
	// internal/livenet/faultconn).
	Dialer   Dialer
	WrapConn func(net.Conn) net.Conn
	// Hub, when set, is a PeerHub shared with other NMs in the process:
	// inbound relay connections for every NM on it are demultiplexed by
	// its one accept loop. Nil gives the NM a hub of its own on PeerAddr,
	// closed with the NM; a shared hub outlives its NMs.
	Hub *PeerHub
	// Lite selects the dense connection profile (shallow buffered I/O,
	// kernel-autotuned socket buffers) on every connection this NM
	// makes. The right choice when hundreds of NMs share a process;
	// the default bulk profile is tuned for per-link throughput.
	Lite bool
	// Cap declares this node's resource capacity to the MM's placement
	// engine. Placement never seats a gang member whose JobSpec.Demand
	// exceeds the node's free capacity. The zero Cap means undeclared —
	// the MM treats the node as unbounded, the pre-capacity behavior.
	Cap place.Vec
	// Rejoin announces this NM as a returning member rather than a fresh
	// one: its Register asks for readmission, and NewNMConfig blocks until
	// the MM's RejoinAck clears the node's conviction (the ack's probation
	// count is readable via Probation). Use after a crash/restart of a
	// previously-registered node — especially one the failure detector
	// convicted, which a plain Register would leave excluded from the
	// control tree forever.
	Rejoin bool
}

// NM is a live Node Manager: it registers with the MM, receives binary
// fragments (from the MM or from a parent NM in the forwarding tree),
// relays them to its own tree children, aggregates acks for its subtree,
// forks processes through its Program Launchers (goroutines), and
// reports terminations and heartbeats.
type NM struct {
	node  int
	cpus  int
	cfg   NMConfig
	c     *conn
	hub   *PeerHub          // routes inbound relay links here: cfg.Hub, or the NM's own
	cache *chunkcache.Cache // nil when caching is disabled

	mu      sync.Mutex
	bins    map[int]*binState      // job -> receive state
	relays  map[int]*relayState    // job -> forwarding-tree state
	digests map[int]ImageDigest    // job -> digest of the delivered image
	links   map[*conn]struct{}     // every link a serve loop reads: MM, parents, children
	writers map[string]*linkWriter // relay links by child address, cached across jobs
	gates   map[int]*gateRow       // job -> gang gate + row
	ctl     *nmCtl                 // control-tree role (the control rounds' relay)

	// counters, guarded by mu: fragments verified, processes forked, gang
	// context switches enacted; and the fragment copies the link writers
	// wrote to tree children.
	fragsWritten int
	launches     int
	strobesSeen  int
	fragsRelayed atomic.Int64

	// testOffLock, when set (in-package tests only), runs at every point
	// of the receive path that is about to do O(bytes) or O(chunks) work
	// — the chunk hash, cache admission, the image seal — all of which
	// must happen without nm.mu held.
	testOffLock func()

	// probation is the heartbeat-clean period count the MM's RejoinAck
	// quoted (0 for a fresh registration); set once in NewNMConfig.
	probation int

	wg     sync.WaitGroup
	closed chan struct{}
}

// binState tracks one job's incoming binary image. It exists from the
// job's first manifest on, so man is never nil.
type binState struct {
	complete bool

	// man is the job's manifest (cloned out of conn scratch, shared by
	// every stripe); written marks which chunks are spliced into the
	// image so far — from the cache at manifest time or from the wire —
	// and wcount counts them. srecv[s] is the stripe-local in-order
	// prefix over the chunks stripe s owns (global indices ≡ s mod k),
	// which is what stripe s's cumulative acks vouch for.
	man      *Manifest
	written  []uint64
	wcount   int
	k        int   // the job's stripe count, from its first manifest (≥1)
	srecv    []int // per-stripe in-order chunk prefix (stripe-local counts)
	draining bool  // manifest-time cache drain or image seal in flight; defer the HAVE folds

	// Spool state (SpoolDir set): chunks are written at their offsets in
	// a job-private temp file that is renamed into place only once the
	// full image has re-verified against the manifest's chunk hashes.
	spool *os.File
	tmp   string
	final string
}

// ImageDigest summarizes the binary image a node received for a job:
// enough to prove byte-identical delivery across transfer topologies.
type ImageDigest struct {
	Bytes int
	Frags int
	// CRC is the CRC-32 of the manifest's chunk-hash list (each hash 8
	// bytes, little-endian): set by the image's content and chunk size, so
	// equal on every node that sealed the image.
	CRC uint32
}

// relayState is one job's position in the striped forwarding plane: one
// stripeRelay per spanning tree (stripe s carries the chunks with global
// index ≡ s mod k). With stripes=1 there is exactly one entry and the
// behavior is the legacy single-tree data path.
type relayState struct {
	stripes []*stripeRelay
	failed  bool
}

// treeRole is this node's role in one tree — a stripe's forwarding tree
// or the control tree: where its answers go (parent) and whom it relays
// to (children).
type treeRole struct {
	epoch    int   // tree generation of the install that laid it
	parent   *conn // the link the epoch's install last arrived on; answers go up it
	children []*relayChild
}

// install lays the role's children from tree, the install's subtree
// below this node: each child with the install message inst builds for
// its own subtree. The tree is copied: it may sit in conn scratch, and
// every redial re-sends a child's slice of it.
func (r *treeRole) install(tree []TreeNode, inst func(below []TreeNode) Message) {
	for _, sub := range splitTree(slices.Clone(tree)) {
		r.children = append(r.children, &relayChild{node: sub[0].Node, addr: sub[0].Addr,
			size: len(sub), install: inst(sub[1:])})
	}
}

// stripeRelay is this node's role in one stripe's tree; its credit is
// stripe-local. Epochs are per-stripe (-1 before the first manifest): a
// replan re-stamps every stripe, drained or not.
type stripeRelay struct {
	treeRole
	sentUp   int  // cumulative credit already propagated up (by the HAVE ledger, or an ack)
	haveSent bool // this epoch's aggregated HAVE ledger already went up
}

// credit raises the cumulative credit of the child bound to link from to
// n: every tree answer is matched to its child by the link the child's
// install last went down. Caller holds nm.mu.
func (r *stripeRelay) credit(from *conn, n int) {
	for _, rc := range r.children {
		if rc.c == from {
			rc.acked = max(rc.acked, n)
		}
	}
}

// creditUp folds the stripe's credit — the minimum of local, this node's
// own progress, and every child subtree's — and reports it when it has
// passed what already went up and a parent is bound to take it, counting
// it as sent. A child that is down still stalls the fold. Caller holds
// nm.mu.
func (r *stripeRelay) creditUp(local int) (int, bool) {
	up := local
	for _, rc := range r.children {
		up = min(up, rc.acked)
	}
	if r.parent == nil || up <= r.sentUp {
		return 0, false
	}
	r.sentUp = up
	return up, true
}

// relayChild is one child of a tree this node relays down: a stripe's
// forwarding tree or the control tree.
type relayChild struct {
	node    int
	addr    string
	size    int        // nodes in the child's subtree, itself included
	install Message    // the child's slice of the tree: its Manifest, or its CtlPlan
	c       *conn      // the link the install last went down; nil before the first
	acked   int        // a stripe subtree's cumulative credit, in stripe-local chunks
	have    []uint64   // a stripe subtree's aggregated HAVE ledger (nil until reported)
	ledger  pongLedger // a control subtree's latest pong ledger
	// down marks a child its link writer did not reach: a failed dial,
	// or a write that failed again after one redial. The tree that owns the
	// mark sets how long it lasts: a stripe's, the rest of its epoch; the
	// control tree's, one control round (onCtlPing).
	down bool
}

// gateRow couples a job's process gate with its gang timeslot row.
type gateRow struct {
	g   *gate
	row int
}

// NewNM connects a Node Manager with the given node ID to the MM at
// addr, with default configuration. cpus is the advertised processor
// count (one PL per potential process).
func NewNM(addr string, node, cpus int) (*NM, error) {
	return NewNMConfig(addr, node, cpus, NMConfig{})
}

// NewNMConfig is NewNM with explicit configuration.
func NewNMConfig(addr string, node, cpus int, cfg NMConfig) (*NM, error) {
	nm := &NM{node: node, cpus: cpus, cfg: cfg,
		bins:    make(map[int]*binState),
		relays:  make(map[int]*relayState),
		digests: make(map[int]ImageDigest),
		links:   make(map[*conn]struct{}),
		writers: make(map[string]*linkWriter),
		gates:   make(map[int]*gateRow),
		closed:  make(chan struct{}),
		hub:     cfg.Hub}
	if nm.hub == nil {
		hub, err := NewPeerHub(cfg.PeerAddr)
		if err != nil {
			return nil, err
		}
		nm.hub = hub
	}
	// On a failed start Close undoes what was begun: the hub, and any
	// relay link it routed here once the node was registered on it.
	if cfg.SpoolDir != "" {
		if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
			nm.Close()
			return nil, fmt.Errorf("livenet: spool dir: %w", err)
		}
	}
	if cfg.CacheBytes > 0 {
		cache, err := chunkcache.New(cfg.CacheBytes, cfg.CacheDir)
		if err != nil {
			nm.Close()
			return nil, fmt.Errorf("livenet: chunk cache: %w", err)
		}
		nm.cache = cache
	}
	c, err := dialProf(cfg.Dialer, cfg.WrapConn, addr, noPeer, profileFor(nm.cfg.Lite))
	if err != nil {
		nm.Close()
		return nil, err
	}
	nm.c = c
	// Relay links are routed here only from now on: whatever they bring
	// may need the MM link.
	if err := nm.hub.register(node, nm); err != nil {
		c.close()
		nm.Close()
		return nil, err
	}
	reg := &Register{Node: node, CPUs: cpus, Addr: nm.PeerAddr(), Cap: cfg.Cap, Rejoin: cfg.Rejoin}
	if _, err := c.send(Message{Register: reg}); err != nil {
		c.close()
		nm.Close()
		return nil, fmt.Errorf("livenet: register: %w", err)
	}
	if cfg.Rejoin {
		// Rejoin is a synchronous handshake: the ack proves the MM
		// cleared this node's conviction before any traffic flows, so a
		// caller holding a fresh NM knows the node is back in membership
		// (probation may still gate placement for a few periods).
		m, err := c.recv()
		if err != nil {
			c.close()
			nm.Close()
			return nil, fmt.Errorf("livenet: rejoin ack: %w", err)
		}
		if m.RejoinAck == nil {
			c.close()
			nm.Close()
			return nil, fmt.Errorf("livenet: rejoin: unexpected first message from MM")
		}
		if m.RejoinAck.Err != "" {
			c.close()
			nm.Close()
			return nil, fmt.Errorf("livenet: rejoin refused: %s", m.RejoinAck.Err)
		}
		nm.probation = m.RejoinAck.Probation
	}
	nm.mu.Lock()
	nm.serveLocked(c)
	nm.mu.Unlock()
	return nm, nil
}

// Node returns the NM's node ID.
func (nm *NM) Node() int { return nm.node }

// Probation returns the heartbeat-clean period count the MM quoted in
// its RejoinAck (0 for a fresh registration, or a rejoin with no
// detector running).
func (nm *NM) Probation() int { return nm.probation }

// PeerAddr returns the NM's relay address: its own hub's endpoint, or
// its routed "host:port#node" address on a shared hub.
func (nm *NM) PeerAddr() string {
	if nm.cfg.Hub == nil {
		return nm.hub.Addr()
	}
	return nm.hub.nodeAddr(nm.node)
}

// FragsWritten returns the number of verified fragments written.
func (nm *NM) FragsWritten() int {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	return nm.fragsWritten
}

// FragsRelayed returns the number of fragment copies forwarded to tree
// children.
func (nm *NM) FragsRelayed() int {
	return int(nm.fragsRelayed.Load())
}

// ImageDigest returns the digest of the binary image this node received
// for job (retained after the job completes), and whether the image was
// fully delivered.
func (nm *NM) ImageDigest(job int) (ImageDigest, bool) {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	d, ok := nm.digests[job]
	return d, ok
}

// Close disconnects the NM (simulating a node failure if abrupt).
func (nm *NM) Close() {
	// Guarded close: chaos tests kill an NM from a fault callback while
	// the test harness also Closes it on cleanup.
	nm.mu.Lock()
	select {
	case <-nm.closed:
	default:
		close(nm.closed)
	}
	nm.mu.Unlock()
	// No relay link is routed here from now on: the NM's own hub closes,
	// a shared one forgets the node. (A link the hub is routing right now
	// is refused by adoptPeer.)
	if nm.cfg.Hub == nil {
		nm.hub.Close()
	} else {
		nm.hub.unregister(nm.node, nm)
	}
	nm.mu.Lock()
	for c := range nm.links {
		c.close()
	}
	for _, st := range nm.bins {
		st.discardSpool()
	}
	// Cancel every live gang gate: a process descheduled when its MM died
	// would otherwise wait forever for a strobe that is never coming, and
	// this Close would deadlock on it.
	gates := make([]*gateRow, 0, len(nm.gates))
	for _, gr := range nm.gates {
		gates = append(gates, gr)
	}
	nm.gates = make(map[int]*gateRow)
	nm.mu.Unlock()
	for _, gr := range gates {
		gr.g.cancel()
	}
	nm.wg.Wait()
}

// serve is the read loop of every link — the MM link, a link a tree
// parent dialed in, a link this node dialed to a tree child — and
// dispatches each frame by its type, whichever way it travels: down the
// trees come fragments, manifests, pings and the MM's commands, up them
// acks, HAVE ledgers and pongs. from is where a
// down-tree frame's answers go.
func (nm *NM) serve(from *conn) {
	defer nm.wg.Done()
	for {
		m, err := from.recv()
		if err != nil {
			nm.dropLink(from)
			nm.lostChildLink(from)
			return
		}
		switch {
		case m.Frag != nil:
			nm.handleFrag(m.Frag, from)
		case m.FragAck != nil:
			nm.onChildAck(m.FragAck, from)
		case m.Manifest != nil:
			nm.onManifest(m.Manifest, from)
		case m.Have != nil:
			nm.onChildHave(m.Have, from)
		case m.Ping != nil:
			nm.onCtlPing(m.Ping, from)
		case m.Pong != nil:
			nm.onCtlPong(m.Pong, from)
		case m.Abort != nil:
			nm.onAbort(m.Abort)
		case m.Launch != nil:
			nm.onLaunch(m.Launch)
		case m.CtlPlan != nil:
			nm.onCtlPlan(m.CtlPlan, from)
		}
	}
}

// serveLocked starts c's read loop, unless the NM is closed. The closed
// check, the insert into nm.links and the wg.Add share nm.mu with
// Close's sweep, so a link is either refused here or closed there —
// never left with a loop nobody will stop. Caller holds nm.mu.
func (nm *NM) serveLocked(c *conn) bool {
	if nm.isClosed() {
		return false
	}
	nm.links[c] = struct{}{}
	nm.wg.Add(1)
	go nm.serve(c)
	return true
}

// isClosed reports whether Close has begun.
func (nm *NM) isClosed() bool {
	select {
	case <-nm.closed:
		return true
	default:
		return false
	}
}

// dropLink is the one way a link leaves the NM: out of the served set
// and its writer, every stripe or control role whose parent it was
// unbound — a replacement parent re-binds with the install its writer
// writes ahead of any other frame, and answers must never be written to
// a dead socket — and closed. Its read loop ends with it; a writer that
// fails a write on it does not wait for that.
func (nm *NM) dropLink(c *conn) {
	nm.mu.Lock()
	delete(nm.links, c)
	for _, lw := range nm.writers {
		if lw.c == c {
			lw.c = nil
		}
	}
	for _, rs := range nm.relays {
		for _, sr := range rs.stripes {
			if sr.parent == c {
				sr.parent = nil
			}
		}
	}
	if nm.ctl != nil && nm.ctl.parent == c {
		nm.ctl.parent = nil
	}
	nm.mu.Unlock()
	c.close()
}

// adoptPeer takes over an inbound relay connection the hub routed here,
// behind the NM's own fault hook and connection profile. Returns false
// (and adopts nothing) if the NM is already closed — the connection then
// belongs to the caller.
func (nm *NM) adoptPeer(nc net.Conn) bool {
	if nm.cfg.WrapConn != nil {
		nc = nm.cfg.WrapConn(nc)
	}
	nm.mu.Lock()
	defer nm.mu.Unlock()
	return nm.serveLocked(newConnProf(nc, profileFor(nm.cfg.Lite)))
}

// linkWriter owns the relay link to one child address: only its writer
// goroutine (writeLink) dials the link, writes on it and reports a child
// it cannot reach. Guarded by nm.mu.
type linkWriter struct {
	addr    string
	c       *conn      // the link; nil before the first dial and once it died
	q       []relayOut // frames waiting to be written, from q[head] on
	head    int
	running bool // a writeLink goroutine owns the queue
}

// relayOut is one queued frame for tree child rc: m, or rc's install
// alone when m is zero.
type relayOut struct {
	job int
	rc  *relayChild
	m   Message
}

// relay is the one hop down every tree: it queues m — a manifest, a
// fragment, a ping, a launch — for tree child rc on its address's writer
// and returns, so a read loop never dials, backs off or waits on a
// child's socket. A zero m queues the child's install alone: that is how
// a tree installs its children and how lostChildLink re-installs one. A
// queued fragment holds its frame until written. Caller holds nm.mu.
func (nm *NM) relay(job int, rc *relayChild, m Message) {
	if nm.isClosed() {
		return
	}
	if m.Frag != nil {
		m.Frag.hold()
	}
	lw := nm.writers[rc.addr]
	if lw == nil {
		lw = &linkWriter{addr: rc.addr}
		nm.writers[rc.addr] = lw
	}
	lw.q = append(lw.q, relayOut{job, rc, m})
	if !lw.running {
		lw.running = true
		nm.wg.Add(1)
		go nm.writeLink(lw)
	}
}

// writeLink is lw's writer: it writes the queued frames in order until
// none is left, and a later relay starts it again. It drops a frame once
// the NM is closed, or when its child is marked down (an install alone
// is written even then).
func (nm *NM) writeLink(lw *linkWriter) {
	defer nm.wg.Done()
	for {
		nm.mu.Lock()
		if lw.head == len(lw.q) {
			lw.q, lw.head, lw.running = lw.q[:0], 0, false
			nm.mu.Unlock()
			return
		}
		o := lw.q[lw.head]
		lw.q[lw.head] = relayOut{}
		lw.head++
		c, skip := lw.c, nm.isClosed() || o.rc.down && o.m != (Message{})
		nm.mu.Unlock()
		if !skip {
			nm.writeOut(lw, c, o)
		}
		if o.m.Frag != nil {
			o.m.Frag.release()
		}
	}
}

// writeOut writes one queued frame on c, lw's link, behind the child's
// install if the link has not carried it yet — the first, or a redial —
// so the child's parent is always the link its install last arrived on
// and nothing outruns it. A failed write evicts the link and redials
// once; a child that cannot be dialed, or fails again, is marked down
// and reported (job 0 for the control tree).
func (nm *NM) writeOut(lw *linkWriter, c *conn, o relayOut) {
	var err error
	for try := 0; try < 2; try++ {
		if c == nil {
			if c, err = nm.dialLink(lw, o.rc.node); err != nil {
				break
			}
		}
		// Bound before the install goes: the child may answer it before
		// the write returns, and answers are matched by link.
		nm.mu.Lock()
		fresh := o.rc.c != c
		o.rc.c, o.rc.down = c, false
		nm.mu.Unlock()
		if fresh {
			_, err = c.send(o.rc.install)
		}
		switch {
		case err != nil, o.m == Message{}: // failed, or the install alone
		case o.m.Frag != nil:
			if _, err = c.sendFrame(*o.m.Frag.frame); err == nil {
				nm.fragsRelayed.Add(1)
			}
		default:
			_, err = c.send(o.m)
		}
		if err == nil {
			return
		}
		// The peer restarted, or the socket died: evict the link. A frame
		// is atomic per connection, so the peer discards any partial frame
		// with the dead socket and the re-send on a redial is clean.
		nm.dropLink(c)
		c = nil
	}
	nm.childDown(o.job, o.rc, err)
}

// dialLink opens lw's link to node and starts its read loop, while the
// NM is open (serveLocked): a closed NM's links are all closed.
func (nm *NM) dialLink(lw *linkWriter, node int) (*conn, error) {
	if nm.isClosed() {
		return nil, net.ErrClosed
	}
	c, err := dialProf(nm.cfg.Dialer, nm.cfg.WrapConn, lw.addr, node, profileFor(nm.cfg.Lite))
	if err != nil {
		return nil, err
	}
	nm.mu.Lock()
	defer nm.mu.Unlock()
	if !nm.serveLocked(c) {
		c.close()
		return nil, net.ErrClosed
	}
	lw.c = c
	return c, nil
}

// childDown marks a child its writer did not reach, and reports it down
// so the MM can start recovery without waiting for a round to stall.
func (nm *NM) childDown(job int, rc *relayChild, err error) {
	nm.mu.Lock()
	rc.down = true
	nm.mu.Unlock()
	nm.c.send(Message{PeerDown: &PeerDown{Job: job, Node: rc.node, From: nm.node, Err: err.Error()}})
}

// lostChildLink re-installs every child a job still relays to over c, a
// dropped link (relay with a zero frame): the writer redials, or reports
// the child down — as after a failed write, but at once: a write lands
// in a dead peer's socket buffer without an error, and the next one may
// never come once the window waits on the child's own credit.
func (nm *NM) lostChildLink(c *conn) {
	nm.mu.Lock()
	defer nm.mu.Unlock()
	for job, rs := range nm.relays {
		if nm.gates[job] != nil {
			continue // launched: the transfer is over, and the Launch went by
		}
		for _, sr := range rs.stripes {
			for _, rc := range sr.children {
				if rc.c == c && !rc.down {
					nm.relay(job, rc, Message{})
				}
			}
		}
	}
}

// onChildAck folds a child subtree's cumulative fragment ack, arrived on
// link cc, into its stripe's aggregate credit.
func (nm *NM) onChildAck(a *FragAck, cc *conn) {
	if !a.OK {
		// A node below rejected: forward the failure up unchanged so the
		// MM learns the true origin. Content rejections are
		// epoch-independent.
		nm.mu.Lock()
		rs := nm.relays[a.Job]
		var parent *conn
		if rs != nil {
			rs.failed = true
			if a.Stripe >= 0 && a.Stripe < len(rs.stripes) {
				parent = rs.stripes[a.Stripe].parent
			}
			if parent == nil {
				for _, sr := range rs.stripes {
					if sr.parent != nil {
						parent = sr.parent
						break
					}
				}
			}
		}
		nm.mu.Unlock()
		if parent != nil {
			parent.send(Message{FragAck: a})
		}
		return
	}
	nm.mu.Lock()
	if rs := nm.relays[a.Job]; rs != nil && a.Stripe >= 0 && a.Stripe < len(rs.stripes) {
		// Credit from an older epoch vouched for a different subtree
		// shape and must not count under the new one.
		if sr := rs.stripes[a.Stripe]; a.Epoch == sr.epoch {
			sr.credit(cc, a.Index+1)
		}
	}
	nm.mu.Unlock()
	nm.advanceAck(a.Job, a.Stripe)
}

// handleFrag relays one binary fragment down its stripe's forwarding
// tree, then verifies and "writes" it (to the in-memory RAM disk) and
// advances that stripe's aggregated ack. The relay is queued first,
// straight from the received pooled buffer, so the hash work of every
// level overlaps the downstream transmission; corruption is caught by
// each node's own check and nacked up the tree. from is the connection the fragment arrived on
// — the MM link for stripe-tree roots, a peer link otherwise — and
// carried the stripe's manifest first, which bound it as the parent the
// stripe's acks go up.
func (nm *NM) handleFrag(f *Frag, from *conn) {
	nm.mu.Lock()
	rs, st := nm.relays[f.Job], nm.bins[f.Job]
	if rs == nil || st == nil || f.Stripe >= len(rs.stripes) {
		// No manifest announced this chunk: a straggler for a job whose
		// state was released (finished, aborted), or a frame no tree of
		// ours accounts for. Every epoch opens with a manifest on the same
		// link, so nothing that will be needed is lost: drop it.
		nm.mu.Unlock()
		f.release()
		return
	}
	sr := rs.stripes[f.Stripe]
	// A chunk is forwarded only to the subtrees that reported missing it —
	// the selective half of the delta path — as the frame it arrived in:
	// the payload is neither copied nor re-encoded.
	for _, rc := range sr.children {
		if !maskGet(rc.have, f.Index) {
			nm.relay(f.Job, rc, Message{Frag: f})
		}
	}
	epoch := sr.epoch
	man := st.man // immutable once announced
	nm.mu.Unlock()
	nm.writeManifestChunk(f, from, epoch, st, man)
}

// onManifest opens (or re-opens, after a replan) a job's delta transfer
// on one stripe. A manifest of a new epoch installs the stripe's relay
// from the tree it carries and relays each child its own slice of it;
// any current one binds the ack path, splices every chunk the local
// cache can vouch for straight into the image, and folds the resulting
// HAVE ledger up the tree — immediately for leaves, once every child
// has reported for interior nodes. A fully
// cache-warm node may never see a fragment, so everything the fragment
// path would establish (the parent binding, the credit, even image
// completion) must be able to happen here.
//
// A HAVE bit is only ever set for bytes that are already verified and in
// place: the drain goes cache→Get (which re-verifies content)→splice, so
// a poisoned or truncated cache entry simply fails Get, is never
// advertised, and arrives by wire instead — corruption degrades to a
// cache miss, never into the image or a stalled transfer.
//
// With stripes, each stripe tree delivers its own copy of the manifest
// (the epoch gates are per-stripe), but the cache drain runs exactly
// once, owned by whichever stripe's manifest lands first: the image and
// the written bitmap are job-wide, so a second drain would only re-probe
// chunks the first already spliced. Later stripes' manifests just bind
// that stripe's ack path, relay down, and fold that stripe's HAVE. A
// stale-epoch manifest racing a replan on one stripe is dropped in full —
// it never touches another stripe's relay, parent binding or ledger.
func (nm *NM) onManifest(m *Manifest, from *conn) {
	if m.Stripe < 0 || m.Stripe >= m.Stripes || m.Stripes > 255 {
		return // names no stripe a job can have (the frames carry one byte)
	}
	nm.mu.Lock()
	rs := nm.relays[m.Job]
	if rs == nil {
		rs = &relayState{stripes: make([]*stripeRelay, m.Stripes)}
		for s := range rs.stripes {
			rs.stripes[s] = &stripeRelay{treeRole: treeRole{epoch: -1}}
		}
		nm.relays[m.Job] = rs
	}
	if len(rs.stripes) != m.Stripes || m.Epoch < rs.stripes[m.Stripe].epoch {
		// A manifest from a superseded epoch raced a replan on this
		// stripe. Drop it whole: the MM's HAVE timeout covers the gap,
		// and no other stripe's state is touched.
		nm.mu.Unlock()
		return
	}
	sr := rs.stripes[m.Stripe]
	st := nm.bins[m.Job]
	drain := st == nil
	if drain {
		st = &binState{man: m.clone(), written: make([]uint64, bitWords(len(m.Hashes))),
			k: m.Stripes, srecv: make([]int, m.Stripes), draining: true}
		nm.bins[m.Job] = st
	}
	if m.Epoch > sr.epoch {
		// A new epoch installs the stripe's relay from the manifest's tree,
		// each child with its own slice of it, and its answers start here,
		// up the link the manifest came down: a straggler of the previous
		// epoch may have been answered to a parent that had moved on and
		// dropped the answer, so the credit and HAVE streams restart from
		// nothing. The current epoch's manifest arriving again — on the
		// link a parent's relay redialed — only moves the answers to that
		// link.
		*sr = stripeRelay{treeRole: treeRole{epoch: m.Epoch}}
		sr.install(m.Tree, func(below []TreeNode) Message {
			inst := *m
			inst.Hashes, inst.Tree = st.man.Hashes, below
			return Message{Manifest: &inst}
		})
		// Install first, so the subtree's cache drains overlap our own.
		for _, rc := range sr.children {
			nm.relay(m.Job, rc, Message{})
		}
	}
	sr.parent = from
	man := st.man
	nm.mu.Unlock()

	if !drain {
		// Another stripe's manifest already drained (or is draining) the
		// cache; foldHave defers itself while that drain is in flight and
		// the drain owner re-folds every stripe when it completes.
		nm.foldHave(m.Job, m.Stripe)
		nm.advanceAck(m.Job, m.Stripe)
		return
	}

	nm.mu.Lock()
	if nm.bins[m.Job] != st {
		nm.mu.Unlock()
		return // aborted while the manifest was being relayed
	}
	if nm.cache != nil {
		spool := nm.cfg.SpoolDir != ""
		for i := range man.Hashes {
			if bitGet(st.written, i) {
				continue
			}
			size := manifestChunkLen(man, i)
			if spool {
				// Spool mode needs the bytes: fetch (Get re-verifies disk
				// entries) and splice them at the chunk's image offset.
				p := grabFrame(size)
				buf := (*p)[fragRoom:]
				if nm.cache.Get(man.Hashes[i], 0, size, buf) &&
					nm.spliceChunk(m.Job, st, i, buf) == nil {
					bitSet(st.written, i)
					st.wcount++
				}
				releaseFrame(p)
				continue
			}
			// Memory mode never materializes the image, so a cache probe
			// suffices: Use charges the hit and re-verifies disk-backed
			// entries without copying bytes out. This is what makes a
			// fully-warm launch O(chunks), not O(bytes). (A disk-backed
			// cache or a spool still does its file I/O here, under nm.mu:
			// the spool handle is guarded by it.)
			if nm.cache.Use(man.Hashes[i], 0, size) {
				bitSet(st.written, i)
				st.wcount++
			}
		}
	}
	// A fully warm image is sealed off the lock, and enters the ack
	// ledgers only then (see writeManifestChunk); st.draining keeps the
	// HAVE folds deferred until sealImage clears it.
	seal := st.wcount == len(man.Hashes) && !st.complete
	if !seal {
		for s := 0; s < st.k; s++ {
			st.advanceStripe(s)
		}
		st.draining = false
	}
	spool, k := st.spool, st.k
	nm.mu.Unlock()
	if seal {
		switch err := nm.sealImage(m.Job, st, man, spool); {
		case errors.Is(err, errJobGone):
			return
		case err != nil:
			nm.mu.Lock()
			parent := sr.parent
			epoch := sr.epoch
			nm.mu.Unlock()
			if parent != nil {
				parent.send(Message{FragAck: &FragAck{Job: m.Job, Index: len(man.Hashes) - 1, Node: nm.node, Epoch: epoch, Stripe: m.Stripe, OK: false}})
			}
			return
		}
	}
	nm.settle(m.Job, k)
}

// settle follows a cache drain or an image seal. Either may have
// satisfied chunks of every stripe, and other stripes' manifests may have
// arrived (and deferred their HAVE folds) while it ran: fold and
// re-credit them all. Stripes whose manifest has not bound a parent yet
// are skipped inside foldHave/advanceAck.
func (nm *NM) settle(job, k int) {
	for s := 0; s < k; s++ {
		nm.foldHave(job, s)
		nm.advanceAck(job, s)
	}
}

// onChildHave folds one child subtree's HAVE report into this node's
// ledger for that stripe: record it on the matching link — it doubles as
// the selective relay filter, and its stripe-local prefix is the
// subtree's credit — and send the stripe's aggregate up if this completes
// the fold.
func (nm *NM) onChildHave(h *Have, cc *conn) {
	nm.mu.Lock()
	rs, st := nm.relays[h.Job], nm.bins[h.Job]
	if rs == nil || st == nil || h.Stripe < 0 || h.Stripe >= len(rs.stripes) {
		nm.mu.Unlock()
		return
	}
	sr := rs.stripes[h.Stripe]
	if h.Epoch != sr.epoch {
		nm.mu.Unlock()
		return
	}
	for _, rc := range sr.children {
		if rc.c == cc {
			rc.have = append(rc.have[:0], h.Bits...)
			rc.acked = stripePrefix(h.Bits, len(st.man.Hashes), h.Stripe, st.k, rc.acked)
		}
	}
	nm.mu.Unlock()
	nm.foldHave(h.Job, h.Stripe)
	nm.advanceAck(h.Job, h.Stripe)
}

// foldHave sends one stripe subtree's aggregated HAVE ledger up once the
// local splice state and every live child's report are in: bit i is set
// iff every node in the stripe's subtree holds chunk i, and the ledger's
// stripe-local prefix is the credit it carries up. (The MM only
// reads the bits a stripe owns — indices ≡ stripe mod k — but the fold
// carries the full bitmap; the extra bits are free and keep the ledger
// format identical at every stripe count.) The AND-fold is the dual of
// the control plane's pong ledgers, which aggregate absence by OR — same
// O(depth) round, O(fanout) egress per node.
func (nm *NM) foldHave(job, stripe int) {
	nm.mu.Lock()
	rs := nm.relays[job]
	st := nm.bins[job]
	if rs == nil || st == nil || st.draining ||
		stripe < 0 || stripe >= len(rs.stripes) {
		nm.mu.Unlock()
		return
	}
	sr := rs.stripes[stripe]
	if sr.haveSent || sr.parent == nil {
		nm.mu.Unlock()
		return
	}
	for _, rc := range sr.children {
		if rc.have == nil && !rc.down {
			nm.mu.Unlock()
			return // a subtree report is still outstanding
		}
	}
	bits := make([]uint64, len(st.written))
	copy(bits, st.written)
	for _, rc := range sr.children {
		if rc.down {
			// A dead child cannot vouch for anything: claim nothing, and
			// let the MM's recovery path rebuild the subtree.
			for i := range bits {
				bits[i] = 0
			}
			break
		}
		for i := range bits {
			if i < len(rc.have) {
				bits[i] &= rc.have[i]
			} else {
				bits[i] = 0
			}
		}
	}
	sr.haveSent = true
	sr.sentUp = stripePrefix(bits, len(st.man.Hashes), stripe, st.k, sr.sentUp)
	parent := sr.parent
	epoch := sr.epoch
	nm.mu.Unlock()
	parent.send(Message{Have: &Have{Job: job, Node: nm.node, Epoch: epoch, Stripe: stripe, Bits: bits}})
}

// offLock marks a point that must run without nm.mu held (see
// testOffLock).
func (nm *NM) offLock() {
	if nm.testOffLock != nil {
		nm.testOffLock()
	}
}

// writeManifestChunk verifies one wire chunk against the manifest —
// length and content hash — splices it at its offset, and advances
// the in-order ack pointer across any cached spans it completes. Verified
// chunks also populate the cache, so the next launch of the same content
// skips the wire entirely.
//
// Everything that costs O(bytes) — the hash, the cache's copy — runs
// before nm.mu is taken, against the manifest handleFrag read under the
// lock (st and man are that snapshot); the lock covers the bitmap and
// ledger update alone, and the seal of a completed image runs after it
// is released (sealImage). The cache is filled before the
// ledger moves, so a chunk this node has acked is a chunk its cache
// holds: the next launch's HAVE round can rely on it.
func (nm *NM) writeManifestChunk(f *Frag, from *conn, epoch int, st *binState, man *Manifest) {
	nm.offLock()
	nchunks := len(man.Hashes)
	ok := f.Index >= 0 && f.Index < nchunks &&
		len(f.Data) == manifestChunkLen(man, f.Index) &&
		chunkcache.Hash64(f.Data) == man.Hashes[f.Index]
	if ok && nm.cache != nil {
		nm.cache.Put(man.Hashes[f.Index], 0, f.Data)
	}
	nm.mu.Lock()
	rs := nm.relays[f.Job]
	if nm.bins[f.Job] != st || rs == nil {
		// The job finished or was aborted while this fragment was being
		// relayed and verified: nothing is left to write it into or to
		// answer for it.
		nm.mu.Unlock()
		f.release()
		return
	}
	seal, k := false, st.k
	var spool *os.File
	switch {
	case !ok:
		// Corrupt or misdirected: nacked below.
	case bitGet(st.written, f.Index):
		// Duplicate — a replayed stream after recovery, or a chunk the
		// cache already supplied. Fall through to re-ack so the new
		// topology's cumulative credit re-primes, but do not rewrite.
	default:
		if nm.spliceChunk(f.Job, st, f.Index, f.Data) != nil {
			ok = false // local write failure: this node nacks itself
			break
		}
		bitSet(st.written, f.Index)
		st.wcount++
		nm.fragsWritten++
		if seal = st.wcount == nchunks; seal {
			// The chunk that completes the image enters the ack ledgers
			// only once the image is sealed (sealImage): until then its
			// stripe's credit stays one short and a replan's HAVE fold
			// waits, so nothing can vouch for an image that has not been
			// checked.
			st.draining = true
			spool = st.spool // read after the splice, which may just have opened it
			break
		}
		// Ledger by the chunk's own stripe (index mod k), which the
		// striped MM always matches to the frame's stripe tag.
		st.advanceStripe(f.Index % st.k)
	}
	if !ok {
		rs.failed = true
	}
	nm.mu.Unlock()
	f.release()
	if seal {
		switch err := nm.sealImage(f.Job, st, man, spool); {
		case errors.Is(err, errJobGone):
			return
		case err != nil:
			ok = false
		}
	}
	if !ok {
		from.send(Message{FragAck: &FragAck{Job: f.Job, Index: f.Index, Node: nm.node, Epoch: epoch, Stripe: f.Stripe, OK: false}})
		return
	}
	if seal {
		nm.settle(f.Job, k)
		return
	}
	nm.advanceAck(f.Job, f.Stripe)
}

// maskGet is bitGet against a bitmap of unverified length (a peer's HAVE):
// out-of-range bits read as zero.
func maskGet(bits []uint64, i int) bool {
	w := i >> 6
	return w < len(bits) && bits[w]>>(uint(i)&63)&1 == 1
}

// manifestChunkLen is the byte length of chunk i: ChunkBytes for all but
// the last, which carries the image tail.
func manifestChunkLen(m *Manifest, i int) int {
	if n := len(m.Hashes); i == n-1 {
		return int(m.TotalBytes) - (n-1)*m.ChunkBytes
	}
	return m.ChunkBytes
}

// advanceStripe moves one stripe's in-order pointer across the written
// bitmap, counting in stripe-local chunks (global index s + srecv[s]*k):
// srecv[s] is what that stripe's cumulative acks (and replan resume
// points) vouch for.
func (st *binState) advanceStripe(s int) {
	if s >= 0 && s < len(st.srecv) {
		st.srecv[s] = stripePrefix(st.written, len(st.man.Hashes), s, st.k, st.srecv[s])
	}
}

// spliceChunk writes one verified chunk at its image offset in the spool
// file (opened lazily). In memory mode there is nothing to write: the
// image is never materialized — chunk presence is tracked in the written
// bitmap, each chunk verified against its hash as it arrives. Callers
// hold nm.mu.
func (nm *NM) spliceChunk(job int, st *binState, index int, data []byte) error {
	if nm.cfg.SpoolDir == "" {
		return nil
	}
	off := int64(index) * int64(st.man.ChunkBytes)
	if st.spool == nil {
		st.final = filepath.Join(nm.cfg.SpoolDir, fmt.Sprintf("node%d-job%d.bin", nm.node, job))
		fh, err := os.CreateTemp(nm.cfg.SpoolDir, fmt.Sprintf("node%d-job%d-*.tmp", nm.node, job))
		if err != nil {
			return err
		}
		st.spool, st.tmp = fh, fh.Name()
	}
	_, err := st.spool.WriteAt(data, off)
	return err
}

// errJobGone reports that a job's receive state was released (finishJob,
// onAbort) while its image was being sealed.
var errJobGone = errors.New("livenet: job state released")

// sealImage commits a fully spliced image: in spool mode it first reads
// the spool back and checks every chunk against its manifest hash, then
// the spool rename, the full ack ledgers, the retained digest. It is
// called WITHOUT nm.mu by the one goroutine that spliced the last chunk
// (the written bitmap fills exactly once), with the spool handle it read
// under the lock; the read-back and the digest are computed off the lock
// and only the commit retakes it — and ends the deferral of HAVE folds
// (st.draining) the caller began; the caller then settles. A failed seal
// removes the spool file and marks the job's relay state failed; the
// caller nacks.
func (nm *NM) sealImage(job int, st *binState, man *Manifest, spool *os.File) error {
	nm.offLock()
	var err error
	if nm.cfg.SpoolDir != "" {
		err = nm.verifySpool(job, man, spool)
	}
	// The digest, CRC-32 of the hash list: hash/crc32's table update one
	// byte at a time, which allocates nothing, where crc32.Update's
	// argument would escape.
	crc := ^uint32(0)
	for _, h := range man.Hashes {
		for sh := 0; sh < 64; sh += 8 {
			crc = crc32.IEEETable[byte(crc)^byte(h>>sh)] ^ crc>>8
		}
	}
	crc = ^crc
	nm.mu.Lock()
	defer nm.mu.Unlock()
	if nm.bins[job] != st {
		return errJobGone
	}
	st.draining = false
	if err == nil {
		err = st.commitSpool()
	}
	if err != nil {
		st.discardSpool()
		if rs := nm.relays[job]; rs != nil {
			rs.failed = true
		}
		return err
	}
	for s := range st.srecv {
		st.srecv[s] = stripeChunks(len(man.Hashes), s, st.k)
	}
	st.complete = true
	nm.digests[job] = ImageDigest{Bytes: int(man.TotalBytes), Frags: len(man.Hashes), CRC: crc}
	return nil
}

// verifySpool reads a fully spliced spool back and checks each chunk
// against its manifest hash. That closes the splice, proving every chunk
// (cached and wire alike) landed at the right offset with the right bytes,
// before the rename publishes it. The chunks are hashed across the small
// chunk worker pool (ReadAt is concurrent-safe, the reads are disjoint,
// and a spool closed under us by an abort just fails them).
func (nm *NM) verifySpool(job int, man *Manifest, spool *os.File) error {
	errs := make([]error, len(man.Hashes))
	parallelChunks(len(man.Hashes), func(i int) {
		size := manifestChunkLen(man, i)
		p := grabFrame(size)
		nr, err := spool.ReadAt((*p)[fragRoom:], int64(i)*int64(man.ChunkBytes))
		if nr == size {
			err = nil // a full read at EOF is a complete chunk
			if chunkcache.Hash64((*p)[fragRoom:]) != man.Hashes[i] {
				err = fmt.Errorf("livenet: node %d job %d: spooled chunk %d does not match its manifest hash", nm.node, job, i)
			}
		}
		errs[i] = err
		releaseFrame(p)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CacheStats returns a snapshot of the NM's chunk-cache counters and
// whether caching is enabled.
func (nm *NM) CacheStats() (chunkcache.Stats, bool) {
	if nm.cache == nil {
		return chunkcache.Stats{}, false
	}
	return nm.cache.Stats(), true
}

// commitSpool publishes a fully verified image with close + atomic
// rename, so a reader can never observe a half-written binary. On an
// error the temp file is left for discardSpool.
func (st *binState) commitSpool() error {
	if st.spool == nil {
		return nil
	}
	err := st.spool.Close()
	st.spool = nil
	if err == nil {
		err = os.Rename(st.tmp, st.final)
	}
	if err == nil {
		st.tmp = ""
	}
	return err
}

// discardSpool drops a partial image (abort/failure/shutdown cleanup).
func (st *binState) discardSpool() {
	if st == nil {
		return
	}
	if st.spool != nil {
		st.spool.Close()
		st.spool = nil
	}
	if st.tmp != "" {
		os.Remove(st.tmp)
		st.tmp = ""
	}
}

// advanceAck propagates one stripe's folded cumulative credit — creditUp
// over the local stripe-local write progress — up to that stripe's
// parent whenever it advances past what the epoch's HAVE ledger already
// carried up. This is the live analogue of the paper's COMPARE-AND-WRITE
// receipt check: one ack per subtree per stripe instead of one per node.
// Nothing goes up before the HAVE, the epoch's first answer, so a
// subtree the HAVE shows complete never acks at all. A child that is
// down stalls the fold deliberately, so the MM can never drain a
// stripe's window past a death: it replans the stripe, and the next
// epoch's tree leaves the dead node out.
func (nm *NM) advanceAck(job, stripe int) {
	nm.mu.Lock()
	rs := nm.relays[job]
	st := nm.bins[job]
	if rs == nil || st == nil || rs.failed || stripe < 0 || stripe >= len(rs.stripes) || stripe >= len(st.srecv) ||
		!rs.stripes[stripe].haveSent {
		nm.mu.Unlock()
		return
	}
	sr := rs.stripes[stripe]
	up, ok := sr.creditUp(st.srecv[stripe])
	parent, epoch := sr.parent, sr.epoch
	nm.mu.Unlock()
	if ok {
		parent.send(Message{FragAck: &FragAck{Job: job, Index: up - 1, Node: nm.node, Epoch: epoch, Stripe: stripe, OK: true}})
	}
}

// onAbort drops a failed job's transfer state and cancels the job's
// gate, so processes that were already forked by a partial launch exit
// at their next work-chunk boundary instead of running (or sitting
// descheduled) forever. The relay links are cached and stay up for the
// next job.
func (nm *NM) onAbort(a *Abort) {
	nm.mu.Lock()
	nm.bins[a.Job].discardSpool()
	delete(nm.relays, a.Job)
	delete(nm.bins, a.Job)
	delete(nm.digests, a.Job)
	gr := nm.gates[a.Job]
	delete(nm.gates, a.Job)
	nm.mu.Unlock()
	if gr != nil {
		gr.g.cancel()
	}
}

// finishJob releases a completed job's transfer state (the image digest
// is retained for inspection, the relay links for the next job).
func (nm *NM) finishJob(job int) {
	nm.mu.Lock()
	delete(nm.relays, job)
	delete(nm.bins, job)
	delete(nm.gates, job)
	nm.mu.Unlock()
}

// onLaunch relays a job's Launch to this node's stripe-0 children, each
// copy with the child's own pre-order index — this node's, plus 1, plus
// the sizes of the earlier children's subtrees (one it cannot reach is
// reported, and the MM writes it) — then forks the node's processes, one
// PL goroutine per rank, and reports when the last one exits. A second
// copy changes nothing.
func (nm *NM) onLaunch(l *Launch) {
	nm.mu.Lock()
	if nm.gates[l.Job] != nil {
		nm.mu.Unlock()
		return
	}
	st := nm.bins[l.Job]
	ready := st != nil && st.complete
	// Gang mode: processes start gated and run only when their row is
	// strobed; otherwise they free-run. The gate marks the job launched
	// here, so lostChildLink leaves its tree alone from now on.
	g := newGate(!l.Gang)
	if ready {
		nm.gates[l.Job] = &gateRow{g: g, row: l.Row}
		nm.launches += l.PEs
	}
	if rs := nm.relays[l.Job]; rs != nil {
		index := l.Index + 1
		for _, rc := range rs.stripes[0].children {
			rc.down = false // a Launch gets one more try
			child := *l
			child.Index = index
			index += rc.size
			nm.relay(l.Job, rc, Message{Launch: &child})
		}
	}
	nm.mu.Unlock()
	if !ready {
		// Binary never arrived: refuse by reporting immediately; the MM
		// will see a too-early termination in its accounting.
		nm.c.send(Message{Term: &Term{Job: l.Job, Node: nm.node}})
		return
	}
	var procs sync.WaitGroup
	for rank := l.Index * l.PEs; rank < (l.Index+1)*l.PEs; rank++ {
		procs.Add(1)
		go func(rank int) {
			defer procs.Done()
			runProgram(l.Program, rank, g)
		}(rank)
	}
	nm.wg.Add(1)
	go func() {
		defer nm.wg.Done()
		procs.Wait()
		nm.finishJob(l.Job)
		nm.c.send(Message{Term: &Term{Job: l.Job, Node: nm.node}})
	}()
}

// runProgram executes one live application process in gate-sized chunks:
// between chunks it blocks while descheduled (its gang's gate closed).
func runProgram(p ProgramSpec, rank int, g *gate) {
	switch p.Kind {
	case "", "exit":
		// The paper's do-nothing benchmark: terminate immediately.
	case "sleep":
		remaining := p.Duration
		const slice = 5 * time.Millisecond
		for remaining > 0 {
			if !g.wait() {
				return // job aborted: exit instead of finishing the run
			}
			d := min(slice, remaining)
			time.Sleep(d)
			remaining -= d
		}
	case "spin":
		remaining := p.Duration
		x := uint64(rank + 1)
		for remaining > 0 {
			if !g.wait() {
				return
			}
			start := time.Now()
			for time.Since(start) < time.Millisecond {
				for i := 0; i < 1<<12; i++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			remaining -= time.Since(start)
		}
		_ = x
	case "sweep":
		grid := p.Grid
		if grid == 0 {
			grid = 24
		}
		iters := p.Iters
		if iters == 0 {
			iters = 10
		}
		k := workload.NewSweepKernel(grid, grid, grid)
		for i := 0; i < iters; i++ {
			if !g.wait() {
				return
			}
			k.Sweep()
		}
	}
}

// call is the one client exchange with an MM or a federation root: dial
// addr, send one request, wait for its one reply. sent is the bytes
// written on the link (a root's whole per-partition delegation cost);
// dead reports that the link failed — nobody listening, or it died
// before a reply came — as opposed to a reply that arrived.
func call(addr string, prof connProfile, req Message) (reply Message, sent int64, dead bool, err error) {
	c, err := dialProf(nil, nil, addr, noPeer, prof)
	if err != nil {
		return Message{}, 0, true, err
	}
	defer c.close()
	if _, err := c.send(req); err != nil {
		return Message{}, c.sentBytes(), true, fmt.Errorf("livenet: request: %w", err)
	}
	reply, err = c.recv()
	if err != nil {
		return Message{}, c.sentBytes(), true, fmt.Errorf("livenet: awaiting reply: %w", err)
	}
	return reply, c.sentBytes(), false, nil
}

// queryStatus asks addr for its cluster snapshot.
func queryStatus(addr string, prof connProfile) (StatusRep, error) {
	m, _, _, err := call(addr, prof, Message{StatusQ: &StatusReq{}})
	if err != nil {
		return StatusRep{}, err
	}
	if m.StatusR == nil {
		return StatusRep{}, errors.New("livenet: unexpected reply to a status query")
	}
	return *m.StatusR, nil
}

// submitJob submits spec to addr and waits for the completion report. A
// job failure reported over a live link (dead == false) is the
// cluster's verdict on the job; a dead link says nothing about it.
func submitJob(addr string, prof connProfile, spec JobSpec) (rep Report, sent int64, dead bool, err error) {
	m, sent, dead, err := call(addr, prof, Message{Submit: &Submit{Spec: spec}})
	switch {
	case err != nil:
		return Report{}, sent, dead, err
	case m.Done == nil:
		return Report{}, sent, false, errors.New("livenet: unexpected reply to a submission")
	case m.Done.Err != "":
		return m.Done.Report, sent, false, fmt.Errorf("livenet: %s", m.Done.Err)
	}
	return m.Done.Report, sent, false, nil
}

// QueryStatus asks a live MM for its cluster snapshot.
func QueryStatus(addr string) (StatusRep, error) {
	return queryStatus(addr, bulkProfile)
}

// SubmitJob is the client call: dial the MM, submit, and wait for the
// completion report.
func SubmitJob(addr string, spec JobSpec) (Report, error) {
	rep, _, _, err := submitJob(addr, bulkProfile, spec)
	return rep, err
}
