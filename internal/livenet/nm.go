package livenet

import (
	"cmp"
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
	jobs    map[int]*nmJob         // every job from its first manifest until it ends
	digests map[int]ImageDigest    // job -> digest of the delivered image (outlives the job)
	links   map[*conn]struct{}     // every link a serve loop reads: MM, parents, children
	writers map[string]*linkWriter // relay links by child address, cached across jobs
	ctl     *nmCtl                 // control-tree role (the control rounds' relay)

	// counters, guarded by mu: fragments verified, processes forked, gang
	// context switches enacted; and the fragment copies the link writers
	// wrote to tree children.
	fragsWritten int
	launches     int
	strobesSeen  int
	fragsRelayed atomic.Int64
	// enacted is the row the last strobe opened, in Ping.Row's encoding
	// (row+1; 0 before the first strobe). Guarded by mu.
	enacted int

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

// nmJob is everything this node holds for one job, from the job's first
// manifest until finishJob or onAbort: the incoming image, the node's role
// in each stripe's tree and, once launched, the job's gate. man is never
// nil.
type nmJob struct {
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
	draining bool  // manifest-time cache drain or image seal in flight; the HAVE waits

	// stripes[s] is this node's role in stripe s's tree (stripe s carries
	// the chunks with global index ≡ s mod k); with stripes=1 it is the
	// legacy single-tree data path. failed marks a job this node
	// rejected: it credits nothing more.
	stripes []*stripeRelay
	failed  bool

	// gate is the job's process gate, set at launch: a job is launched iff
	// it has one. row is its gang timeslot row.
	gate *gate
	row  int

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
	sentUp   int     // cumulative credit already propagated up (by the HAVE ledger, or an ack)
	haveSent bool    // the aggregated HAVE ledger already went up to this parent
	via      []*conn // the live links this epoch's install arrived on, the parent among them
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

// owes is the stripe's answer step: what this node owes its parent on
// stripe s of job j now, counted as sent. It takes no lock and does no
// I/O; answer runs it under nm.mu and writes what it returns.
//
//   - Nothing while no parent is bound.
//   - The HAVE ledger, once per parent link, when no drain or seal is in
//     flight and every live child has reported: bit i is set iff every
//     node of the subtree holds chunk i — the AND-fold, dual of the
//     control plane's OR of absence — and its stripe-local prefix is the
//     credit it carries. A child that is down cannot vouch for anything:
//     all bits are clear, and the MM's recovery rebuilds the subtree. (The
//     MM reads only stripe s's bits; the full bitmap keeps one ledger format.)
//   - After the HAVE, the credit — the minimum of this node's own
//     stripe-local prefix and every child subtree's credit — each time it
//     passes what already went up, unless this node rejected the job. A
//     child that is down stalls it, so the MM never drains a window past a
//     death: it replans, and the next epoch's tree leaves the node out.
//     Nothing goes up before the HAVE, so a subtree the HAVE shows
//     complete never acks at all.
func (r *stripeRelay) owes(j *nmJob, s int) (have []uint64, credit int) {
	if r.parent == nil {
		return nil, 0
	}
	ready := !r.haveSent && !j.draining
	for _, rc := range r.children {
		ready = ready && (rc.have != nil || rc.down)
	}
	if ready {
		have = append(make([]uint64, 0, len(j.written)), j.written...)
		for _, rc := range r.children {
			for i := range have {
				if rc.down || i >= len(rc.have) {
					have[i] = 0
				} else {
					have[i] &= rc.have[i]
				}
			}
		}
		r.haveSent = true
		r.sentUp = stripePrefix(have, len(j.man.Hashes), s, j.k, r.sentUp)
	}
	if !r.haveSent || j.failed {
		return have, 0
	}
	up := j.srecv[s]
	for _, rc := range r.children {
		up = min(up, rc.acked)
	}
	if up <= r.sentUp {
		return have, 0
	}
	r.sentUp = up
	return have, up
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

// NewNM connects a Node Manager with the given node ID to the MM at
// addr, with default configuration. cpus is the advertised processor
// count (one PL per potential process).
func NewNM(addr string, node, cpus int) (*NM, error) {
	return NewNMConfig(addr, node, cpus, NMConfig{})
}

// NewNMConfig is NewNM with explicit configuration.
func NewNMConfig(addr string, node, cpus int, cfg NMConfig) (*NM, error) {
	nm := &NM{node: node, cpus: cpus, cfg: cfg,
		jobs:    make(map[int]*nmJob),
		digests: make(map[int]ImageDigest),
		links:   make(map[*conn]struct{}),
		writers: make(map[string]*linkWriter),
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
	// Cancel every live gang gate: a process descheduled when its MM died
	// would otherwise wait forever for a strobe that is never coming, and
	// this Close would deadlock on it.
	var gates []*gate
	for _, j := range nm.jobs {
		j.discardSpool()
		if j.gate != nil {
			gates = append(gates, j.gate)
		}
	}
	nm.mu.Unlock()
	for _, g := range gates {
		g.cancel()
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
			nm.handleFrag(m.Frag)
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
// unbound — answers must never be written to a dead socket — and closed.
// A stripe falls back to another live link its epoch's install arrived
// on, and answers there: a parent's redial may have installed it on a
// newer link before this one's install was read. Otherwise the
// replacement parent re-binds with the install its writer writes ahead
// of any other frame. Its read loop ends with it; a writer that fails a
// write on it does not wait for that.
func (nm *NM) dropLink(c *conn) {
	var rebound [][2]int // job, stripe
	nm.mu.Lock()
	delete(nm.links, c)
	for _, lw := range nm.writers {
		if lw.c == c {
			lw.c = nil
		}
	}
	for job, j := range nm.jobs {
		for s, sr := range j.stripes {
			sr.via = slices.DeleteFunc(sr.via, func(l *conn) bool { return l == c })
			if n := len(sr.via); sr.parent == c && n > 0 {
				sr.parent, sr.haveSent, sr.sentUp = sr.via[n-1], false, 0 // a move, as in onManifest
				rebound = append(rebound, [2]int{job, s})
			} else if sr.parent == c {
				sr.parent = nil
			}
		}
	}
	if nm.ctl != nil && nm.ctl.parent == c {
		nm.ctl.parent = nil
	}
	nm.mu.Unlock()
	c.close()
	for _, js := range rebound {
		nm.answer(js[0], js[1])
	}
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
	for job, j := range nm.jobs {
		if j.gate != nil {
			continue // launched: the transfer is over, and the Launch went by
		}
		for _, sr := range j.stripes {
			for _, rc := range sr.children {
				if rc.c == c && !rc.down {
					nm.relay(job, rc, Message{})
				}
			}
		}
	}
}

// onChildAck folds a child subtree's cumulative credit, arrived on link
// cc, into its stripe's fold. No rejection comes this way: every node
// writes its own on its MM link.
func (nm *NM) onChildAck(a *FragAck, cc *conn) {
	nm.mu.Lock()
	if j := nm.jobs[a.Job]; j != nil && a.OK && a.Stripe >= 0 && a.Stripe < len(j.stripes) {
		// Credit from an older epoch vouched for a different subtree
		// shape and must not count under the new one.
		if sr := j.stripes[a.Stripe]; a.Epoch == sr.epoch {
			sr.credit(cc, a.Index+1)
		}
	}
	nm.mu.Unlock()
	nm.answer(a.Job, a.Stripe)
}

// handleFrag relays one binary fragment down its stripe's forwarding
// tree, then verifies and "writes" it (to the in-memory RAM disk) and
// answers that stripe's parent. The relay is queued first, straight from
// the received pooled buffer, so the hash work of every level overlaps
// the downstream transmission; corruption is caught by each node's own
// check and rejected to the MM. The stripe's answers go up the link its
// manifest last bound, whichever link the fragment came in on.
func (nm *NM) handleFrag(f *Frag) {
	nm.mu.Lock()
	j := nm.jobs[f.Job]
	if j == nil || f.Stripe >= len(j.stripes) {
		// No manifest announced this chunk: a straggler for a job whose
		// state was released (finished, aborted), or a frame no tree of
		// ours accounts for. Every epoch opens with a manifest on the same
		// link, so nothing that will be needed is lost: drop it.
		nm.mu.Unlock()
		f.release()
		return
	}
	sr := j.stripes[f.Stripe]
	// A chunk is forwarded only to the subtrees that reported missing it —
	// the selective half of the delta path — as the frame it arrived in:
	// the payload is neither copied nor re-encoded.
	for _, rc := range sr.children {
		if !maskGet(rc.have, f.Index) {
			nm.relay(f.Job, rc, Message{Frag: f})
		}
	}
	epoch := sr.epoch
	man := j.man // immutable once announced
	nm.mu.Unlock()
	nm.writeManifestChunk(f, epoch, j, man)
}

// onManifest opens (or re-opens, after a replan) a job's delta transfer
// on one stripe. A manifest of a new epoch installs the stripe's relay
// from the tree it carries and relays each child its own slice of it;
// any current one binds the stripe's parent, splices every chunk the
// local cache can vouch for straight into the image, and answers with
// the resulting HAVE ledger (answer) — immediately for leaves, once every
// child has reported for interior nodes. A fully cache-warm node may
// never see a fragment, so everything the fragment path would establish
// (the parent binding, the credit, even image completion) must be able to
// happen here.
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
// that stripe's parent, relay down, and answer. A stale-epoch manifest
// racing a replan on one stripe is dropped in full — it never touches
// another stripe's relay, parent binding or ledger.
func (nm *NM) onManifest(m *Manifest, from *conn) {
	if m.Stripe < 0 || m.Stripe >= m.Stripes || m.Stripes > 255 {
		return // names no stripe a job can have (the frames carry one byte)
	}
	nm.mu.Lock()
	j := nm.jobs[m.Job]
	drain := j == nil
	if drain {
		j = &nmJob{man: m.clone(), written: make([]uint64, bitWords(len(m.Hashes))),
			k: m.Stripes, srecv: make([]int, m.Stripes), draining: true, stripes: make([]*stripeRelay, m.Stripes)}
		for s := range j.stripes {
			j.stripes[s] = &stripeRelay{treeRole: treeRole{epoch: -1}}
		}
		nm.jobs[m.Job] = j
	}
	if len(j.stripes) != m.Stripes || m.Epoch < j.stripes[m.Stripe].epoch {
		// A manifest from a superseded epoch raced a replan on this
		// stripe. Drop it whole: the MM's HAVE timeout covers the gap,
		// and no other stripe's state is touched.
		nm.mu.Unlock()
		return
	}
	sr := j.stripes[m.Stripe]
	if m.Epoch > sr.epoch {
		// A new epoch installs the stripe's relay from the manifest's tree,
		// each child with its own slice of it, and its answers start here,
		// up the link the manifest came down: a straggler of the previous
		// epoch may have been answered to a parent that had moved on and
		// dropped the answer, so the credit and HAVE streams restart from
		// nothing. The current epoch's manifest arriving again — on the
		// link a parent's relay redialed — moves the answers to that link.
		*sr = stripeRelay{treeRole: treeRole{epoch: m.Epoch}}
		sr.install(m.Tree, func(below []TreeNode) Message {
			inst := *m
			inst.Hashes, inst.Tree = j.man.Hashes, below
			return Message{Manifest: &inst}
		})
		// Install first, so the subtree's cache drains overlap our own.
		for _, rc := range sr.children {
			nm.relay(m.Job, rc, Message{})
		}
	}
	if sr.parent != from {
		// The answers move: what went up the old link may be lost with it,
		// so the stripe answers again from the HAVE on, and the parent
		// keeps the maximum. via stays in order of the installs' arrival.
		sr.via = append(slices.DeleteFunc(sr.via, func(l *conn) bool { return l == from }), from)
		sr.parent, sr.haveSent, sr.sentUp = from, false, 0
	}
	man := j.man
	nm.mu.Unlock()

	if !drain {
		// Another stripe's manifest already drained (or is draining) the
		// cache; the HAVE waits while that drain is in flight, and the
		// drain owner answers every stripe when it completes.
		nm.answer(m.Job, m.Stripe)
		return
	}

	nm.mu.Lock()
	if nm.jobs[m.Job] != j {
		nm.mu.Unlock()
		return // aborted while the manifest was being relayed
	}
	if nm.cache != nil {
		spool := nm.cfg.SpoolDir != ""
		for i := range man.Hashes {
			if bitGet(j.written, i) {
				continue
			}
			size := manifestChunkLen(man, i)
			if spool {
				// Spool mode needs the bytes: fetch (Get re-verifies disk
				// entries) and splice them at the chunk's image offset.
				p := grabFrame(size)
				buf := (*p)[fragRoom:]
				if nm.cache.Get(man.Hashes[i], 0, size, buf) &&
					nm.spliceChunk(m.Job, j, i, buf) == nil {
					bitSet(j.written, i)
					j.wcount++
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
				bitSet(j.written, i)
				j.wcount++
			}
		}
	}
	// A fully warm image is sealed off the lock, and enters the ack
	// ledgers only then (see writeManifestChunk); j.draining holds the
	// HAVE back until sealImage clears it.
	seal := j.wcount == len(man.Hashes) && !j.complete
	if !seal {
		for s := 0; s < j.k; s++ {
			j.advanceStripe(s)
		}
		j.draining = false
	}
	spool, k := j.spool, j.k
	nm.mu.Unlock()
	if seal {
		switch err := nm.sealImage(m.Job, j, man, spool); {
		case errors.Is(err, errJobGone):
			return
		case err != nil:
			nm.c.send(Message{FragAck: &FragAck{Job: m.Job, Index: len(man.Hashes) - 1, Node: nm.node, Epoch: m.Epoch, Stripe: m.Stripe, OK: false}})
			return
		}
	}
	nm.settle(m.Job, k)
}

// settle follows a cache drain or an image seal. Either may have
// satisfied chunks of every stripe, and other stripes' manifests may have
// arrived (their HAVEs held back) while it ran: answer them all. A stripe
// whose manifest has not bound a parent yet owes nothing.
func (nm *NM) settle(job, k int) {
	for s := 0; s < k; s++ {
		nm.answer(job, s)
	}
}

// onChildHave records one child subtree's HAVE report for its stripe on
// the matching link — it doubles as the selective relay filter, and its
// stripe-local prefix is the subtree's credit — and answers, which sends
// the stripe's HAVE up if this completes the fold.
func (nm *NM) onChildHave(h *Have, cc *conn) {
	nm.mu.Lock()
	j := nm.jobs[h.Job]
	if j == nil || h.Stripe < 0 || h.Stripe >= len(j.stripes) || h.Epoch != j.stripes[h.Stripe].epoch {
		nm.mu.Unlock()
		return
	}
	for _, rc := range j.stripes[h.Stripe].children {
		if rc.c == cc {
			rc.have = append(rc.have[:0], h.Bits...)
			rc.acked = stripePrefix(h.Bits, len(j.man.Hashes), h.Stripe, j.k, rc.acked)
		}
	}
	nm.mu.Unlock()
	nm.answer(h.Job, h.Stripe)
}

// answer is the one way a stripe's answers go up its tree: it runs the
// stripe's step (owes) under nm.mu and writes what it returns to the
// stripe's parent, the HAVE before the credit. This is the live analogue
// of the paper's COMPARE-AND-WRITE receipt check: one answer per subtree
// per stripe instead of one per node.
func (nm *NM) answer(job, s int) {
	nm.mu.Lock()
	j := nm.jobs[job]
	if j == nil || s < 0 || s >= len(j.stripes) {
		nm.mu.Unlock()
		return
	}
	sr := j.stripes[s]
	have, credit := sr.owes(j, s)
	parent, epoch := sr.parent, sr.epoch
	nm.mu.Unlock()
	if have != nil {
		parent.send(Message{Have: &Have{Job: job, Node: nm.node, Epoch: epoch, Stripe: s, Bits: have}})
	}
	if credit > 0 {
		parent.send(Message{FragAck: &FragAck{Job: job, Index: credit - 1, Node: nm.node, Epoch: epoch, Stripe: s, OK: true}})
	}
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
// skips the wire entirely: the cache adopts the frame the chunk arrived
// in, holding a reference to it (fragOwner) until it evicts the entry,
// so the payload is never copied.
//
// Everything that costs O(bytes) — the hash — runs before nm.mu is
// taken, against the manifest handleFrag read under the lock (j and man
// are that snapshot); the lock covers the bitmap and ledger update
// alone, and the seal of a completed image runs after it is released
// (sealImage). The cache is filled before the ledger moves, so a chunk
// this node has acked is a chunk its cache holds: the next launch's HAVE
// round can rely on it. A chunk this node rejects is nacked straight to
// the MM on the node's own link, which no relay hop between them can
// lose; epoch is the stripe's, for the nack.
func (nm *NM) writeManifestChunk(f *Frag, epoch int, j *nmJob, man *Manifest) {
	nm.offLock()
	nchunks := len(man.Hashes)
	ok := f.Index >= 0 && f.Index < nchunks &&
		len(f.Data) == manifestChunkLen(man, f.Index) &&
		chunkcache.Hash64(f.Data) == man.Hashes[f.Index]
	if ok && nm.cache != nil {
		f.hold()
		nm.cache.Adopt(man.Hashes[f.Index], f.Data, int64(fragRoom+cap(f.Data)), (*fragOwner)(f))
	}
	nm.mu.Lock()
	if nm.jobs[f.Job] != j {
		// The job finished or was aborted while this fragment was being
		// relayed and verified: nothing is left to write it into or to
		// answer for it.
		nm.mu.Unlock()
		f.release()
		return
	}
	seal, k := false, j.k
	var spool *os.File
	switch {
	case !ok:
		// Corrupt or misdirected: nacked below.
	case bitGet(j.written, f.Index):
		// Duplicate — a replayed stream after recovery, or a chunk the
		// cache already supplied. Fall through to re-ack so the new
		// topology's cumulative credit re-primes, but do not rewrite.
	default:
		if nm.spliceChunk(f.Job, j, f.Index, f.Data) != nil {
			ok = false // local write failure: this node nacks itself
			break
		}
		bitSet(j.written, f.Index)
		j.wcount++
		nm.fragsWritten++
		if seal = j.wcount == nchunks; seal {
			// The chunk that completes the image enters the ack ledgers
			// only once the image is sealed (sealImage): until then its
			// stripe's credit stays one short and a replan's HAVE fold
			// waits, so nothing can vouch for an image that has not been
			// checked.
			j.draining = true
			spool = j.spool // read after the splice, which may just have opened it
			break
		}
		// Ledger by the chunk's own stripe (index mod k), which the
		// striped MM always matches to the frame's stripe tag.
		j.advanceStripe(f.Index % j.k)
	}
	if !ok {
		j.failed = true
	}
	nm.mu.Unlock()
	f.release()
	if seal {
		switch err := nm.sealImage(f.Job, j, man, spool); {
		case errors.Is(err, errJobGone):
			return
		case err != nil:
			ok = false
		}
	}
	if !ok {
		nm.c.send(Message{FragAck: &FragAck{Job: f.Job, Index: f.Index, Node: nm.node, Epoch: epoch, Stripe: f.Stripe, OK: false}})
		return
	}
	if seal {
		nm.settle(f.Job, k)
		return
	}
	nm.answer(f.Job, f.Stripe)
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
func (j *nmJob) advanceStripe(s int) {
	if s >= 0 && s < len(j.srecv) {
		j.srecv[s] = stripePrefix(j.written, len(j.man.Hashes), s, j.k, j.srecv[s])
	}
}

// spliceChunk writes one verified chunk at its image offset in the spool
// file (opened lazily). In memory mode there is nothing to write: the
// image is never materialized — chunk presence is tracked in the written
// bitmap, each chunk verified against its hash as it arrives. Callers
// hold nm.mu.
func (nm *NM) spliceChunk(job int, j *nmJob, index int, data []byte) error {
	if nm.cfg.SpoolDir == "" {
		return nil
	}
	off := int64(index) * int64(j.man.ChunkBytes)
	if j.spool == nil {
		j.final = filepath.Join(nm.cfg.SpoolDir, fmt.Sprintf("node%d-job%d.bin", nm.node, job))
		fh, err := os.CreateTemp(nm.cfg.SpoolDir, fmt.Sprintf("node%d-job%d-*.tmp", nm.node, job))
		if err != nil {
			return err
		}
		j.spool, j.tmp = fh, fh.Name()
	}
	_, err := j.spool.WriteAt(data, off)
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
// and only the commit retakes it — and ends the hold on the HAVE
// (j.draining) the caller began; the caller then settles. A failed seal
// removes the spool file and marks the job failed; the caller nacks.
func (nm *NM) sealImage(job int, j *nmJob, man *Manifest, spool *os.File) error {
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
	if nm.jobs[job] != j {
		return errJobGone
	}
	j.draining = false
	if err == nil {
		err = j.commitSpool()
	}
	if err != nil {
		j.discardSpool()
		j.failed = true
		return err
	}
	for s := range j.srecv {
		j.srecv[s] = stripeChunks(len(man.Hashes), s, j.k)
	}
	j.complete = true
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
	return cmp.Or(errs...) // the first
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
func (j *nmJob) commitSpool() error {
	if j.spool == nil {
		return nil
	}
	err := j.spool.Close()
	j.spool = nil
	if err == nil {
		err = os.Rename(j.tmp, j.final)
	}
	if err == nil {
		j.tmp = ""
	}
	return err
}

// discardSpool drops a partial image (abort/failure/shutdown cleanup).
func (j *nmJob) discardSpool() {
	if j == nil {
		return
	}
	if j.spool != nil {
		j.spool.Close()
		j.spool = nil
	}
	if j.tmp != "" {
		os.Remove(j.tmp)
		j.tmp = ""
	}
}

// onAbort drops a failed job's transfer state and cancels the job's
// gate, so processes that were already forked by a partial launch exit
// at their next work-chunk boundary instead of running (or sitting
// descheduled) forever. The relay links are cached and stay up for the
// next job.
func (nm *NM) onAbort(a *Abort) {
	nm.mu.Lock()
	j := nm.jobs[a.Job]
	j.discardSpool()
	delete(nm.jobs, a.Job)
	delete(nm.digests, a.Job)
	nm.mu.Unlock()
	if j != nil && j.gate != nil {
		j.gate.cancel()
	}
}

// finishJob releases a completed job's record (the image digest is
// retained for inspection, the relay links for the next job).
func (nm *NM) finishJob(job int) {
	nm.mu.Lock()
	delete(nm.jobs, job)
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
	j := nm.jobs[l.Job]
	if j != nil && j.gate != nil {
		nm.mu.Unlock()
		return
	}
	ready := j != nil && j.complete
	// Gang mode: processes run only while their row is strobed — from the
	// start if the last strobe opened it, so a gang runs out of turn by at
	// most one strobe's skew; otherwise they free-run. The gate marks the
	// job launched here, so lostChildLink leaves its tree alone from now on.
	g := newGate(!l.Gang || l.Row+1 == nm.enacted)
	if ready {
		j.gate, j.row = g, l.Row
		nm.launches += l.PEs
	}
	if j != nil {
		index := l.Index + 1
		for _, rc := range j.stripes[0].children {
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
