// Package livenet is the live (wall-clock) mode of the STORM
// reproduction: the MM / NM / PL dæmon architecture of internal/storm
// running as real goroutines (or separate processes, via cmd/stormd)
// that talk framed messages over TCP. It is a parallel implementation of
// that architecture — the same division of labor and message vocabulary,
// its own code — not the simulator's dæmons on another transport.
//
// QsNET's hardware collectives obviously do not exist on a TCP loopback,
// so this is precisely the situation the paper's §4 "Portability"
// discussion describes: the mechanisms are emulated in a thin software
// layer — the hardware multicast becomes a k-ary forwarding tree among
// the NMs (the MM streams each fragment to its tree children only; every
// NM relays to its own children and aggregates acks for its whole
// subtree), and the COMPARE-AND-WRITE receipt check becomes that ack
// aggregation. DESIGN.md §5.19 maps each live protocol round to the
// paper mechanism it emulates and to the one function that carries it.
// Live mode exists so the repository also runs as an actual distributed
// resource manager on localhost, not only as a simulator.
//
// Wire format: every message is one frame — a type byte, a fixed part,
// and for some types a tail whose length the fixed part carries; package
// wire is the table of them, shared with the fault injector's scanner.
// Everything that runs per fragment or per period travels as a typed
// frame with a fixed binary layout: fragments and their acks ('F', 'A'),
// heartbeat pings and pong ledgers ('P', 'Q'), gang strobes and their
// acks ('S', 'T'), plan confirmations and peer-down reports ('K', 'D'),
// and the delta-transfer round's manifests, HAVE ledgers and need masks
// ('M', 'H', 'N'). A fragment is encoded exactly once and every child
// link is served from the same buffer with no per-destination
// marshalling; the control frames encode and decode without allocating.
// Only the rare, topology-sized messages — registration, submissions and
// reports, stripe-tree and control-tree plans, launches, terminations,
// aborts, status — travel as gob inside a 'G' frame, on one gob stream
// per connection.
package livenet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/livenet/wire"
	"repro/internal/place"
	"repro/internal/rng"
)

// JobSpec describes a live job.
type JobSpec struct {
	Name string
	// BinaryBytes is the size of the synthetic executable image the MM
	// distributes (contents are generated deterministically and
	// CRC-checked at each NM).
	BinaryBytes int
	// Nodes is how many NMs the job spans.
	Nodes int
	// PEsPerNode is processes per node.
	PEsPerNode int
	// Program selects the live process behavior.
	Program ProgramSpec
	// ImageSeed selects content-addressed image generation: when nonzero,
	// a chunk's bytes derive from (seed, chunk index) alone — two jobs
	// with the same seed share content, so a relaunch finds every chunk
	// in the NM caches — instead of the job-keyed legacy ramp (seed 0).
	ImageSeed uint64
	// ImagePatch overrides the content seed for individual chunk indices,
	// modelling an incremental rebuild that touches a few chunks of an
	// otherwise unchanged image.
	ImagePatch map[int]uint64
	// User names the submitting tenant; the weighted-fair admission
	// policy keeps per-user virtual time so one user's burst cannot
	// monopolize the streaming slots. Empty is a distinct (anonymous)
	// user.
	User string
	// Weight scales the user's weighted-fair share (default 1).
	Weight int
	// Place, when non-empty, pins the job to exactly these node IDs in
	// tree-position order (len must equal Nodes); empty lets the MM pick
	// the least-loaded registered NMs.
	Place []int
	// Demand is the per-member resource demand vector. Placement only
	// seats a member on a node whose free declared capacity covers it;
	// the zero Demand (the default) fits anywhere, preserving the
	// pre-capacity behavior byte for byte.
	Demand place.Vec
}

// ProgramSpec is the live process behavior, transmitted to the PLs.
type ProgramSpec struct {
	// Kind is "exit" (do-nothing), "sleep", "spin", or "sweep".
	Kind string
	// Duration bounds sleep/spin programs.
	Duration time.Duration
	// Grid and Iters parameterize the real sweep kernel.
	Grid  int
	Iters int
}

// Report is the timing breakdown returned to the submitting client,
// mirroring the paper's send/execute decomposition.
type Report struct {
	JobID   int
	Send    time.Duration // binary resident on all nodes
	Execute time.Duration // fork through last termination report
	Total   time.Duration
	// SendBytes is how many bytes the MM itself pushed through its
	// sockets to distribute the binary: ~Nodes×size for the flat
	// fan-out, ~Fanout×size with the forwarding tree.
	SendBytes int64
	// Failed lists nodes excluded by mid-transfer recovery; Replans
	// counts tree-rewire rounds and Recovery is the wall time spent in
	// diagnosis + replan (zero for an undisturbed launch).
	Failed   []int
	Replans  int
	Recovery time.Duration
	// StripeReplans counts the replan rounds charged to each stripe of
	// the striped data plane (one entry per stripe; a single entry for
	// the legacy single-tree plan). A dead node rewires only the stripes
	// it was interior in, so the other stripes' counts stay 0 — leaves
	// are pruned from them without an epoch bump.
	StripeReplans []int
	// Chunks is the transfer manifest's chunk count and ChunksSent how
	// many of them the MM actually streamed after the HAVE round (the
	// union of its direct children's subtree needs). BytesSaved is the
	// payload the delta path avoided relative to a cold full-image
	// fan-out to the same direct children.
	Chunks     int
	ChunksSent int
	BytesSaved int64
	// Queued is how long the job waited in the admission queue before it
	// was granted a streaming slot (and, under gang scheduling, a free
	// timeslot row). Row is the gang row the job ran in (0 when gang
	// scheduling is off). WindowPeak is the largest number of
	// unacknowledged chunks the job's flow-control window held at once.
	Queued     time.Duration
	Row        int
	WindowPeak int
	Timeline   string
	// Retries counts full job-level retry attempts after transfer-phase
	// failures that exhausted mid-stream recovery (0 for a job that
	// succeeded, or failed, on its first placement).
	Retries int
}

// Message is the wire envelope. Exactly one pointer field is set.
//
// Hot control messages (Ping, Pong, Strobe, StrobeAck, FragAck,
// PlanAck, PeerDown, Manifest, Have, NeedMask) never travel
// as gob: send routes them to fixed-layout typed frames and recv
// decodes the zero-alloc subset into conn-owned scratch structs. The
// pointers recv returns for Ping, Pong, Strobe, StrobeAck, FragAck,
// Manifest, Have, and NeedMask are therefore only valid until the next
// recv on the same conn — consume or copy them before looping (Manifest
// has clone() for retention).
type Message struct {
	Register  *Register
	Hello     *Hello
	Submit    *Submit
	Frag      *Frag
	FragAck   *FragAck
	Manifest  *Manifest
	Have      *Have
	NeedMask  *NeedMask
	Plan      *Plan
	PlanAck   *PlanAck
	ChildDead *ChildDead
	PeerDown  *PeerDown
	Abort     *Abort
	Launch    *Launch
	Term      *Term
	Done      *Done
	Ping      *Ping
	Pong      *Pong
	Strobe    *Strobe
	StrobeAck *StrobeAck
	CtlPlan   *CtlPlan
	StatusQ   *StatusReq
	StatusR   *StatusRep
	RejoinAck *RejoinAck
}

// Register announces an NM to the MM. Addr is the NM's peer listener,
// where parent NMs in the forwarding tree dial relay connections.
type Register struct {
	Node int
	CPUs int
	Addr string
	// Cap is the node's declared resource capacity. The zero Cap means
	// undeclared: the MM treats the node as unbounded, so clusters that
	// never mention capacities place exactly as before.
	Cap place.Vec
	// Rejoin marks the explicit readmission of an NM the MM has already
	// seen — one the failure detector convicted, or one whose process
	// restarted: the MM clears the node's conviction, arms a probation
	// window, and answers with a RejoinAck before the link starts serving
	// traffic. A plain registration is not answered.
	Rejoin bool
}

// Submit asks the MM to run a job.
type Submit struct {
	Spec JobSpec
}

// RejoinAck answers a Register that asked to rejoin. Probation is how
// many heartbeat-clean periods the node must survive before it is
// eligible for placement again (0 when no detector is running); Err
// non-empty means the MM refused the rejoin and the NM must not proceed.
type RejoinAck struct {
	Probation int
	Err       string
}

// Hello routes an inbound relay connection on a shared peer listener
// (see PeerHub): when many NMs live in one process they share one
// listener instead of owning one each, and the dialer's first frame
// names which NM the connection is for. It is always the first bytes on
// such a connection and never appears once a link is established.
type Hello struct {
	Node int
}

// Frag carries one fragment of a job's binary image. On the wire it is a
// binary 'F' frame, not gob; Data received from recv is pooled and must
// be returned with releaseFragBuf once consumed. Stripe names the
// spanning tree the fragment travels down (0 on a single-tree plan):
// with a striped plan, chunk i belongs to stripe i%k and each stripe's
// tree relays only its own chunks.
type Frag struct {
	Job    int
	Index  int
	Last   bool
	Data   []byte
	CRC    uint32
	Stripe int
}

// FragAck credits the sender's flow-control window. With the forwarding
// tree the ack is cumulative and aggregated: Node's ack for Index means
// every node in Node's subtree has verified and written fragments
// 0..Index. OK=false reports a CRC/pattern rejection; Node then names
// the rejecting node, which parents forward up unchanged. Epoch is the
// tree generation the ack was computed under: after a mid-transfer
// replan the subtree a node vouches for changes, so credit from an
// earlier topology must not be mistaken for credit under the new one.
// Stripe scopes the ack to one stripe tree; Index counts in
// stripe-local chunk order (chunk s, s+k, s+2k, ... for stripe s), so
// each stripe keeps an independent cumulative ledger.
type FragAck struct {
	Job    int
	Index  int
	Node   int
	Epoch  int
	OK     bool
	Stripe int
}

// ChildRef names one relay child in a plan. Subtree is set only by the
// control tree: the nodes the child's aggregated ledgers vouch for, in
// pre-order (the child itself first, then each grandchild subtree
// recursively) — the bit layout of the pong ledger's Absent bitmap, so a
// parent folds a child's bitmap into its own with a single shift.
type ChildRef struct {
	Node    int
	Addr    string
	Subtree []int
}

// Plan tells an NM its role in a job's forwarding trees: for each stripe
// tree it names, the tree's epoch and the NMs (if any) this node relays
// that stripe's chunks to (SplitStream-style role rotation makes a node
// interior in ~1/k of the trees and a leaf in the rest). A launch names
// every stripe at epoch 0 and comes before the first fragment. A
// mid-transfer recovery names the one stripe it rewires, with a fresh
// child set and a bumped epoch — the other stripes' trees, epochs and
// streams are untouched, which is what lets a striped transfer recover a
// dead interior node without stalling the stripes it was only a leaf in.
type Plan struct {
	Job   int
	Trees []planTree
}

// planTree is one stripe tree of a Plan.
type planTree struct {
	Stripe   int
	Epoch    int
	Children []ChildRef
}

// PlanAck confirms the NM has dialed the relay children of every tree in
// a Plan and installed them (or reports why it could not); the MM
// streams into a tree only after every node of it has confirmed, so no
// fragment can outrun its relay topology. Stripe and Epoch echo the
// plan's first tree, which makes a confirmation of a superseded plan
// recognisable; Received is the node's in-order stripe-local fragment
// progress on that stripe, which a recovery folds into the replay point.
type PlanAck struct {
	Job      int
	Node     int
	Epoch    int
	Received int
	Stripe   int
	Err      string
}

// ChildDead prunes a dead leaf out of one stripe's tree without a
// replan round: the MM, having convicted the node, tells its tree
// parent to stop waiting on the subtree's acks. Only valid when the
// dead node is a leaf in this stripe (interior deaths need a real
// Plan to re-home the orphaned subtree). Rare, so it rides the gob
// path.
type ChildDead struct {
	Job    int
	Stripe int
	Node   int
}

// PeerDown is an NM's report that a relay child is unreachable: the
// cached link failed a write, and one fresh redial also failed. The MM
// treats it as failure-detector evidence and triggers recovery without
// waiting for the flow-control window to time out.
type PeerDown struct {
	Job  int
	Node int // the unreachable child
	From int // the reporting parent
	Err  string
}

// Abort tells NMs to drop a failed job's transfer state and close its
// relay links.
type Abort struct {
	Job    int
	Reason string
}

// Launch orders an NM to fork a job's local processes.
type Launch struct {
	Job     int
	Program ProgramSpec
	Ranks   []int
	// Row is the job's gang timeslot; Gang says whether processes start
	// gated (awaiting strobes) or free-running.
	Row  int
	Gang bool
}

// Term reports that all of a job's processes on a node have exited.
type Term struct {
	Job  int
	Node int
}

// Done returns the completion report to the client.
type Done struct {
	Report Report
	Err    string
}

// StatusReq asks the MM for a cluster snapshot; StatusRep answers it.
type StatusReq struct{}

// StatusRep is the MM's cluster snapshot.
type StatusRep struct {
	Nodes     []int // registered NM IDs, ascending
	Jobs      int   // jobs currently in flight
	Queued    int   // jobs waiting in the admission queue
	Launched  int
	Completed int
	Strobes   int
	Gang      bool // live gang scheduling enabled
}

// Ping is one heartbeat (or isolation-probe) round. On the control
// tree the MM sends one epoch-stamped ping per period to its direct
// children only; every NM relays it to its own control-tree children,
// so MM heartbeat egress is O(fanout) regardless of cluster size.
// Directed isolation probes reuse the same frame with Epoch 0 and a
// sequence in the disjoint probe range.
type Ping struct {
	Seq   int64
	Epoch int
}

// Pong answers a Ping. On the control tree it is not a per-node reply
// but a cumulative subtree ledger: MinSeq is the oldest heartbeat
// sequence any node in the sender's subtree is still vouched for, and
// Absent is a bitmap of subtree members whose answers have gone stale,
// indexed by the subtree's pre-order position (bit 0 = the sender
// itself; only the first 64 positions are tracked — beyond that a
// silent node is still caught when its whole subtree goes quiet). The
// MM thus consumes exactly one frame per direct child per period and
// still sees per-node liveness. Epoch is the control-tree generation
// the ledger was aggregated under; a ledger from an older topology
// vouched for a different subtree and is discarded. Epoch 0 marks a
// directed isolation-probe reply, which bypasses the tree entirely.
type Pong struct {
	Seq    int64
	Node   int
	Epoch  int
	MinSeq int64
	Absent uint64
}

// Strobe is the live gang-scheduling context switch: row Row becomes
// the running timeslot. It multicasts down the control tree exactly
// like a heartbeat ping (O(fanout) MM egress), and NMs both enact it
// locally and relay it to their control-tree children. Seq orders
// strobes; Epoch guards against stale-topology acks.
type Strobe struct {
	Seq   int64
	Row   int
	Epoch int
}

// StrobeAck confirms strobe delivery, aggregated like fragment acks:
// Node's ack for Seq means every node in Node's control subtree has
// enacted strobes up to and including Seq. The MM's strobe latency
// metric is the gap between the multicast and the last direct child's
// cumulative ack.
type StrobeAck struct {
	Seq   int64
	Node  int
	Epoch int
}

// CtlPlan installs a node's role in the cluster-wide control tree (the
// heartbeat/strobe fast path). It is sent only when membership changes
// — registration, unregistration, conviction — so it stays on the gob
// cold path; the per-period traffic it enables is all typed frames.
type CtlPlan struct {
	Epoch    int
	Children []ChildRef
}

// Manifest opens a transfer epoch: the content map of the image about
// to be distributed. Hashes[i]/CRCs[i] address chunk i (fixed
// ChunkBytes each except a short tail), so an NM can recognize chunks
// it already holds in its content-addressed cache; ImageCRC is the
// whole-image digest every NM re-verifies before committing its spool.
// It multicasts down the forwarding tree like a fragment and, like the
// hot control frames, travels as a typed 'M' frame with zero
// steady-state allocations. recv returns it in conn-owned scratch —
// clone() it to retain past the next recv. Stripe is the spanning tree
// the copy multicast down (with per-stripe epochs, the same image map
// travels once per stripe tree); Epoch is that stripe's tree
// generation.
type Manifest struct {
	Job        int
	Epoch      int
	ChunkBytes int
	ImageCRC   uint32
	TotalBytes int64
	Stripe     int
	Hashes     []uint64
	CRCs       []uint32
}

// clone deep-copies a Manifest out of conn scratch.
func (m *Manifest) clone() *Manifest {
	c := *m
	c.Hashes = append([]uint64(nil), m.Hashes...)
	c.CRCs = append([]uint32(nil), m.CRCs...)
	return &c
}

// Have is the aggregated cache ledger answering a Manifest: bit i set
// means every node in the sender's subtree already holds chunk i
// (verified against the manifest's hash+CRC and spliced into its
// spool). Parents AND their own bitmap with each child's before sending
// up — the dual of the pong ledger's absence fold — so the MM learns
// the set-union of missing chunks across the cluster in one O(depth)
// round with O(fanout) egress, and every interior node learns exactly
// which chunks each child subtree still needs. The bitmap always covers
// the full chunk index space; Stripe names the tree (and epoch ledger)
// the fold ran up, since each stripe's tree aggregates its own HAVE
// round.
type Have struct {
	Job    int
	Node   int
	Epoch  int
	Stripe int
	Bits   []uint64
}

// NeedMask is the transfer epoch's stream announcement, sent down each
// link just before streaming: bit i set means chunk i will arrive on
// this link. A receiver uses it as the authoritative split between
// wire-sourced and locally-sourced chunks — a chunk outside the mask
// that the node cannot produce locally is a protocol violation worth a
// fast nack, not a silent stall. Stripe scopes the announcement to one
// stripe's tree: the mask only ever sets bits of chunks in that stripe
// (index ≡ stripe mod k), so a stale or misrouted mask cannot poison
// another stripe's expectations.
type NeedMask struct {
	Job    int
	Epoch  int
	Stripe int
	Bits   []uint64
}

// bitWords returns the ledger word count covering n chunks.
func bitWords(n int) int { return (n + 63) / 64 }

// bitGet reports bit i of a chunk bitmap.
func bitGet(bits []uint64, i int) bool {
	return bits[i>>6]&(1<<uint(i&63)) != 0
}

// bitSet sets bit i of a chunk bitmap.
func bitSet(bits []uint64, i int) {
	bits[i>>6] |= 1 << uint(i&63)
}

// fragCRC computes the fragment checksum.
func fragCRC(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// patternRamp is two cycles of the byte ramp 0..255: the fragment
// pattern b[i] = seed + byte(i) is periodic with period 256, so filling
// (and, in tests, checking) reduces to memmove/memequal against a
// 256-byte window of this table instead of byte-at-a-time arithmetic
// (~10x on the 2 MB images the launch bench pushes around).
var patternRamp = func() []byte {
	r := make([]byte, 512)
	for i := range r {
		r[i] = byte(i)
	}
	return r
}()

// fragPatternInto fills b with the deterministic byte pattern of the
// synthetic binary image for (job, index). Zero allocations.
func fragPatternInto(b []byte, job, index int) {
	seed := byte(job*31 + index*7)
	w := patternRamp[seed : int(seed)+256]
	for len(b) >= 256 {
		copy(b, w)
		b = b[256:]
	}
	copy(b, w[:len(b)])
}

// fragPattern allocates and fills a fragment pattern (test helper; the
// hot paths use fragPatternInto on pooled buffers).
func fragPattern(job, index, size int) []byte {
	b := make([]byte, size)
	fragPatternInto(b, job, index)
	return b
}

// chunkSeed returns the content seed of one chunk of a seeded image:
// the job's ImageSeed unless an ImagePatch entry rebuilds that chunk.
func chunkSeed(spec *JobSpec, index int) uint64 {
	if s, ok := spec.ImagePatch[index]; ok {
		return s
	}
	return spec.ImageSeed
}

// seededFragInto fills b with the content-addressed image bytes of a
// chunk: a 256-byte pseudorandom tile derived from (seed, index) via
// splitmix64, repeated by block copy. Like the legacy ramp it fills at
// memmove speed with zero allocations, but the bytes depend only on
// the content seed — not the job — so identical images hash and cache
// identically across launches.
func seededFragInto(b []byte, seed uint64, index int) {
	var tile [256]byte
	s := rng.SplitMix64(rng.Mix64(seed ^ (uint64(index)+1)*rng.GoldenGamma))
	for i := 0; i < 256; i += 8 {
		binary.LittleEndian.PutUint64(tile[i:], s.Next())
	}
	for len(b) >= 256 {
		copy(b, tile[:])
		b = b[256:]
	}
	copy(b, tile[:len(b)])
}

const (
	// maxFrame bounds a frame payload (corruption guard).
	maxFrame = 64 << 20
	// maxCtlErr bounds the error string carried in a typed control
	// frame; longer errors are truncated (they are diagnostics, not
	// data).
	maxCtlErr = 1 << 12
	// connScratchLen sizes the conn's frame scratch buffer: a type byte
	// plus the longest fixed part.
	connScratchLen = 1 + wire.MaxFixed
)

// fragBufPool recycles fragment payload buffers across the send, relay,
// and receive paths so the steady-state transfer allocates nothing per
// fragment.
var fragBufPool sync.Pool

// grabFragBuf returns a buffer of length n, reusing a pooled one when
// its capacity suffices.
func grabFragBuf(n int) []byte {
	if v := fragBufPool.Get(); v != nil {
		b := *(v.(*[]byte))
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// releaseFragBuf returns a fragment buffer to the pool. Callers must not
// touch the slice afterwards.
func releaseFragBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	fragBufPool.Put(&b)
}

// conn wraps a TCP connection with the frame codec: buffered writes with
// explicit flush per frame, a write lock (frames must not interleave),
// and an egress byte counter (the bench's MM-egress metric).
type conn struct {
	c   net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	wmu sync.Mutex
	// hdr is the frame scratch buffer, guarded by wmu; reusing it keeps
	// the bulk and control send paths at zero allocations per frame. It
	// is sized for the largest fixed frame (the pong ledger); varlen
	// control frames (PlanAck and kin) borrow its prefix and append the
	// error string as a second write.
	hdr [connScratchLen]byte

	// Decode scratch for the zero-alloc control subset: recv returns
	// pointers into these, valid until the next recv. A conn has one
	// reader (the read loop that owns it), so there is no aliasing.
	// rbuf is the header/body read buffer — a conn field rather than a
	// stack array because a stack array passed to io.ReadFull escapes
	// and would cost an allocation per frame.
	rbuf       [connScratchLen]byte
	rHello     Hello
	rPing      Ping
	rPong      Pong
	rStrobe    Strobe
	rStrobeAck StrobeAck
	rAck       FragAck
	rManifest  Manifest // Hashes/CRCs grown once, reused across frames
	rHave      Have     // Bits grown once
	rNeed      NeedMask // Bits grown once

	// Persistent gob codec. Type descriptors compile once per link, not
	// once per message: a fresh gob.NewEncoder/NewDecoder pair per frame
	// costs a reflect-driven type compilation each time, which profiles
	// as the dominant control-plane cost once a launch pushes one plan
	// per NM across hundreds of NMs. The encoder state lives under wmu
	// (Encode mutates it); the decoder is owned by the conn's single
	// reader. The byte stream stays framed — each Encode's output is
	// drained into one length-prefixed 'G' frame, and the receiver feeds
	// payloads to its decoder in arrival order, so the pair see one
	// continuous gob stream.
	enc    *gob.Encoder
	encBuf bytes.Buffer
	dec    *gob.Decoder
	decBuf bytes.Buffer

	sent       atomic.Int64 // bytes written, frames included
	sentFrames atomic.Int64 // frames written (the control-egress metric)
}

// connProfile sizes a connection's buffering. The bulk profile is tuned
// for throughput on a handful of links (deep bufio, 1MB socket buffers
// so an early fragment write lands in the kernel in one shot instead of
// blocking on tcp_wmem autotuning). The lite profile is tuned for
// density: with hundreds of NMs in one process the per-conn bufio pair
// dominates the per-NM heap (2×64KB on each side of every link), so
// lite conns carry shallow buffers and leave the socket buffers to the
// kernel — the right trade for control-sized frames, which is all a
// steady-state registered NM exchanges.
type connProfile struct {
	bufBytes  int // bufio reader/writer size, each direction
	sockBytes int // TCP send/receive buffer; 0 keeps the kernel default
}

var (
	bulkProfile = connProfile{bufBytes: 64 << 10, sockBytes: 1 << 20}
	liteProfile = connProfile{bufBytes: 8 << 10}
)

// profileFor picks the profile a config's Lite flag selects.
func profileFor(lite bool) connProfile {
	if lite {
		return liteProfile
	}
	return bulkProfile
}

func newConn(c net.Conn) *conn { return newConnProf(c, bulkProfile) }

func newConnProf(c net.Conn, prof connProfile) *conn {
	if tc, ok := c.(*net.TCPConn); ok && prof.sockBytes > 0 {
		tc.SetWriteBuffer(prof.sockBytes)
		tc.SetReadBuffer(prof.sockBytes)
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, prof.bufBytes), w: bufio.NewWriterSize(c, prof.bufBytes)}
}

// send serializes one message. Fragments, fragment acks, and the hot
// control messages (heartbeats, strobes, plan confirmations, peer-down
// reports) are routed to fixed-layout typed frames; only the cold
// remainder (registration, submissions, topology plans, launches,
// reports) is gob inside a 'G' frame, encoded on the conn's persistent
// gob stream so type descriptors cross each link exactly once.
func (c *conn) send(m Message) error {
	switch {
	case m.Frag != nil:
		return c.sendFrag(m.Frag)
	case m.FragAck != nil:
		return c.sendAck(m.FragAck)
	case m.Ping != nil:
		return c.sendPing(m.Ping)
	case m.Pong != nil:
		return c.sendPong(m.Pong)
	case m.Strobe != nil:
		return c.sendStrobe(m.Strobe)
	case m.StrobeAck != nil:
		return c.sendStrobeAck(m.StrobeAck)
	case m.PlanAck != nil:
		return c.sendPlanAck(m.PlanAck)
	case m.PeerDown != nil:
		return c.sendPeerDown(m.PeerDown)
	case m.Manifest != nil:
		return c.sendManifest(m.Manifest)
	case m.Have != nil:
		return c.sendHave(m.Have)
	case m.NeedMask != nil:
		return c.sendNeedMask(m.NeedMask)
	}
	c.wmu.Lock()
	if c.enc == nil {
		c.enc = gob.NewEncoder(&c.encBuf)
	}
	c.encBuf.Reset()
	if err := c.enc.Encode(&m); err != nil {
		c.wmu.Unlock()
		return err
	}
	var hdr [1 + wire.GobLen]byte
	hdr[0] = wire.Gob
	binary.BigEndian.PutUint32(hdr[1:], uint32(c.encBuf.Len()))
	err := c.writeFrame(hdr[:], c.encBuf.Bytes())
	c.wmu.Unlock()
	return err
}

// sendFrag writes one fragment frame: the header is built on the stack
// and the payload is written straight from the caller's buffer — no
// per-destination encoding, no copies. Safe for concurrent use with
// other senders on the same conn.
func (c *conn) sendFrag(f *Frag) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	hdr := c.hdr[:1+wire.FragLen]
	hdr[0] = wire.Frag
	binary.BigEndian.PutUint32(hdr[1:], uint32(f.Job))
	binary.BigEndian.PutUint32(hdr[5:], uint32(f.Index))
	hdr[9] = 0
	if f.Last {
		hdr[9] = 1
	}
	binary.BigEndian.PutUint32(hdr[10:], f.CRC)
	binary.BigEndian.PutUint32(hdr[1+wire.FragLenOff:], uint32(len(f.Data)))
	hdr[18] = byte(f.Stripe)
	return c.writeFrame(hdr, f.Data)
}

// sendAck writes one fixed-size ack frame.
func (c *conn) sendAck(a *FragAck) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	hdr := c.hdr[:1+wire.AckLen]
	hdr[0] = wire.Ack
	binary.BigEndian.PutUint32(hdr[1:], uint32(a.Job))
	binary.BigEndian.PutUint32(hdr[5:], uint32(a.Index))
	binary.BigEndian.PutUint32(hdr[9:], uint32(a.Node))
	binary.BigEndian.PutUint32(hdr[13:], uint32(a.Epoch))
	hdr[17] = 0
	if a.OK {
		hdr[17] = 1
	}
	hdr[18] = byte(a.Stripe)
	return c.writeFrame(hdr, nil)
}

// sendPing writes one fixed-size ping frame (zero allocations).
func (c *conn) sendPing(p *Ping) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	hdr := c.hdr[:1+wire.PingLen]
	hdr[0] = wire.Ping
	binary.BigEndian.PutUint64(hdr[1:], uint64(p.Seq))
	binary.BigEndian.PutUint32(hdr[9:], uint32(p.Epoch))
	return c.writeFrame(hdr, nil)
}

// sendPong writes one fixed-size pong-ledger frame (zero allocations).
func (c *conn) sendPong(p *Pong) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	hdr := c.hdr[:1+wire.PongLen]
	hdr[0] = wire.Pong
	binary.BigEndian.PutUint64(hdr[1:], uint64(p.Seq))
	binary.BigEndian.PutUint32(hdr[9:], uint32(p.Node))
	binary.BigEndian.PutUint32(hdr[13:], uint32(p.Epoch))
	binary.BigEndian.PutUint64(hdr[17:], uint64(p.MinSeq))
	binary.BigEndian.PutUint64(hdr[25:], p.Absent)
	return c.writeFrame(hdr, nil)
}

// sendStrobe writes one fixed-size strobe frame (zero allocations).
func (c *conn) sendStrobe(s *Strobe) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	hdr := c.hdr[:1+wire.StrobeLen]
	hdr[0] = wire.Strobe
	binary.BigEndian.PutUint64(hdr[1:], uint64(s.Seq))
	binary.BigEndian.PutUint32(hdr[9:], uint32(s.Row))
	binary.BigEndian.PutUint32(hdr[13:], uint32(s.Epoch))
	return c.writeFrame(hdr, nil)
}

// sendStrobeAck writes one fixed-size strobe-ack frame (zero
// allocations).
func (c *conn) sendStrobeAck(a *StrobeAck) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	hdr := c.hdr[:1+wire.StrobeAckLen]
	hdr[0] = wire.StrobeAck
	binary.BigEndian.PutUint64(hdr[1:], uint64(a.Seq))
	binary.BigEndian.PutUint32(hdr[9:], uint32(a.Node))
	binary.BigEndian.PutUint32(hdr[13:], uint32(a.Epoch))
	return c.writeFrame(hdr, nil)
}

// ctlErr clips a control-frame error string to the wire bound.
func ctlErr(s string) string {
	if len(s) > maxCtlErr {
		return s[:maxCtlErr]
	}
	return s
}

// sendPlanAck writes a typed plan-confirmation frame: fixed part plus
// the (usually empty) error string.
func (c *conn) sendPlanAck(a *PlanAck) error {
	e := ctlErr(a.Err)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	hdr := c.hdr[:1+wire.PlanAckLen]
	hdr[0] = wire.PlanAck
	binary.BigEndian.PutUint32(hdr[1:], uint32(a.Job))
	binary.BigEndian.PutUint32(hdr[5:], uint32(a.Node))
	binary.BigEndian.PutUint32(hdr[9:], uint32(a.Epoch))
	binary.BigEndian.PutUint32(hdr[13:], uint32(a.Received))
	hdr[17] = byte(a.Stripe)
	binary.BigEndian.PutUint16(hdr[18:], uint16(len(e)))
	return c.writeFrameString(hdr, e)
}

// sendPeerDown writes a typed peer-down report frame.
func (c *conn) sendPeerDown(d *PeerDown) error {
	e := ctlErr(d.Err)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	hdr := c.hdr[:1+wire.PeerDownLen]
	hdr[0] = wire.PeerDown
	binary.BigEndian.PutUint32(hdr[1:], uint32(d.Job))
	binary.BigEndian.PutUint32(hdr[5:], uint32(d.Node))
	binary.BigEndian.PutUint32(hdr[9:], uint32(d.From))
	binary.BigEndian.PutUint16(hdr[13:], uint16(len(e)))
	return c.writeFrameString(hdr, e)
}

// tailPool recycles the scratch buffers for variable-length typed-frame
// tails (manifest chunk records, HAVE/need bitmap words) on both the
// encode and decode paths. The scratch used to be a grown-once buffer
// owned by each conn, which sizes the fleet's tail memory by the number
// of connections — O(cluster) with hundreds of NMs in one process. A
// tail is only live while one frame is being built or decoded, so the
// pool's working set is the number of conns concurrently inside a
// varlen send/recv: O(fanout), not O(cluster).
var tailPool sync.Pool

// grabTail returns pooled tail scratch with at least n usable bytes.
// Release with putTail once the frame is written or decoded.
func grabTail(n int) *[]byte {
	if v := tailPool.Get(); v != nil {
		p := v.(*[]byte)
		if cap(*p) >= n {
			*p = (*p)[:n]
			return p
		}
	}
	b := make([]byte, n)
	return &b
}

func putTail(p *[]byte) { tailPool.Put(p) }

// sendHello writes the shared-listener routing frame; it must be the
// first frame on a connection dialed through a PeerHub address.
func (c *conn) sendHello(node int) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	hdr := c.hdr[:1+wire.HelloLen]
	hdr[0] = wire.Hello
	binary.BigEndian.PutUint32(hdr[1:], uint32(node))
	return c.writeFrame(hdr, nil)
}

// sendManifest writes a typed manifest frame: fixed part in the conn
// scratch, per-chunk hash records in pooled tail scratch (zero
// steady-state allocations).
func (c *conn) sendManifest(m *Manifest) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	hdr := c.hdr[:1+wire.ManifestLen]
	hdr[0] = wire.Manifest
	binary.BigEndian.PutUint32(hdr[1:], uint32(m.Job))
	binary.BigEndian.PutUint32(hdr[5:], uint32(m.Epoch))
	binary.BigEndian.PutUint32(hdr[9:], uint32(m.ChunkBytes))
	binary.BigEndian.PutUint32(hdr[13:], m.ImageCRC)
	binary.BigEndian.PutUint64(hdr[17:], uint64(m.TotalBytes))
	binary.BigEndian.PutUint32(hdr[1+wire.ManifestCountOff:], uint32(len(m.Hashes)))
	hdr[29] = byte(m.Stripe)
	tp := grabTail(len(m.Hashes) * wire.ManifestRecLen)
	tail := *tp
	for i, h := range m.Hashes {
		binary.BigEndian.PutUint64(tail[i*wire.ManifestRecLen:], h)
		binary.BigEndian.PutUint32(tail[i*wire.ManifestRecLen+8:], m.CRCs[i])
	}
	err := c.writeFrame(hdr, tail)
	putTail(tp)
	return err
}

// sendHave writes a typed aggregated cache-ledger frame (zero
// steady-state allocations).
func (c *conn) sendHave(h *Have) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	hdr := c.hdr[:1+wire.HaveLen]
	hdr[0] = wire.Have
	binary.BigEndian.PutUint32(hdr[1:], uint32(h.Job))
	binary.BigEndian.PutUint32(hdr[5:], uint32(h.Node))
	binary.BigEndian.PutUint32(hdr[9:], uint32(h.Epoch))
	binary.BigEndian.PutUint16(hdr[1+wire.HaveCountOff:], uint16(len(h.Bits)))
	hdr[15] = byte(h.Stripe)
	tp := grabTail(len(h.Bits) * 8)
	tail := *tp
	for i, w := range h.Bits {
		binary.BigEndian.PutUint64(tail[i*8:], w)
	}
	err := c.writeFrame(hdr, tail)
	putTail(tp)
	return err
}

// sendNeedMask writes a typed stream-announcement frame (zero
// steady-state allocations).
func (c *conn) sendNeedMask(n *NeedMask) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	hdr := c.hdr[:1+wire.NeedLen]
	hdr[0] = wire.Need
	binary.BigEndian.PutUint32(hdr[1:], uint32(n.Job))
	binary.BigEndian.PutUint32(hdr[5:], uint32(n.Epoch))
	binary.BigEndian.PutUint16(hdr[1+wire.NeedCountOff:], uint16(len(n.Bits)))
	hdr[11] = byte(n.Stripe)
	tp := grabTail(len(n.Bits) * 8)
	tail := *tp
	for i, w := range n.Bits {
		binary.BigEndian.PutUint64(tail[i*8:], w)
	}
	err := c.writeFrame(hdr, tail)
	putTail(tp)
	return err
}

// writeFrame writes header+payload and flushes. Caller holds wmu.
func (c *conn) writeFrame(hdr, payload []byte) error {
	if _, err := c.w.Write(hdr); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := c.w.Write(payload); err != nil {
			return err
		}
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	c.sent.Add(int64(len(hdr) + len(payload)))
	c.sentFrames.Add(1)
	return nil
}

// writeFrameString is writeFrame with a string tail (control-frame
// error strings), avoiding a []byte conversion allocation. Caller
// holds wmu.
func (c *conn) writeFrameString(hdr []byte, tail string) error {
	if _, err := c.w.Write(hdr); err != nil {
		return err
	}
	if len(tail) > 0 {
		if _, err := c.w.WriteString(tail); err != nil {
			return err
		}
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	c.sent.Add(int64(len(hdr) + len(tail)))
	c.sentFrames.Add(1)
	return nil
}

// recv blocks for the next message. A received Frag's Data is a pooled
// buffer: the consumer must call releaseFragBuf(f.Data) when done.
func (c *conn) recv() (Message, error) {
	if _, err := io.ReadFull(c.r, c.rbuf[:1]); err != nil {
		return Message{}, err
	}
	ft := c.rbuf[0]
	switch ft {
	case wire.Gob:
		lb := c.rbuf[:wire.GobLen]
		if _, err := io.ReadFull(c.r, lb); err != nil {
			return Message{}, err
		}
		n := int(binary.BigEndian.Uint32(lb))
		if n > maxFrame {
			return Message{}, fmt.Errorf("livenet: oversized control frame (%d bytes)", n)
		}
		if c.dec == nil {
			c.dec = gob.NewDecoder(&c.decBuf)
		}
		// Feed the payload onto the conn's continuous gob stream;
		// bytes.Buffer's ReadFrom keeps the copy allocation-free once
		// the buffer has grown to the largest control message.
		if _, err := io.CopyN(&c.decBuf, c.r, int64(n)); err != nil {
			return Message{}, err
		}
		var m Message
		err := c.dec.Decode(&m)
		return m, err
	case wire.Frag:
		hb := c.rbuf[:wire.FragLen]
		if _, err := io.ReadFull(c.r, hb); err != nil {
			return Message{}, err
		}
		n := int(binary.BigEndian.Uint32(hb[wire.FragLenOff:]))
		if n > maxFrame {
			return Message{}, fmt.Errorf("livenet: oversized fragment frame (%d bytes)", n)
		}
		f := &Frag{
			Job:    int(binary.BigEndian.Uint32(hb[0:])),
			Index:  int(binary.BigEndian.Uint32(hb[4:])),
			Last:   hb[8] == 1,
			CRC:    binary.BigEndian.Uint32(hb[9:]),
			Stripe: int(hb[17]),
			Data:   grabFragBuf(n),
		}
		if _, err := io.ReadFull(c.r, f.Data); err != nil {
			releaseFragBuf(f.Data)
			return Message{}, err
		}
		return Message{Frag: f}, nil
	case wire.Ack:
		hb := c.rbuf[:wire.AckLen]
		if _, err := io.ReadFull(c.r, hb); err != nil {
			return Message{}, err
		}
		c.rAck = FragAck{
			Job:    int(binary.BigEndian.Uint32(hb[0:])),
			Index:  int(binary.BigEndian.Uint32(hb[4:])),
			Node:   int(binary.BigEndian.Uint32(hb[8:])),
			Epoch:  int(binary.BigEndian.Uint32(hb[12:])),
			OK:     hb[16] == 1,
			Stripe: int(hb[17]),
		}
		return Message{FragAck: &c.rAck}, nil
	case wire.Ping:
		hb := c.rbuf[:wire.PingLen]
		if _, err := io.ReadFull(c.r, hb); err != nil {
			return Message{}, err
		}
		c.rPing = Ping{
			Seq:   int64(binary.BigEndian.Uint64(hb[0:])),
			Epoch: int(binary.BigEndian.Uint32(hb[8:])),
		}
		return Message{Ping: &c.rPing}, nil
	case wire.Pong:
		hb := c.rbuf[:wire.PongLen]
		if _, err := io.ReadFull(c.r, hb); err != nil {
			return Message{}, err
		}
		c.rPong = Pong{
			Seq:    int64(binary.BigEndian.Uint64(hb[0:])),
			Node:   int(binary.BigEndian.Uint32(hb[8:])),
			Epoch:  int(binary.BigEndian.Uint32(hb[12:])),
			MinSeq: int64(binary.BigEndian.Uint64(hb[16:])),
			Absent: binary.BigEndian.Uint64(hb[24:]),
		}
		return Message{Pong: &c.rPong}, nil
	case wire.Strobe:
		hb := c.rbuf[:wire.StrobeLen]
		if _, err := io.ReadFull(c.r, hb); err != nil {
			return Message{}, err
		}
		c.rStrobe = Strobe{
			Seq:   int64(binary.BigEndian.Uint64(hb[0:])),
			Row:   int(binary.BigEndian.Uint32(hb[8:])),
			Epoch: int(binary.BigEndian.Uint32(hb[12:])),
		}
		return Message{Strobe: &c.rStrobe}, nil
	case wire.StrobeAck:
		hb := c.rbuf[:wire.StrobeAckLen]
		if _, err := io.ReadFull(c.r, hb); err != nil {
			return Message{}, err
		}
		c.rStrobeAck = StrobeAck{
			Seq:   int64(binary.BigEndian.Uint64(hb[0:])),
			Node:  int(binary.BigEndian.Uint32(hb[8:])),
			Epoch: int(binary.BigEndian.Uint32(hb[12:])),
		}
		return Message{StrobeAck: &c.rStrobeAck}, nil
	case wire.PlanAck:
		hb := c.rbuf[:wire.PlanAckLen]
		if _, err := io.ReadFull(c.r, hb); err != nil {
			return Message{}, err
		}
		e, err := c.readCtlErr(int(binary.BigEndian.Uint16(hb[17:])))
		if err != nil {
			return Message{}, err
		}
		return Message{PlanAck: &PlanAck{
			Job:      int(binary.BigEndian.Uint32(hb[0:])),
			Node:     int(binary.BigEndian.Uint32(hb[4:])),
			Epoch:    int(binary.BigEndian.Uint32(hb[8:])),
			Received: int(binary.BigEndian.Uint32(hb[12:])),
			Stripe:   int(hb[16]),
			Err:      e,
		}}, nil
	case wire.PeerDown:
		hb := c.rbuf[:wire.PeerDownLen]
		if _, err := io.ReadFull(c.r, hb); err != nil {
			return Message{}, err
		}
		e, err := c.readCtlErr(int(binary.BigEndian.Uint16(hb[12:])))
		if err != nil {
			return Message{}, err
		}
		return Message{PeerDown: &PeerDown{
			Job:  int(binary.BigEndian.Uint32(hb[0:])),
			Node: int(binary.BigEndian.Uint32(hb[4:])),
			From: int(binary.BigEndian.Uint32(hb[8:])),
			Err:  e,
		}}, nil
	case wire.Manifest:
		hb := c.rbuf[:wire.ManifestLen]
		if _, err := io.ReadFull(c.r, hb); err != nil {
			return Message{}, err
		}
		nch := int(binary.BigEndian.Uint32(hb[wire.ManifestCountOff:]))
		if nch*wire.ManifestRecLen > maxFrame {
			return Message{}, fmt.Errorf("livenet: oversized manifest (%d chunks)", nch)
		}
		tp, err := c.readTail(nch * wire.ManifestRecLen)
		if err != nil {
			return Message{}, err
		}
		tail := *tp
		m := &c.rManifest
		m.Job = int(binary.BigEndian.Uint32(hb[0:]))
		m.Epoch = int(binary.BigEndian.Uint32(hb[4:]))
		m.ChunkBytes = int(binary.BigEndian.Uint32(hb[8:]))
		m.ImageCRC = binary.BigEndian.Uint32(hb[12:])
		m.TotalBytes = int64(binary.BigEndian.Uint64(hb[16:]))
		m.Stripe = int(hb[28])
		if cap(m.Hashes) < nch {
			m.Hashes = make([]uint64, nch)
			m.CRCs = make([]uint32, nch)
		}
		m.Hashes, m.CRCs = m.Hashes[:nch], m.CRCs[:nch]
		for i := 0; i < nch; i++ {
			m.Hashes[i] = binary.BigEndian.Uint64(tail[i*wire.ManifestRecLen:])
			m.CRCs[i] = binary.BigEndian.Uint32(tail[i*wire.ManifestRecLen+8:])
		}
		putTail(tp)
		return Message{Manifest: m}, nil
	case wire.Have:
		hb := c.rbuf[:wire.HaveLen]
		if _, err := io.ReadFull(c.r, hb); err != nil {
			return Message{}, err
		}
		nw := int(binary.BigEndian.Uint16(hb[wire.HaveCountOff:]))
		tp, err := c.readTail(nw * 8)
		if err != nil {
			return Message{}, err
		}
		tail := *tp
		h := &c.rHave
		h.Job = int(binary.BigEndian.Uint32(hb[0:]))
		h.Node = int(binary.BigEndian.Uint32(hb[4:]))
		h.Epoch = int(binary.BigEndian.Uint32(hb[8:]))
		h.Stripe = int(hb[14])
		if cap(h.Bits) < nw {
			h.Bits = make([]uint64, nw)
		}
		h.Bits = h.Bits[:nw]
		for i := 0; i < nw; i++ {
			h.Bits[i] = binary.BigEndian.Uint64(tail[i*8:])
		}
		putTail(tp)
		return Message{Have: h}, nil
	case wire.Need:
		hb := c.rbuf[:wire.NeedLen]
		if _, err := io.ReadFull(c.r, hb); err != nil {
			return Message{}, err
		}
		nw := int(binary.BigEndian.Uint16(hb[wire.NeedCountOff:]))
		tp, err := c.readTail(nw * 8)
		if err != nil {
			return Message{}, err
		}
		tail := *tp
		n := &c.rNeed
		n.Job = int(binary.BigEndian.Uint32(hb[0:]))
		n.Epoch = int(binary.BigEndian.Uint32(hb[4:]))
		n.Stripe = int(hb[10])
		if cap(n.Bits) < nw {
			n.Bits = make([]uint64, nw)
		}
		n.Bits = n.Bits[:nw]
		for i := 0; i < nw; i++ {
			n.Bits[i] = binary.BigEndian.Uint64(tail[i*8:])
		}
		putTail(tp)
		return Message{NeedMask: n}, nil
	case wire.Hello:
		hb := c.rbuf[:wire.HelloLen]
		if _, err := io.ReadFull(c.r, hb); err != nil {
			return Message{}, err
		}
		c.rHello = Hello{Node: int(binary.BigEndian.Uint32(hb[0:]))}
		return Message{Hello: &c.rHello}, nil
	default:
		return Message{}, fmt.Errorf("livenet: unknown frame type %#x", ft)
	}
}

// readTail reads a variable frame tail into pooled scratch. The caller
// decodes out of it and returns it with putTail before recv returns —
// the decoded message lives in the conn's typed scratch structs, never
// in the tail itself.
func (c *conn) readTail(n int) (*[]byte, error) {
	tp := grabTail(n)
	if _, err := io.ReadFull(c.r, *tp); err != nil {
		putTail(tp)
		return nil, err
	}
	return tp, nil
}

// readCtlErr reads a control frame's trailing error string. Zero-length
// (the overwhelmingly common case) costs nothing.
func (c *conn) readCtlErr(n int) (string, error) {
	if n == 0 {
		return "", nil
	}
	if n > maxCtlErr {
		return "", fmt.Errorf("livenet: oversized control error (%d bytes)", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(c.r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// sentBytes reports how many bytes have been written on this conn.
func (c *conn) sentBytes() int64 { return c.sent.Load() }

func (c *conn) close() { c.c.Close() }

// Dialer opens the transport connection to an address. MM/NM configs
// accept one so tests can interpose deterministic faults (see
// internal/livenet/faultconn); nil means plain TCP.
type Dialer func(addr string) (net.Conn, error)

// Connection-level fault absorption: transient dial failures (a peer
// restarting its listener, a SYN lost under load) are retried with
// capped exponential backoff before they are escalated into node
// failures.
const (
	dialAttempts    = 3
	dialBaseBackoff = 50 * time.Millisecond
	dialMaxBackoff  = 400 * time.Millisecond
	dialTimeout     = 5 * time.Second
)

// backoffSeq is the splitmix64 state feeding backoff jitter; jitter
// decorrelates retry storms when many nodes redial at once. The state
// steps atomically (many goroutines may back off concurrently), with
// the shared internal/rng step constants.
var backoffSeq atomic.Uint64

// backoffDelay returns the capped exponential backoff for a retry
// attempt (0-based), jittered to 50-100% of the nominal value.
func backoffDelay(attempt int) time.Duration {
	d := dialBaseBackoff << uint(attempt)
	if d > dialMaxBackoff {
		d = dialMaxBackoff
	}
	z := rng.Mix64(backoffSeq.Add(rng.GoldenGamma))
	return d/2 + time.Duration(z%uint64(d/2+1))
}

// splitPeerAddr splits a hub-routed peer address "host:port#node" into
// the dialable endpoint and the target NM. A plain address comes back
// with hub=false and is dialed as-is.
func splitPeerAddr(addr string) (endpoint string, node int, hub bool) {
	i := strings.LastIndexByte(addr, '#')
	if i < 0 {
		return addr, 0, false
	}
	n, err := strconv.Atoi(addr[i+1:])
	if err != nil {
		return addr, 0, false
	}
	return addr[:i], n, true
}

// dialProf connects to addr through dialer (nil = TCP with a bounded
// timeout), retrying transient failures with jittered backoff, and runs
// the established connection through wrap (nil = identity) and into a
// conn of the given profile. A peer address carrying a "#node" suffix
// routes through a shared PeerHub listener: the suffix is stripped
// before dialing and a hello frame naming the target NM opens the
// connection.
func dialProf(dialer Dialer, wrap func(net.Conn) net.Conn, addr string, prof connProfile) (*conn, error) {
	endpoint, node, hub := splitPeerAddr(addr)
	if dialer == nil {
		dialer = func(a string) (net.Conn, error) { return net.DialTimeout("tcp", a, dialTimeout) }
	}
	var err error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoffDelay(attempt - 1))
		}
		var nc net.Conn
		if nc, err = dialer(endpoint); err == nil {
			if wrap != nil {
				nc = wrap(nc)
			}
			c := newConnProf(nc, prof)
			if hub {
				// The hello must land before any other frame so the hub
				// can route the connection; a failure here is a transient
				// connection fault like any dial error — retry.
				if err = c.sendHello(node); err != nil {
					c.close()
					continue
				}
			}
			return c, nil
		}
	}
	return nil, fmt.Errorf("livenet: dial %s (%d attempts): %w", addr, dialAttempts, err)
}
