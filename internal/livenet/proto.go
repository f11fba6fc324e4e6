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
// One codec: each message type has one walk method, which lays its
// fields out in wire order, fixed-width and big-endian, and which send
// runs to encode and recv to decode. Per-fragment and per-period frames
// pack each field to its width — fragments and their acks ('F', 'A'),
// pings and pong ledgers ('P', 'Q'), strobes and their acks ('S', 'T'),
// peer-down reports ('D') and HAVE ledgers ('H') — and encode and decode
// without allocating; a fragment is encoded once for every child link.
// The topology-sized messages (registration, submissions and reports,
// manifests — which carry the stripe tree below their recipient —
// launches, terminations, aborts, status) are body frames: a u32 length,
// 8-byte integers, a u32 count before every string and list. A frame
// decodes on its own, whatever came before it on the link.
package livenet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
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
	// distributes (contents are generated deterministically and checked
	// against the manifest's chunk hashes at each NM).
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

// walk is also the journal's JobAdmitted payload (encodeSpec). The
// patch goes in chunk order (decoding, chunks is the count's worth of
// slots), so one spec always encodes to one byte string.
func (s *JobSpec) walk(w *walker) {
	w.str(&s.Name, 4, maxFrame)
	num(w, &s.BinaryBytes, 8)
	num(w, &s.Nodes, 8)
	num(w, &s.PEsPerNode, 8)
	s.Program.walk(w)
	num(w, &s.ImageSeed, 8)
	chunks := make([]int, 0, len(s.ImagePatch))
	for chunk := range s.ImagePatch {
		chunks = append(chunks, chunk)
	}
	sort.Ints(chunks)
	fit(w, &chunks, w.count(len(chunks), 4))
	for _, chunk := range chunks {
		seed := s.ImagePatch[chunk]
		num(w, &chunk, 8)
		num(w, &seed, 8)
		if w.dec {
			if s.ImagePatch == nil {
				s.ImagePatch = make(map[int]uint64)
			}
			s.ImagePatch[chunk] = seed
		}
	}
	w.str(&s.User, 4, maxFrame)
	num(w, &s.Weight, 8)
	w.ints(&s.Place)
	walkVec(w, &s.Demand)
}

// walkVec walks a resource vector.
func walkVec(w *walker, v *place.Vec) {
	num(w, &v.CPU, 8)
	num(w, &v.Mem, 8)
	num(w, &v.Net, 8)
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

func (p *ProgramSpec) walk(w *walker) {
	w.str(&p.Kind, 4, maxFrame)
	num(w, &p.Duration, 8)
	num(w, &p.Grid, 8)
	num(w, &p.Iters, 8)
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

func (r *Report) walk(w *walker) {
	num(w, &r.JobID, 8)
	num(w, &r.Send, 8)
	num(w, &r.Execute, 8)
	num(w, &r.Total, 8)
	num(w, &r.SendBytes, 8)
	w.ints(&r.Failed)
	num(w, &r.Replans, 8)
	num(w, &r.Recovery, 8)
	w.ints(&r.StripeReplans)
	num(w, &r.Chunks, 8)
	num(w, &r.ChunksSent, 8)
	num(w, &r.BytesSaved, 8)
	num(w, &r.Queued, 8)
	num(w, &r.Row, 8)
	num(w, &r.WindowPeak, 8)
	w.str(&r.Timeline, 4, maxFrame)
	num(w, &r.Retries, 8)
}

// Message is the wire envelope. Exactly one pointer field is set, and it
// travels as one frame of the type its row in walk names.
//
// recv decodes the per-period control frames and the delta round's
// frames — Hello, FragAck, Ping, Pong, Strobe, StrobeAck, Manifest and
// Have — into conn-owned scratch, so the pointers it returns for those
// are only valid until the next recv on the same conn: consume or copy
// them before looping (Manifest has clone() for retention). Every other
// message arrives in a value of its own.
type Message struct {
	Register  *Register
	Hello     *Hello
	Submit    *Submit
	Frag      *Frag
	FragAck   *FragAck
	Manifest  *Manifest
	Have      *Have
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

// walk walks the message's frame: the type byte, then the walk of the
// field the frame carries. Encoding, that is the field that is set;
// decoding, the one the frame's type byte names, pointed first at its
// scratch in c or — for a message the reader keeps — a fresh value.
// Hot frames come first.
func (m *Message) walk(w *walker, c *conn) {
	switch {
	case at(w, wire.Frag, &m.Frag, nil):
		m.Frag.walk(w)
	case at(w, wire.Ack, &m.FragAck, &c.rAck):
		m.FragAck.walk(w)
	case at(w, wire.Ping, &m.Ping, &c.rPing):
		m.Ping.walk(w)
	case at(w, wire.Pong, &m.Pong, &c.rPong):
		m.Pong.walk(w)
	case at(w, wire.Strobe, &m.Strobe, &c.rStrobe):
		m.Strobe.walk(w)
	case at(w, wire.StrobeAck, &m.StrobeAck, &c.rStrobeAck):
		m.StrobeAck.walk(w)
	case at(w, wire.Manifest, &m.Manifest, &c.rManifest):
		m.Manifest.walk(w)
	case at(w, wire.Have, &m.Have, &c.rHave):
		m.Have.walk(w)
	case at(w, wire.PeerDown, &m.PeerDown, nil):
		m.PeerDown.walk(w)
	case at(w, wire.Hello, &m.Hello, &c.rHello):
		m.Hello.walk(w)
	case at(w, wire.Register, &m.Register, nil):
		m.Register.walk(w)
	case at(w, wire.Submit, &m.Submit, nil):
		m.Submit.walk(w)
	case at(w, wire.RejoinAck, &m.RejoinAck, nil):
		m.RejoinAck.walk(w)
	case at(w, wire.ChildDead, &m.ChildDead, nil):
		m.ChildDead.walk(w)
	case at(w, wire.Abort, &m.Abort, nil):
		m.Abort.walk(w)
	case at(w, wire.Launch, &m.Launch, nil):
		m.Launch.walk(w)
	case at(w, wire.Term, &m.Term, nil):
		m.Term.walk(w)
	case at(w, wire.Done, &m.Done, nil):
		m.Done.walk(w)
	case at(w, wire.StatusReq, &m.StatusQ, nil):
		m.StatusQ.walk(w)
	case at(w, wire.StatusRep, &m.StatusR, nil):
		m.StatusR.walk(w)
	case at(w, wire.CtlPlan, &m.CtlPlan, nil):
		m.CtlPlan.walk(w)
	default:
		w.fail(errors.New("no message"))
	}
}

// Register announces an NM to the MM. Addr is the NM's routed peer
// address on its PeerHub, where parent NMs in the forwarding tree dial
// relay connections.
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

func (r *Register) walk(w *walker) {
	num(w, &r.Node, 8)
	num(w, &r.CPUs, 8)
	w.str(&r.Addr, 4, maxFrame)
	walkVec(w, &r.Cap)
	w.flag(&r.Rejoin)
}

// Submit asks the MM to run a job.
type Submit struct {
	Spec JobSpec
}

func (s *Submit) walk(w *walker) { s.Spec.walk(w) }

// RejoinAck answers a Register that asked to rejoin. Probation is how
// many heartbeat-clean periods the node must survive before it is
// eligible for placement again (0 when no detector is running); Err
// non-empty means the MM refused the rejoin and the NM must not proceed.
type RejoinAck struct {
	Probation int
	Err       string
}

func (a *RejoinAck) walk(w *walker) {
	num(w, &a.Probation, 8)
	w.str(&a.Err, 4, maxFrame)
}

// Hello routes an inbound relay connection on a PeerHub, which may serve
// many NMs: the dialer's first frame names which NM the connection is
// for. It is always the first bytes on a relay link and never appears
// once the link is established.
type Hello struct {
	Node int
}

func (h *Hello) walk(w *walker) { num(w, &h.Node, 4) }

// Frag carries one fragment of a job's binary image. Its walk is the
// frame header, which send encodes into the header room of the Frag's
// pooled frame, in front of Data, so the whole frame leaves in one write.
// recv and newFrag return a Frag whose Data is the payload of such a
// frame; release it once consumed. Stripe names the spanning tree the
// fragment travels down (0 on a single-tree plan): with a striped plan,
// chunk i belongs to stripe i%k and each stripe's tree relays only its
// own chunks.
type Frag struct {
	Job    int
	Index  int
	Last   bool
	Data   []byte
	Stripe int
	// frame is the pooled frame: fragRoom bytes of header room, then the
	// payload Data views. A Frag built around a buffer of its own has
	// none until its first send copies Data into one (see frameOf).
	frame *[]byte
}

// newFrag returns a Frag whose n-byte Data is the payload of a pooled
// frame.
func newFrag(n int) *Frag {
	p := grabFrame(n)
	return &Frag{Data: (*p)[fragRoom:], frame: p}
}

// release hands the Frag's frame back to the pool. The Frag must not be
// used afterwards.
func (f *Frag) release() {
	releaseFrame(f.frame)
	f.frame, f.Data = nil, nil
}

// frameOf returns the frame send writes: the Frag's own when Data is its
// payload; otherwise — a Frag built around a buffer of its own, as tests
// and fuzz seeds build them — Data copied behind the header room of a
// frame the Frag keeps for its next send, so every fragment leaves by the
// one path. Callers hold the conn's wmu, and a Frag is sent by one
// goroutine at a time.
func (f *Frag) frameOf() []byte {
	n := fragRoom + len(f.Data)
	if p := f.frame; p != nil && len(*p) == n && (len(f.Data) == 0 || &(*p)[fragRoom] == &f.Data[0]) {
		return *p
	}
	if f.frame == nil || cap(*f.frame) < n {
		f.frame = grabFrame(len(f.Data))
	}
	*f.frame = (*f.frame)[:n]
	copy((*f.frame)[fragRoom:], f.Data)
	return *f.frame
}

func (f *Frag) walk(w *walker) {
	num(w, &f.Job, 4)
	num(w, &f.Index, 4)
	w.flag(&f.Last)
	n := len(f.Data)
	num(w, &n, 4)
	num(w, &f.Stripe, 1)
}

// FragAck credits the sender's flow-control window. With the forwarding
// tree the ack is cumulative and aggregated: Node's ack for Index means
// every node in Node's subtree has verified and written fragments
// 0..Index. OK=false reports a content rejection; Node then names
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

func (a *FragAck) walk(w *walker) {
	num(w, &a.Job, 4)
	num(w, &a.Index, 4)
	num(w, &a.Node, 4)
	num(w, &a.Epoch, 4)
	w.flag(&a.OK)
	num(w, &a.Stripe, 1)
}

// ChildDead prunes a dead leaf out of one stripe's tree without a
// replan round: the MM, having convicted the node, tells its tree
// parent to stop waiting on the subtree's acks. Only valid when the
// dead node is a leaf in this stripe (interior deaths need a new epoch's
// manifest to re-home the orphaned subtree).
type ChildDead struct {
	Job    int
	Stripe int
	Node   int
}

func (d *ChildDead) walk(w *walker) {
	num(w, &d.Job, 8)
	num(w, &d.Stripe, 8)
	num(w, &d.Node, 8)
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

func (d *PeerDown) walk(w *walker) {
	num(w, &d.Job, 4)
	num(w, &d.Node, 4)
	num(w, &d.From, 4)
	w.str(&d.Err, 2, maxCtlErr)
}

// Abort tells NMs to drop a failed job's transfer state; the relay links
// are cached and stay up for the next job.
type Abort struct {
	Job    int
	Reason string
}

func (a *Abort) walk(w *walker) {
	num(w, &a.Job, 8)
	w.str(&a.Reason, 4, maxFrame)
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

func (l *Launch) walk(w *walker) {
	num(w, &l.Job, 8)
	l.Program.walk(w)
	w.ints(&l.Ranks)
	num(w, &l.Row, 8)
	w.flag(&l.Gang)
}

// Term reports that all of a job's processes on a node have exited.
type Term struct {
	Job  int
	Node int
}

func (t *Term) walk(w *walker) {
	num(w, &t.Job, 8)
	num(w, &t.Node, 8)
}

// Done returns the completion report to the client.
type Done struct {
	Report Report
	Err    string
}

func (d *Done) walk(w *walker) {
	d.Report.walk(w)
	w.str(&d.Err, 4, maxFrame)
}

// StatusReq asks the MM for a cluster snapshot; StatusRep answers it.
type StatusReq struct{}

func (*StatusReq) walk(*walker) {}

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

func (s *StatusRep) walk(w *walker) {
	w.ints(&s.Nodes)
	num(w, &s.Jobs, 8)
	num(w, &s.Queued, 8)
	num(w, &s.Launched, 8)
	num(w, &s.Completed, 8)
	num(w, &s.Strobes, 8)
	w.flag(&s.Gang)
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

func (p *Ping) walk(w *walker) {
	num(w, &p.Seq, 8)
	num(w, &p.Epoch, 4)
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

func (p *Pong) walk(w *walker) {
	num(w, &p.Seq, 8)
	num(w, &p.Node, 4)
	num(w, &p.Epoch, 4)
	num(w, &p.MinSeq, 8)
	num(w, &p.Absent, 8)
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

func (s *Strobe) walk(w *walker) {
	num(w, &s.Seq, 8)
	num(w, &s.Row, 4)
	num(w, &s.Epoch, 4)
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

func (a *StrobeAck) walk(w *walker) {
	num(w, &a.Seq, 8)
	num(w, &a.Node, 4)
	num(w, &a.Epoch, 4)
}

// CtlPlan lays the cluster-wide control tree (the heartbeat/strobe fast
// path) the way a Manifest lays a stripe's: the MM sends one to each of
// its control children only when membership changes — registration,
// unregistration, conviction — and every recipient installs its children
// from Tree, its own control subtree in the manifest's encoding, and
// relays each child its own slice. Epoch is the control tree's
// generation. The per-period traffic the plan enables is all fixed-part
// frames.
type CtlPlan struct {
	Epoch int
	Tree  []TreeNode
}

func (p *CtlPlan) walk(w *walker) {
	num(w, &p.Epoch, 8)
	walkTree(w, &p.Tree)
}

// Manifest opens a transfer epoch on one stripe and lays the stripe's
// tree as it goes. Hashes[i] addresses chunk i (fixed ChunkBytes each
// except a short tail): every NM checks each chunk it takes, from the
// wire or its content-addressed cache, against it. Tree is the
// recipient's own subtree in the stripe: every descendant in pre-order,
// so the first entry is the recipient's first child, its Size entries
// are that child's subtree, and the next child follows them. The
// recipient relays to each child a Manifest whose Tree is the child's
// own slice, so the one multicast both installs the stripe's relay
// topology and announces the content, and a leaf's Tree is empty.
// Stripe is the spanning tree the copy multicasts down, Stripes how many
// the job has (chunk i rides stripe i%Stripes), Epoch that stripe's tree
// generation — a node installs the relay of a newer epoch, re-runs a
// current one and drops an older one. recv returns a Manifest in
// conn-owned scratch — clone() it to retain past the next recv — and
// decodes a leaf's with zero steady-state allocations.
type Manifest struct {
	Job        int
	Epoch      int
	Stripe     int
	Stripes    int
	ChunkBytes int
	TotalBytes int64
	Hashes     []uint64
	Tree       []TreeNode
}

// TreeNode is one descendant in a Manifest's or a CtlPlan's Tree: a
// node, the peer address its parent relays to, and the size of its own
// subtree (itself included).
type TreeNode struct {
	Node int
	Addr string
	Size int
}

func (m *Manifest) walk(w *walker) {
	num(w, &m.Job, 8)
	num(w, &m.Epoch, 8)
	num(w, &m.Stripe, 8)
	num(w, &m.Stripes, 8)
	num(w, &m.ChunkBytes, 8)
	num(w, &m.TotalBytes, 8)
	fit(w, &m.Hashes, w.count(len(m.Hashes), 4))
	for i := range m.Hashes {
		num(w, &m.Hashes[i], 8)
	}
	walkTree(w, &m.Tree)
}

// walkTree walks a subtree in pre-order, the one tree layout on the wire:
// a count, then each node's ID, relay address and subtree size.
func walkTree(w *walker, tree *[]TreeNode) {
	fit(w, tree, w.count(len(*tree), 4))
	for i := range *tree {
		t := &(*tree)[i]
		num(w, &t.Node, 8)
		w.str(&t.Addr, 4, maxFrame)
		num(w, &t.Size, 8)
	}
}

// clone deep-copies a Manifest's content map out of conn scratch; the
// tree, which the receiver installs as it reads it, is not kept.
func (m *Manifest) clone() *Manifest {
	c := *m
	c.Hashes = append([]uint64(nil), m.Hashes...)
	c.Tree = nil
	return &c
}

// splitTree cuts a manifest's or a control plan's Tree into the
// recipient's direct children:
// kids[c][0] is child c and kids[c][1:] its own subtree. An entry whose
// Size overruns the list ends it — a malformed tree relays only what it
// accounts for.
func splitTree(tree []TreeNode) (kids [][]TreeNode) {
	for i := 0; i < len(tree); {
		size := tree[i].Size
		if size < 1 || size > len(tree)-i {
			break
		}
		kids = append(kids, tree[i:i+size])
		i += size
	}
	return kids
}

// Have is the aggregated cache ledger answering a Manifest: bit i set
// means every node in the sender's subtree already holds chunk i
// (verified against the manifest's hash and spliced into its
// spool). Parents AND their own bitmap with each child's before sending
// up — the dual of the pong ledger's absence fold — so the MM learns
// the set-union of missing chunks across the cluster in one O(depth)
// round with O(fanout) egress, and every interior node learns exactly
// which chunks each child subtree still needs. A bit is set only once
// its chunk is in place and a fold waits for the image seal, so the
// ledger's stripe-local prefix is the subtree's cumulative credit on the
// stripe — on a warm launch the Have is the only answer. The bitmap
// always covers the full chunk index space; Stripe names the tree (and
// epoch ledger) the fold ran up, since each stripe's tree aggregates its
// own HAVE round.
type Have struct {
	Job    int
	Node   int
	Epoch  int
	Stripe int
	Bits   []uint64
}

func (h *Have) walk(w *walker) {
	num(w, &h.Job, 4)
	num(w, &h.Node, 4)
	num(w, &h.Epoch, 4)
	n := w.count(len(h.Bits), 2)
	num(w, &h.Stripe, 1)
	fit(w, &h.Bits, n)
	for i := range h.Bits {
		num(w, &h.Bits[i], 8)
	}
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
	// maxFrame bounds a frame tail (corruption guard).
	maxFrame = 64 << 20
	// maxCtlErr bounds the error string carried in a fixed-part control
	// frame; longer errors are truncated (they are diagnostics, not
	// data).
	maxCtlErr = 1 << 12
	// connScratchLen sizes the conn's frame scratch buffers: a type byte
	// plus the longest fixed part.
	connScratchLen = 1 + wire.MaxFixed
)

// fragRoom is the header room in front of every pooled fragment payload:
// the frame's type byte and fixed part, which send encodes there.
const fragRoom = 1 + wire.FragLen

// framePool recycles fragment frames across the send, relay, and receive
// paths (and serves the chunk-sized scratch of the manifest and spool
// passes), so the steady-state transfer allocates nothing per fragment.
var framePool sync.Pool

// grabFrame returns a frame of fragRoom+n bytes, reusing a pooled one
// when its capacity suffices: (*p)[fragRoom:] is the n-byte payload.
func grabFrame(n int) *[]byte {
	if v := framePool.Get(); v != nil {
		p := v.(*[]byte)
		if cap(*p) >= fragRoom+n {
			*p = (*p)[:fragRoom+n]
			return p
		}
	}
	b := make([]byte, fragRoom+n)
	return &b
}

// releaseFrame returns a frame to the pool (nil is a no-op). Callers must
// not touch it afterwards.
func releaseFrame(p *[]byte) {
	if p != nil {
		framePool.Put(p)
	}
}

// tailPool recycles the scratch of frames longer than a conn's own
// (HAVE bitmap words, error strings, body frames) on both the encode and decode paths. The scratch used to be a
// grown-once buffer owned by each conn, which sizes the fleet's tail
// memory by the number of connections — O(cluster) with hundreds of NMs
// in one process. A tail is only live while one frame is being built or
// decoded, so the pool's working set is the number of conns
// concurrently inside such a send/recv: O(fanout), not O(cluster).
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

// conn wraps a TCP connection with the frame codec: buffered writes with
// explicit flush per frame, a write lock (frames must not interleave),
// and an egress byte counter (the bench's MM-egress metric).
type conn struct {
	c   net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	wmu sync.Mutex
	// hdr is the send scratch, guarded by wmu. A frame is encoded into it
	// while it fits — every fixed-part frame does, so fragments and the
	// per-period control frames go out without allocating — and into
	// pooled tail scratch past that.
	hdr [connScratchLen]byte
	// rbuf is what recv reads a type byte and fixed part into — a conn
	// field rather than a stack array because a stack array passed to
	// io.ReadFull escapes and would cost an allocation per frame — and
	// the r* fields are where it decodes the messages it lends (see
	// Message). A conn has one reader (the read loop that owns it), so
	// there is no aliasing.
	rbuf       [connScratchLen]byte
	rHello     Hello
	rPing      Ping
	rPong      Pong
	rStrobe    Strobe
	rStrobeAck StrobeAck
	rAck       FragAck
	rManifest  Manifest // Hashes/Tree grown once, reused across frames
	rHave      Have     // Bits grown once

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

// walker is one pass of a message's walk over one frame. Encoding, it
// appends the fields to out; decoding, it consumes them from in and
// keeps the first error, after which every field reads as zero.
type walker struct {
	dec  bool
	t    byte    // decoding: the frame's type byte
	in   []byte  // decoding: the bytes not yet consumed
	out  []byte  // encoding: the frame so far
	pool *[]byte // encoding: the tail scratch out lives in, once spilled
	err  error
}

// errShort is a frame that ends before its walk does.
var errShort = errors.New("frame ends early")

func (w *walker) fail(err error) {
	if w.err == nil {
		w.err = err
	}
	w.in = nil
}

// next returns the n bytes the walk is at: the next n input bytes when
// decoding (nil past the end), n more output bytes to fill when
// encoding.
func (w *walker) next(n int) []byte {
	if w.dec {
		if len(w.in) < n {
			w.fail(errShort)
			return nil
		}
		b := w.in[:n]
		w.in = w.in[n:]
		return b
	}
	if need := len(w.out) + n; need > cap(w.out) {
		p := grabTail(2 * need)
		*p = append((*p)[:0], w.out...)
		if w.pool != nil {
			putTail(w.pool)
		}
		w.pool, w.out = p, *p
	}
	w.out = w.out[:len(w.out)+n]
	return w.out[len(w.out)-n:]
}

// done is a decode's verdict: its first error, or one for bytes the
// walk left over.
func (w *walker) done() error {
	if w.err == nil && len(w.in) > 0 {
		return fmt.Errorf("%d bytes past the end of the message", len(w.in))
	}
	return w.err
}

// integer is every field type num walks.
type integer interface {
	~int | ~int64 | ~uint64
}

// num walks an integer field as width big-endian bytes.
func num[T integer](w *walker, v *T, width int) {
	b := w.next(width)
	if b == nil {
		return
	}
	if w.dec {
		var u uint64
		for _, x := range b {
			u = u<<8 | uint64(x)
		}
		*v = T(u)
		return
	}
	u := uint64(*v)
	for i := width - 1; i >= 0; i-- {
		b[i] = byte(u)
		u >>= 8
	}
}

// flag walks a bool as one byte, 1 for true.
func (w *walker) flag(v *bool) {
	var b int
	if *v {
		b = 1
	}
	if num(w, &b, 1); w.dec {
		*v = b == 1
	}
}

// count walks the width-byte count that opens a list or string: n when
// encoding, the decoded count — which must not exceed the bytes left,
// as every element takes at least one — when decoding.
func (w *walker) count(n, width int) int {
	num(w, &n, width)
	if w.dec && n > len(w.in) {
		w.fail(errShort)
		return 0
	}
	return n
}

// fit sizes a list being decoded to its walked count, reusing its
// backing array when that is big enough; an encoded list is left as is.
func fit[T any](w *walker, s *[]T, n int) {
	switch {
	case !w.dec:
	case cap(*s) >= n:
		*s = (*s)[:n]
	default:
		*s = make([]T, n)
	}
}

// str walks a string as a width-byte count and its bytes, clipped to max
// when encoding and refused past it when decoding.
func (w *walker) str(s *string, width, max int) {
	v := *s
	if len(v) > max {
		v = v[:max]
	}
	if n := w.count(len(v), width); n > max {
		w.fail(fmt.Errorf("%d-byte string over the %d-byte bound", n, max))
	} else if b := w.next(n); w.dec {
		*s = string(b)
	} else {
		copy(b, v)
	}
}

// ints walks a list of ints as a u32 count and 8-byte elements.
func (w *walker) ints(s *[]int) {
	fit(w, s, w.count(len(*s), 4))
	for i := range *s {
		num(w, &(*s)[i], 8)
	}
}

// at reports whether f is the field the walk is on, and walks its frame
// header. Encoding, that is the field that is set, and at writes the
// type byte t; decoding, the field of frame type t, which at points at
// scratch — or at a fresh value when scratch is nil. A body frame's
// length follows: reserved here and filled in by send once the body is
// written, skipped when decoding (recv sized the tail by it).
func at[T any](w *walker, t byte, f **T, scratch *T) bool {
	switch {
	case !w.dec && *f == nil, w.dec && w.t != t:
		return false
	case !w.dec:
		w.next(1)[0] = t
	case scratch == nil:
		*f = new(T)
	default:
		*f = scratch
	}
	if wire.Shapes[t].Body() {
		w.next(wire.BodyLen)
	}
	return true
}

// send writes one message as one frame, in one write on the connection,
// and returns its length. The walk is encoded into the conn's scratch —
// or, for a fragment, into the header room of its frame (frameOf), so
// header and payload are one contiguous slice and a relay forwards the
// frame it received without re-encoding the payload. Every send ends in
// a flush, so bufio is empty when the next begins: a frame at least as
// long as its buffer goes to the connection straight from the frame, a
// shorter one is copied into it and flushed. Safe for concurrent use
// with other senders on the conn.
func (c *conn) send(m Message) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	w := walker{out: c.hdr[:0]}
	var frame []byte
	if m.Frag != nil {
		frame = m.Frag.frameOf()
		w.out = frame[:0:fragRoom]
	}
	m.walk(&w, c)
	if w.pool != nil {
		defer putTail(w.pool)
	}
	if w.err != nil {
		return 0, w.err
	}
	if wire.Shapes[w.out[0]].Body() {
		binary.BigEndian.PutUint32(w.out[1:], uint32(len(w.out)-1-wire.BodyLen))
	}
	if frame == nil {
		frame = w.out
	}
	if _, err := c.w.Write(frame); err != nil {
		return 0, err
	}
	if err := c.w.Flush(); err != nil {
		return 0, err
	}
	c.sent.Add(int64(len(frame)))
	c.sentFrames.Add(1)
	return len(frame), nil
}

// recv blocks for the next frame and decodes it: the type byte picks the
// frame's row in wire's table, which sizes its fixed part and tail, and
// the walk of the message it names. A received Frag's Data is the payload
// of a pooled frame holding the received header in its room — the bytes
// that came off the link: the consumer must release it when done.
func (c *conn) recv() (Message, error) {
	in := c.rbuf[:1]
	if _, err := io.ReadFull(c.r, in); err != nil {
		return Message{}, err
	}
	t := in[0]
	sh := wire.Shapes[t]
	if sh.Fixed == 0 {
		return Message{}, fmt.Errorf("livenet: unknown frame type %#x", t)
	}
	in = c.rbuf[1 : 1+sh.Fixed]
	_, err := io.ReadFull(c.r, in)
	n := sh.Tail(in)
	// A fragment's payload is read into a pooled frame of its own, any
	// other tail behind the fixed part in pooled scratch the walk decodes
	// out of.
	var frame, tp *[]byte
	switch {
	case err != nil:
	case n > maxFrame:
		err = fmt.Errorf("%d-byte tail over the %d-byte bound", n, maxFrame)
	case t == wire.Frag:
		frame = grabFrame(n)
		copy(*frame, c.rbuf[:fragRoom])
		_, err = io.ReadFull(c.r, (*frame)[fragRoom:])
	case n > 0:
		tp = grabTail(sh.Fixed + n)
		copy(*tp, in)
		in = *tp
		_, err = io.ReadFull(c.r, in[sh.Fixed:])
	}
	var m Message
	if err == nil {
		w := walker{dec: true, t: t, in: in}
		m.walk(&w, c)
		err = w.done()
	}
	if tp != nil {
		putTail(tp)
	}
	if err != nil {
		releaseFrame(frame)
		return Message{}, fmt.Errorf("livenet: %s frame: %w", sh.Name, err)
	}
	if m.Frag != nil {
		m.Frag.frame, m.Frag.Data = frame, (*frame)[fragRoom:]
	}
	return m, nil
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

// noPeer is dialProf's peer argument for a dial that is not a relay link
// (to an MM, or a client's).
const noPeer = -1

// dialProf connects to addr through dialer (nil = TCP with a bounded
// timeout), retrying transient failures with jittered backoff, and runs
// the established connection through wrap (nil = identity) and into a
// conn of the given profile. A relay dial names the node it is for
// (peer, else noPeer): it dials the endpoint of the node's peer address
// — which carries a "#node" suffix on a hub NMs share — and opens the
// connection with the hello the hub routes it by, before wrap
// interposes (see writeHello).
func dialProf(dialer Dialer, wrap func(net.Conn) net.Conn, addr string, peer int, prof connProfile) (*conn, error) {
	endpoint, _, _ := strings.Cut(addr, "#")
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
			if peer != noPeer {
				// The hello must land before any other frame so the hub
				// can route the connection; a failure here is a transient
				// connection fault like any dial error — retry.
				if err = writeHello(nc, peer); err != nil {
					nc.Close()
					continue
				}
			}
			if wrap != nil {
				nc = wrap(nc)
			}
			return newConnProf(nc, prof), nil
		}
	}
	return nil, fmt.Errorf("livenet: dial %s (%d attempts): %w", addr, dialAttempts, err)
}
