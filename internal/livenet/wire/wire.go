// Package wire is the livenet frame table: the type byte every frame
// starts with, the length of the fixed part that follows it, and the
// shape of the variable tail (if any) after that. It holds the table and
// no codec. The one codec lives in livenet's proto.go — a walk per
// message, driven by this table on both the send and the receive side;
// the fault injector's frame scanner (faultconn, which must not import
// livenet) walks the same table, so the two cannot disagree about where
// a frame ends.
//
// All integers on the wire are big-endian.
package wire

// Frame type bytes. Everything that runs per fragment or per period has
// a fixed part laid out field by field; the topology-sized messages
// (registration, submission and report, manifests, launch, ...) are a
// body frame each: a u32 body length, then the body.
const (
	Frag     = 'F' // one binary fragment: header + payload
	Ack      = 'A' // fragment ack
	Ping     = 'P' // control round (heartbeat, gang switch) / isolation probe
	Pong     = 'Q' // pong ledger
	PeerDown = 'D' // fixed part + error string
	Have     = 'H' // fixed part + 8-byte bitmap words
	Hello    = 'L' // peer-hub routing hello

	// Body frames.
	Register  = 'R'
	Submit    = 'J'
	RejoinAck = 'W'
	Manifest  = 'M'
	Abort     = 'B'
	Launch    = 'E'
	Term      = 'Z'
	Done      = 'O'
	StatusReq = 'I'
	StatusRep = 'U'
	CtlPlan   = 'C'
)

// Fixed-part lengths (the type byte not counted) and the offsets, within
// the fixed part, of the fields that size a tail.
const (
	// FragLen is job u32 | index u32 | flags u8 | len u32 | stripe u8;
	// the payload follows.
	FragLen    = 14
	FragLenOff = 9
	// AckLen is job u32 | index u32 | node u32 | epoch u32 | ok u8 |
	// stripe u8.
	AckLen = 18
	// PingLen is seq u64 | row u32 | epoch u32, row being one more than
	// the gang row the round switches to (0: no switch).
	PingLen = 16
	// PongLen is seq u64 | node u32 | epoch u32 | absent u64.
	PongLen = 24
	// PeerDownLen is job u32 | node u32 | from u32 | elen u16: the error
	// string's length is the last two bytes of the fixed part.
	PeerDownLen = 14
	// HaveLen is job u32 | node u32 | epoch u32 | nwords u16 | stripe u8.
	HaveLen      = 15
	HaveCountOff = 12
	// HelloLen is node u32. A peer hub reads at most 1+HelloLen bytes
	// off a fresh connection to learn which NM it is for, so the frame
	// must stay fixed-size.
	HelloLen = 4
	// BodyLen is the body frames' fixed part, the u32 body length. In a
	// body every integer is 8 bytes, every string and list a u32 count
	// followed by its elements.
	BodyLen = 4

	// MaxFixed is the longest fixed part (the pong ledger): it sizes the
	// scratch buffers that hold one.
	MaxFixed = PongLen
)

// Shape is what follows a frame's type byte: Fixed bytes, then — when
// CountWidth is nonzero — a tail of count×Unit bytes, where count is the
// unsigned integer CountWidth bytes wide at offset CountOff of the fixed
// part. Name names the frame in errors.
type Shape struct {
	Name       string
	Fixed      int
	CountOff   int
	CountWidth int
	Unit       int
}

// Tail returns the tail length a frame's fixed part declares.
func (s Shape) Tail(fixed []byte) int {
	n := 0
	for _, b := range fixed[s.CountOff : s.CountOff+s.CountWidth] {
		n = n<<8 | int(b)
	}
	return n * s.Unit
}

// Body reports whether the frame is a body frame: its fixed part is
// nothing but the length of the tail.
func (s Shape) Body() bool { return s.CountWidth != 0 && s.CountWidth == s.Fixed }

// Shapes is the frame table, indexed by type byte. A zero Fixed marks a
// byte that starts no frame.
var Shapes = [256]Shape{
	Frag:     {"frag", FragLen, FragLenOff, 4, 1},
	Ack:      {Name: "ack", Fixed: AckLen},
	Ping:     {Name: "ping", Fixed: PingLen},
	Pong:     {Name: "pong", Fixed: PongLen},
	PeerDown: {"peer-down", PeerDownLen, PeerDownLen - 2, 2, 1},
	Have:     {"have", HaveLen, HaveCountOff, 2, 8},
	Hello:    {Name: "hello", Fixed: HelloLen},

	Register:  {"register", BodyLen, 0, 4, 1},
	Submit:    {"submit", BodyLen, 0, 4, 1},
	RejoinAck: {"rejoin-ack", BodyLen, 0, 4, 1},
	Manifest:  {"manifest", BodyLen, 0, 4, 1},
	Abort:     {"abort", BodyLen, 0, 4, 1},
	Launch:    {"launch", BodyLen, 0, 4, 1},
	Term:      {"term", BodyLen, 0, 4, 1},
	Done:      {"done", BodyLen, 0, 4, 1},
	StatusReq: {"status-req", BodyLen, 0, 4, 1},
	StatusRep: {"status-rep", BodyLen, 0, 4, 1},
	CtlPlan:   {"ctl-plan", BodyLen, 0, 4, 1},
}
