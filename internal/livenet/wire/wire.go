// Package wire is the livenet frame table: the type byte every frame
// starts with, the length of the fixed part that follows it, and the
// shape of the variable tail (if any) after that. It holds declarations
// only. The codecs live in livenet's proto.go; the fault injector's
// frame scanner (faultconn, which must not import livenet) walks the
// same table, so the two cannot disagree about where a frame ends.
//
// All integers on the wire are big-endian.
package wire

// Frame type bytes. 'G' is the cold path (rare, topology-sized
// messages: Register, Submit, Plan, CtlPlan, Launch, ...);
// everything that runs per fragment or per period has a fixed-layout
// frame of its own.
const (
	Gob       = 'G' // gob(Message)
	Frag      = 'F' // one binary fragment: header + payload
	Ack       = 'A' // fragment ack
	Ping      = 'P' // heartbeat / isolation probe
	Pong      = 'Q' // pong ledger
	Strobe    = 'S' // gang context switch
	StrobeAck = 'T'
	PlanAck   = 'K' // fixed part + error string
	PeerDown  = 'D' // fixed part + error string
	Manifest  = 'M' // fixed part + 12-byte (hash u64 | crc u32) chunk records
	Have      = 'H' // fixed part + 8-byte bitmap words
	Need      = 'N' // fixed part + 8-byte bitmap words
	Hello     = 'L' // shared-listener routing hello
)

// Fixed-part lengths (the type byte not counted) and the offsets, within
// the fixed part, of the fields that size a tail.
const (
	// GobLen is len u32; the gob payload follows.
	GobLen = 4
	// FragLen is job u32 | index u32 | flags u8 | crc u32 | len u32 |
	// stripe u8; the payload follows. The stripe byte rides at the end so
	// the payload length keeps its offset.
	FragLen    = 18
	FragLenOff = 13
	// AckLen is job u32 | index u32 | node u32 | epoch u32 | ok u8 |
	// stripe u8.
	AckLen = 18
	// PingLen is seq u64 | epoch u32.
	PingLen = 12
	// PongLen is seq u64 | node u32 | epoch u32 | minseq u64 | absent u64.
	PongLen = 32
	// StrobeLen is seq u64 | row u32 | epoch u32.
	StrobeLen = 16
	// StrobeAckLen is seq u64 | node u32 | epoch u32.
	StrobeAckLen = 16
	// PlanAckLen is job u32 | node u32 | epoch u32 | received u32 |
	// stripe u8 | elen u16. In the two frames that end in an error
	// string, its length is the last two bytes of the fixed part.
	PlanAckLen = 19
	// PeerDownLen is job u32 | node u32 | from u32 | elen u16.
	PeerDownLen = 14
	// ManifestLen is job u32 | epoch u32 | chunkbytes u32 | imagecrc u32 |
	// totalbytes u64 | nchunks u32 | stripe u8.
	ManifestLen      = 29
	ManifestCountOff = 24
	ManifestRecLen   = 12
	// HaveLen is job u32 | node u32 | epoch u32 | nwords u16 | stripe u8.
	HaveLen      = 15
	HaveCountOff = 12
	// NeedLen is job u32 | epoch u32 | nwords u16 | stripe u8.
	NeedLen      = 11
	NeedCountOff = 8
	// HelloLen is node u32. A shared peer listener reads exactly
	// 1+HelloLen raw bytes off a fresh connection to learn which NM it is
	// for, so the frame must stay fixed-size.
	HelloLen = 4

	// MaxFixed is the longest fixed part (the pong ledger): it sizes the
	// scratch buffers that hold one.
	MaxFixed = PongLen
)

// Shape is what follows a frame's type byte: Fixed bytes, then — when
// CountWidth is nonzero — a tail of count×Unit bytes, where count is the
// unsigned integer CountWidth bytes wide at offset CountOff of the fixed
// part.
type Shape struct {
	Fixed      int
	CountOff   int
	CountWidth int
	Unit       int
}

// Shapes is the frame table, indexed by type byte. A zero Fixed marks a
// byte that starts no frame.
var Shapes = [256]Shape{
	Gob:       {GobLen, 0, 4, 1},
	Frag:      {FragLen, FragLenOff, 4, 1},
	Ack:       {Fixed: AckLen},
	Ping:      {Fixed: PingLen},
	Pong:      {Fixed: PongLen},
	Strobe:    {Fixed: StrobeLen},
	StrobeAck: {Fixed: StrobeAckLen},
	PlanAck:   {PlanAckLen, PlanAckLen - 2, 2, 1},
	PeerDown:  {PeerDownLen, PeerDownLen - 2, 2, 1},
	Manifest:  {ManifestLen, ManifestCountOff, 4, ManifestRecLen},
	Have:      {HaveLen, HaveCountOff, 2, 8},
	Need:      {NeedLen, NeedCountOff, 2, 8},
	Hello:     {Fixed: HelloLen},
}
