package livenet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/livenet/faultconn"
	"repro/internal/livenet/wire"
	"repro/internal/place"
)

// everyFrame encodes, with the real codec, one frame of every type a
// conn can emit: each element is one whole frame. The variable tails are
// non-empty and — like every field that can be — stuffed with 'P' bytes,
// so a scanner that ends a frame early meets bytes that look like ping
// frames rather than bytes it would skip as unknown.
func everyFrame(t testing.TB) [][]byte {
	t.Helper()
	const p4 = 0x50505050
	const p8 = 0x5050505050505050
	ps := strings.Repeat("P", 40)
	pv := place.Vec{CPU: p8, Mem: p8, Net: p8}
	prog := ProgramSpec{Kind: ps, Duration: p8, Grid: p8, Iters: p8}
	tree := []TreeNode{{Node: p8, Addr: ps, Size: p8}}
	msgs := []Message{
		{Register: &Register{Node: p8, CPUs: p8, Addr: ps, Cap: pv, Rejoin: true}},
		{Submit: &Submit{Spec: JobSpec{Name: ps, BinaryBytes: p8, Nodes: p8, PEsPerNode: p8, Program: prog,
			ImageSeed: p8, ImagePatch: map[int]uint64{p8: p8}, User: ps, Weight: p8, Place: []int{p8}, Demand: pv}}},
		{RejoinAck: &RejoinAck{Probation: p8, Err: ps}},
		{Manifest: &Manifest{Job: p8, Epoch: p8, Stripe: p8, Stripes: p8, ChunkBytes: p8, TotalBytes: p8,
			Hashes: []uint64{p8, p8, p8}, Tree: tree}},
		{Abort: &Abort{Job: p8, Reason: ps}},
		{Launch: &Launch{Job: p8, Program: prog, PEs: p8, Index: p8, Row: p8, Gang: true}},
		{Term: &Term{Job: p8, Node: p8}},
		{Done: &Done{Report: Report{JobID: p8, Send: p8, Execute: p8, Total: p8, SendBytes: p8, Failed: []int{p8},
			Replans: p8, Recovery: p8, StripeReplans: []int{p8}, Chunks: p8, ChunksSent: p8, BytesSaved: p8,
			Queued: p8, Row: p8, WindowPeak: p8, Retries: p8}, Err: ps}},
		{StatusQ: &StatusReq{}},
		{StatusR: &StatusRep{Nodes: []int{p8}, Jobs: p8, Queued: p8, Launched: p8, Completed: p8, Strobes: p8, Gang: true}},
		{CtlPlan: &CtlPlan{Epoch: p8, Tree: tree}},
		{Frag: &Frag{Job: p4, Index: p4, Last: true, Stripe: 'P', Data: []byte(ps)}},
		{FragAck: &FragAck{Job: p4, Index: p4, Node: p4, Epoch: p4, OK: true, Stripe: 'P'}},
		{Ping: &Ping{Seq: p8, Row: p4, Epoch: p4}},
		{Pong: &Pong{Seq: p8, Node: p4, Epoch: p4, Absent: p8}},
		{PeerDown: &PeerDown{Job: p4, Node: p4, From: p4, Err: ps}},
		{Have: &Have{Job: p4, Node: p4, Epoch: p4, Stripe: 'P', Bits: []uint64{p8, p8}}},
		{Hello: &Hello{Node: p4}},
	}
	return encodeFrames(t, msgs...)
}

// encodeFrames encodes each message with the real codec, one whole frame
// each.
func encodeFrames(t testing.TB, msgs ...Message) [][]byte {
	t.Helper()
	var buf bytes.Buffer
	c := writeConn(&buf)
	var frames [][]byte
	for _, m := range msgs {
		if _, err := c.send(m); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, append([]byte(nil), buf.Bytes()...))
		buf.Reset()
	}
	return frames
}

// TestFrameTableDrift holds the codec (proto.go) and the frame table
// (package wire, which faultconn's scanner walks) to one grammar. One
// frame of every type goes through a faultconn pipe, the stream split in
// two writes at every byte offset. The scanner shows itself only in
// where it places faults, so the plan is otherwise fault-free and
// duplicates every ping: a sentinel ping follows each frame, and what
// comes out must be the bytes sent with exactly the pings doubled — which
// it is only if the scanner found every frame boundary where the codec
// put it.
func TestFrameTableDrift(t *testing.T) {
	frames := everyFrame(t)
	seen := make(map[byte]bool)
	for _, fr := range frames {
		seen[fr[0]] = true
	}
	for b, sh := range wire.Shapes {
		if sh.Fixed != 0 && !seen[byte(b)] {
			t.Errorf("frame type %q is in the table but not in this test", byte(b))
		}
		if sh.Fixed > wire.MaxFixed {
			t.Errorf("frame type %q has a %d-byte fixed part, MaxFixed is %d", byte(b), sh.Fixed, wire.MaxFixed)
		}
	}

	var sentinel bytes.Buffer
	if _, err := (writeConn(&sentinel)).send(Message{Ping: &Ping{Seq: 7, Epoch: 1}}); err != nil {
		t.Fatal(err)
	}
	var stream, want []byte
	plan := faultconn.NewPlan()
	for _, fr := range frames {
		for _, b := range [][]byte{fr, sentinel.Bytes()} {
			stream = append(stream, b...)
			want = append(want, b...)
			if b[0] == wire.Ping {
				want = append(want, b...)
				plan.CtlFaults = append(plan.CtlFaults,
					faultconn.CtlFault{Kind: wire.Ping, Index: len(plan.CtlFaults), Op: "dup"})
			}
		}
	}

	for split := 1; split < len(stream); split++ {
		a, b := net.Pipe()
		fc := faultconn.Wrap(a, plan)
		got := make(chan []byte)
		go func() {
			out, _ := io.ReadAll(b)
			got <- out
		}()
		for _, part := range [][]byte{stream[:split], stream[split:]} {
			if _, err := fc.Write(part); err != nil {
				t.Fatalf("split %d: %v", split, err)
			}
		}
		fc.Close()
		if out := <-got; !bytes.Equal(out, want) {
			at := 0
			for at < len(out) && at < len(want) && out[at] == want[at] {
				at++
			}
			t.Fatalf("split at %d: the scanner lost a frame boundary: %d bytes out, want %d, first difference at %d",
				split, len(out), len(want), at)
		}
		b.Close()
	}

	// And the codec reads back what the table framed.
	c := &conn{r: bufio.NewReader(bytes.NewReader(want))}
	for i := 0; ; i++ {
		m, err := c.recv()
		if err == io.EOF {
			if n := len(frames)*2 + len(plan.CtlFaults); i != n {
				t.Fatalf("decoded %d frames, want %d", i, n)
			}
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m.Frag != nil {
			m.Frag.release()
		}
	}
}

// allocBytes reports how many bytes fn allocated (on all goroutines).
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzConnRecv feeds arbitrary bytes to conn.recv, the decoder every
// socket of the live cluster is read through. It must never panic; what
// it decodes stays inside the codec's bounds (maxFrame, maxCtlErr) and
// so, with slack for the decoder's own state, does what it allocates;
// and a fragment frame whose payload is cut short hands its pooled
// buffer back.
func FuzzConnRecv(f *testing.F) {
	// The manifest carries the one tree on the wire: seed it also as a
	// leaf's (no tree) and as a two-level subtree's.
	frames := append(everyFrame(f), encodeFrames(f,
		Message{Manifest: &Manifest{Job: 1, Stripes: 1, ChunkBytes: 4, TotalBytes: 8, Hashes: []uint64{1, 2}}},
		Message{Manifest: &Manifest{Job: 1, Stripe: 1, Stripes: 2, Tree: []TreeNode{
			{Node: 1, Addr: "a:1", Size: 3}, {Node: 2, Addr: "b:2", Size: 2}, {Node: 3, Addr: "c:3", Size: 1}, {Node: 4, Addr: "d:4", Size: 1}}}},
	)...)
	for _, fr := range frames {
		f.Add(fr)
		f.Add(fr[:len(fr)-1])
		f.Add(fr[:1+wire.Shapes[fr[0]].Fixed/2])
		if sh := wire.Shapes[fr[0]]; sh.CountWidth > 0 {
			huge := append([]byte(nil), fr...)
			for i := 0; i < sh.CountWidth; i++ {
				huge[1+sh.CountOff+i] = 0xff
			}
			f.Add(huge)
		}
	}
	// The subtree's manifest with a count that overruns what follows it —
	// its chunk records', its tree's, its first address's — and with a
	// subtree size that overruns the tree.
	tree := frames[len(frames)-1]
	at := 1 + wire.BodyLen + 6*8 // the chunk count, past six integers
	for _, off := range []int{at, at + 4, at + 4 + 4 + 8} {
		bad := append([]byte(nil), tree...)
		binary.BigEndian.PutUint32(bad[off:], 0xffffffff)
		f.Add(bad)
	}
	bad := append([]byte(nil), tree...)
	binary.BigEndian.PutUint64(bad[at+4+4+8+4+len("a:1"):], 1<<62)
	f.Add(bad)
	// A frame of a retired type, as a peer built from an older commit
	// sends it: 'X' (child-dead) with a 4-byte body length and three
	// integers — whole, cut short, cut inside its length, and with a
	// length that overruns what follows.
	retired := append([]byte{'X', 0, 0, 0, 24}, bytes.Repeat([]byte{'P'}, 24)...)
	f.Add(retired)
	f.Add(retired[:len(retired)-1])
	f.Add(retired[:3])
	f.Add(append([]byte{'X', 0xff, 0xff, 0xff, 0xff}, retired[5:]...))
	// And 'S' (strobe) and 'T' (strobe ack), each a 16-byte fixed part —
	// whole, cut short, and cut in half.
	for _, typ := range []byte{'S', 'T'} {
		old := append([]byte{typ}, bytes.Repeat([]byte{'P'}, 16)...)
		f.Add(old)
		f.Add(old[:len(old)-1])
		f.Add(old[:1+8])
	}
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		recvAll := func() {
			c := &conn{r: bufio.NewReaderSize(bytes.NewReader(data), 16)}
			for {
				m, err := c.recv()
				if err != nil {
					return
				}
				var errLen int
				switch {
				case m.Frag != nil:
					if len(m.Frag.Data) > maxFrame {
						t.Fatalf("decoded a %d-byte fragment", len(m.Frag.Data))
					}
					m.Frag.release()
				case m.Manifest != nil:
					if len(m.Manifest.Hashes) > maxFrame || len(m.Manifest.Tree) > maxFrame {
						t.Fatalf("decoded a manifest of %d chunks, %d tree nodes", len(m.Manifest.Hashes), len(m.Manifest.Tree))
					}
				case m.PeerDown != nil:
					errLen = len(m.PeerDown.Err)
				}
				if errLen > maxCtlErr {
					t.Fatalf("decoded a %d-byte control error", errLen)
				}
			}
		}
		if got := allocBytes(recvAll); got > 2*maxFrame {
			t.Fatalf("recv allocated %d bytes over %d bytes of input", got, len(data))
		}
		// A frag frame cut short inside its payload: recv took a pooled
		// buffer of the declared length, failed, and must have put it
		// back — further passes then reuse it rather than allocate it
		// again. (Not under -race, whose sync.Pool drops puts at random.)
		if raceEnabled || len(data) < 1+wire.FragLen || data[0] != wire.Frag {
			return
		}
		n := int(binary.BigEndian.Uint32(data[1+wire.FragLenOff:]))
		if n < 64<<10 || n > 4<<20 || len(data) >= 1+wire.FragLen+n {
			return
		}
		const passes = 8
		if got := allocBytes(func() {
			for i := 0; i < passes; i++ {
				recvAll()
			}
		}); got > passes*3/4*uint64(n) {
			t.Fatalf("a truncated %d-byte fragment leaks its pooled buffer: %d passes allocated %d bytes", n, passes, got)
		}
	})
}

// goldenFrame is one named frame of TestFrameGolden.
type goldenFrame struct {
	name string
	m    Message
}

// goldenFrames is one of every typed frame with a distinct value in every
// field (1, 2, 3, ...), so a swap of two same-width fields shows in the
// bytes.
func goldenFrames() []goldenFrame {
	return []goldenFrame{
		{"frag", Message{Frag: &Frag{Job: 1, Index: 2, Last: true, Stripe: 4, Data: []byte{5, 6, 7}}}},
		{"ack", Message{FragAck: &FragAck{Job: 1, Index: 2, Node: 3, Epoch: 4, OK: true, Stripe: 5}}},
		{"ping", Message{Ping: &Ping{Seq: 1, Row: 2, Epoch: 3}}},
		{"pong", Message{Pong: &Pong{Seq: 1, Node: 2, Epoch: 3, Absent: 5}}},
		{"peerdown", Message{PeerDown: &PeerDown{Job: 1, Node: 2, From: 3, Err: "four"}}},
		{"have", Message{Have: &Have{Job: 1, Node: 2, Epoch: 3, Stripe: 4, Bits: []uint64{5, 6}}}},
		{"hello", Message{Hello: &Hello{Node: 1}}},
	}
}

// goldenFiles hold the golden bytes of every frame of goldenFrames and
// bodyFrames, each file generated by the codec of its day: the
// fixed-part frames at ab214b3; the body frames when they replaced gob
// (the plan frame left with its message); the control plan once it
// carried the manifest's subtree encoding; the fragment and the
// manifest once the chunk hash became the only content check, and both
// lost their CRCs; the pong and the done report once their unread
// fields (the ledger's min-seq, the report's free-text timeline) left;
// the ping once it carried the gang row (the strobe frames left); and the
// launch once it went down stripe 0's tree, carrying the processes per
// node and its recipient's pre-order index in place of one node's ranks.
// (The tree launch's first layout, which carried the whole survivor
// order, had a file of its own and nothing else in it; it left with
// that layout.)
var goldenFiles = []string{"testdata/frames_ab214b3.golden", "testdata/frames_pr21.golden",
	"testdata/frames_pr25.golden", "testdata/frames_hashonly.golden", "testdata/frames_unreadfields.golden",
	"testdata/frames_pingrow.golden", "testdata/frames_launchindex.golden"}

// checkGolden holds each frame to its golden bytes, byte for byte, and
// every golden frame to a message of goldenFrames or bodyFrames — a frame
// whose message is gone leaves the files with it.
func checkGolden(t *testing.T, frames []goldenFrame) {
	t.Helper()
	golden := make(map[string]string)
	for _, file := range goldenFiles {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			name, hx, _ := strings.Cut(line, " ")
			golden[name] = hx
		}
	}
	var buf bytes.Buffer
	c := writeConn(&buf)
	for _, f := range frames {
		buf.Reset()
		if _, err := c.send(f.m); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != golden[f.name] {
			t.Errorf("%s frame\n got %s\nwant %s", f.name, got, golden[f.name])
		}
	}
	for _, f := range append(goldenFrames(), bodyFrames()...) {
		delete(golden, f.name)
	}
	for name := range golden {
		t.Errorf("golden frame %q has no message in this test", name)
	}
}

// TestFrameGolden holds the fixed-part frames to their golden bytes.
func TestFrameGolden(t *testing.T) { checkGolden(t, goldenFrames()) }

// bodyFrames is one of every body frame with a distinct nonzero value in
// every field — a few negative, since a body integer is signed — so a
// swap of two fields, or one dropped, shows in the bytes.
func bodyFrames() []goldenFrame {
	prog := ProgramSpec{Kind: "spin", Duration: 8 * time.Millisecond, Grid: 9, Iters: 10}
	return []goldenFrame{
		{"register", Message{Register: &Register{Node: 1, CPUs: 2, Addr: "three", Cap: place.Vec{CPU: 4, Mem: 5, Net: 6}, Rejoin: true}}},
		{"submit", Message{Submit: &Submit{Spec: JobSpec{Name: "one", BinaryBytes: 2, Nodes: 3, PEsPerNode: 4, Program: prog,
			ImageSeed: 11, ImagePatch: map[int]uint64{14: 13, 12: 15}, User: "sixteen", Weight: -17, Place: []int{18, 19},
			Demand: place.Vec{CPU: 20, Mem: 21, Net: 22}}}}},
		{"rejoinack", Message{RejoinAck: &RejoinAck{Probation: -1, Err: "two"}}},
		{"manifest", Message{Manifest: &Manifest{Job: 1, Epoch: 2, Stripe: 3, Stripes: 4, ChunkBytes: 5, TotalBytes: 7,
			Hashes: []uint64{8, 9}, Tree: []TreeNode{{Node: 12, Addr: "thirteen", Size: 2}, {Node: 14, Addr: "fifteen", Size: -16}}}}},
		{"abort", Message{Abort: &Abort{Job: 1, Reason: "two"}}},
		{"launch", Message{Launch: &Launch{Job: 1, Program: prog, PEs: 2, Index: 3, Row: 4, Gang: true}}},
		{"term", Message{Term: &Term{Job: 1, Node: 2}}},
		{"done", Message{Done: &Done{Report: Report{JobID: 1, Send: 2 * time.Millisecond, Execute: 3 * time.Second, Total: 4 * time.Minute,
			SendBytes: 5, Failed: []int{6, 7}, Replans: 8, Recovery: 9 * time.Microsecond, StripeReplans: []int{10, 11},
			Chunks: 12, ChunksSent: 13, BytesSaved: 14, Queued: 15 * time.Nanosecond, Row: 16, WindowPeak: 17,
			Retries: -19}, Err: "twenty"}}},
		{"statusreq", Message{StatusQ: &StatusReq{}}},
		{"statusrep", Message{StatusR: &StatusRep{Nodes: []int{1, 2}, Jobs: 3, Queued: 4, Launched: 5, Completed: 6, Strobes: 7, Gang: true}}},
		{"ctlplan", Message{CtlPlan: &CtlPlan{Epoch: 1, Tree: []TreeNode{{Node: 2, Addr: "three", Size: 2}, {Node: 4, Addr: "five", Size: -6}}}}},
	}
}

// zeroField returns the path of the first zero field (or list element)
// in v, or "" when every one is set. An empty struct has nothing to set.
func zeroField(v reflect.Value, path string) string {
	if v.Kind() == reflect.Struct && v.NumField() == 0 {
		return ""
	}
	if v.IsZero() {
		return path
	}
	switch v.Kind() {
	case reflect.Pointer:
		return zeroField(v.Elem(), path)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				continue // not on the wire
			}
			if z := zeroField(v.Field(i), path+"."+v.Type().Field(i).Name); z != "" {
				return z
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if z := zeroField(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); z != "" {
				return z
			}
		}
	}
	return ""
}

// TestMessageRoundTrip: every message type, with every field set to a
// distinct nonzero value, decodes to exactly what was sent — nested
// plan trees and control subtrees, the image patch, the report's
// durations and negative integers included. Each sample is first checked
// to leave no field zero, so a field added to a message but not to its
// walk fails here.
func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := &conn{c: writerConn{w: &buf}, r: bufio.NewReader(&buf)}
	for _, f := range append(goldenFrames(), bodyFrames()...) {
		m := reflect.ValueOf(f.m)
		for i := 0; i < m.NumField(); i++ {
			if !m.Field(i).IsNil() {
				if z := zeroField(m.Field(i), f.name); z != "" {
					t.Errorf("the %s sample leaves %s zero", f.name, z)
				}
			}
		}
		if _, err := c.send(f.m); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		got, err := c.recv()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		var frame *[]byte
		if got.Frag != nil {
			// The frame is the codec's buffer, not a field on the wire.
			frame, got.Frag.frame, f.m.Frag.frame = got.Frag.frame, nil, nil
		}
		if !reflect.DeepEqual(got, f.m) {
			t.Errorf("%s did not survive the codec", f.name)
		}
		releaseFrame(frame)
		if buf.Len() != 0 {
			t.Errorf("%s: recv left %d bytes of the frame unread", f.name, buf.Len())
		}
	}
}

// TestBodyFrameGolden holds the body frames to their golden bytes.
func TestBodyFrameGolden(t *testing.T) { checkGolden(t, bodyFrames()) }

// TestRecvErrorsNameFrame: a frame recv refuses — cut short, a body
// longer than its walk, an error string past its bound — fails with an
// error that names the frame's type.
func TestRecvErrorsNameFrame(t *testing.T) {
	recv := func(b []byte) error {
		_, err := (&conn{r: bufio.NewReader(bytes.NewReader(b))}).recv()
		return err
	}
	for _, fr := range everyFrame(t) {
		sh := wire.Shapes[fr[0]]
		bad := map[string][]byte{"cut short": fr[:len(fr)-1]}
		if sh.Body() {
			long := append(append([]byte(nil), fr...), 0)
			binary.BigEndian.PutUint32(long[1:], binary.BigEndian.Uint32(long[1:])+1)
			bad["one byte long"] = long
		}
		for what, b := range bad {
			if err := recv(b); err == nil || !strings.Contains(err.Error(), sh.Name+" frame") {
				t.Errorf("%s %s frame: error %v does not name it", what, sh.Name, err)
			}
		}
	}
	down := make([]byte, 1+wire.PeerDownLen+maxCtlErr+1)
	down[0] = wire.PeerDown
	binary.BigEndian.PutUint16(down[1+wire.PeerDownLen-2:], maxCtlErr+1)
	if err := recv(down); err == nil || !strings.Contains(err.Error(), "peer-down frame") {
		t.Errorf("oversized peer-down error string: error %v does not name the frame", err)
	}
	if err := recv([]byte{'G', 0, 0, 0, 0}); err == nil || !strings.Contains(err.Error(), "unknown frame type 0x47") {
		t.Errorf("a gob frame from an older peer: error %v, want an unknown frame type", err)
	}
}
