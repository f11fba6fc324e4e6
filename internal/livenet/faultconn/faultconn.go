// Package faultconn injects deterministic faults into livenet
// connections for chaos testing. A Conn wraps a net.Conn and applies a
// Plan — a fixed schedule of faults keyed to frame ordinals observed
// on the wire — so a failure scenario is fully reproducible from its
// seed: hard close after the k-th received fragment or before the k-th
// sent frame of any type, an inbound partition, per-write delay,
// duplicated and corrupted frag frames, process-level pause and kill
// across a node's conns, and injected dial failures.
//
// The wrapper is frame-aware: it walks livenet's frame table (package
// wire: one type byte, a fixed part, and for some types a tail whose
// element count the fixed part carries) as a streaming state machine
// over both directions, so triggers land on exact frame boundaries
// regardless of how the transport chunks writes. Beyond the fragment
// triggers, CtlFaults drop, duplicate, delay, or close the conn before
// one frame picked by type and per-type ordinal — e.g. "drop the 3rd
// ping this conn sends". Every control round is one ping, a heartbeat or a
// gang switch alike, so a fault on a ping hits whichever round it is.
//
// Plans are wired in behind livenet's Config.Dialer / Config.WrapConn
// hooks; the package deliberately does not import livenet, so it can
// wrap either side of any link (MM accept path, NM peer accept path,
// NM outbound dials).
package faultconn

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/livenet/wire"
)

// Plan is one connection's deterministic fault schedule. Fragment
// ordinals count 'F' frames observed on this connection (0-based, per
// direction); -1 disables a trigger. Use NewPlan to get a Plan with
// every trigger disabled.
type Plan struct {
	// Write-path faults (bytes this endpoint sends).
	WriteDelay    time.Duration // injected before every Write call, whatever it carries: a frame split in two writes pays it twice
	DuplicateFrag int           // retransmit the k-th outgoing frag frame immediately after itself
	CorruptFrag   int           // flip a payload byte of the k-th outgoing frag frame (the chunk hash check must catch it)

	// CtlFaults target frames this endpoint sends; each fault fires at
	// most once. Faults on distinct frames compose.
	CtlFaults []CtlFault

	// Read-path faults (bytes this endpoint receives).
	CloseAtReadFrag int  // hard-close after fully receiving the k-th incoming frag frame
	BlockReads      bool // inbound one-way partition: reads hang until the conn is closed

	// OnFault, if set, is called once per fired trigger with a short
	// kind tag ("read-close", "duplicate", "corrupt", "ctl-drop",
	// "ctl-dup", "ctl-delay", "ctl-close", "gate-kill"). Called from
	// Read/Write — for a close trigger, before the conn closes; must not
	// block.
	OnFault func(kind string)

	// Gate, if set, subjects every conn wrapped with this plan to
	// process-level pause/heal/kill control. Unlike the per-conn
	// triggers above, a Gate is shared: one Gate attached to all of a
	// node's plans models signals delivered to the whole process.
	Gate *Gate
}

// Gate models process-level fault control over a set of connections: a
// paused node stops emitting bytes on every attached conn (its pongs
// and frags go silent, like SIGSTOP), a healed node resumes exactly
// where it left off, and a killed node's conns all die with
// ErrInjectedClose (like SIGKILL). Attach a Gate by setting Plan.Gate
// on every plan wrapped for that node's conns; conns wrapped after a
// Kill die immediately, so a gate covers links the node opens later
// too.
type Gate struct {
	mu     sync.Mutex
	paused bool
	killed bool
	wake   chan struct{} // closed and replaced on every state change
	conns  []*Conn
}

// NewGate returns a running (unpaused) gate.
func NewGate() *Gate {
	return &Gate{wake: make(chan struct{})}
}

// Pause blocks all future writes on attached conns until Heal. Writes
// already handed to the kernel are not recalled.
func (g *Gate) Pause() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.paused && !g.killed {
		g.paused = true
		close(g.wake)
		g.wake = make(chan struct{})
	}
}

// Heal releases writers blocked by Pause; the node resumes mid-stream
// with no bytes lost.
func (g *Gate) Heal() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.paused {
		g.paused = false
		close(g.wake)
		g.wake = make(chan struct{})
	}
}

// Kill hard-closes every attached conn (and every conn attached
// later), releasing any writer blocked by Pause with ErrInjectedClose.
// Kill is terminal: Heal does not undo it.
func (g *Gate) Kill() {
	g.mu.Lock()
	if g.killed {
		g.mu.Unlock()
		return
	}
	g.killed = true
	conns := g.conns
	g.conns = nil
	close(g.wake)
	g.mu.Unlock()
	for _, c := range conns {
		c.kill("gate-kill")
	}
}

// Killed reports whether Kill has been called.
func (g *Gate) Killed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.killed
}

// attach registers c for Kill propagation. Called from Wrap.
func (g *Gate) attach(c *Conn) {
	g.mu.Lock()
	if g.killed {
		g.mu.Unlock()
		c.kill("gate-kill")
		return
	}
	g.conns = append(g.conns, c)
	g.mu.Unlock()
}

// wait blocks while the gate is paused. It returns ErrInjectedClose if
// the gate is killed or the conn closes while waiting, nil otherwise.
func (g *Gate) wait(done <-chan struct{}) error {
	for {
		g.mu.Lock()
		if g.killed {
			g.mu.Unlock()
			return ErrInjectedClose
		}
		if !g.paused {
			g.mu.Unlock()
			return nil
		}
		wake := g.wake
		g.mu.Unlock()
		select {
		case <-wake:
		case <-done:
			return ErrInjectedClose
		}
	}
}

// CtlFault is one deterministic fault on one frame: the Index-th
// outgoing frame of type Kind (any type byte of wire's table) is
// dropped, duplicated back-to-back, or delayed by Delay while later
// frames queue behind it — the classic lost/duplicated/late heartbeat
// cases a tree control plane must absorb without false convictions — or
// the conn is hard-closed before the frame's first byte reaches the
// wire ("close"): the receiver sees a clean frame boundary then EOF, the
// sender a write error, as when a node dies between two messages.
type CtlFault struct {
	Kind  byte
	Index int
	Op    string // "drop", "dup", "delay", or "close"
	Delay time.Duration
}

// NewPlan returns a Plan with all triggers disabled.
func NewPlan() Plan {
	return Plan{DuplicateFrag: -1, CorruptFrag: -1, CloseAtReadFrag: -1}
}

// ErrInjectedClose is the error surfaced by operations on a connection
// a Plan hard-closed.
var ErrInjectedClose = errors.New("faultconn: injected connection close")

// Scanner states. The frame grammar itself — type bytes, fixed lengths,
// tail shapes — is livenet's wire table.
const (
	stType  = iota // expecting a frame type byte
	stFixed        // inside the fixed part that follows the type byte
	stTail         // inside the variable tail
)

// scanner is a streaming parser over one direction of the frame
// stream. step consumes a byte and reports where in the stream it falls.
type scanner struct {
	state   int
	kind    byte       // type byte of the frame being scanned
	shape   wire.Shape // its row of the frame table
	hdr     [wire.MaxFixed]byte
	got     int      // fixed-part bytes buffered so far
	need    int      // tail bytes left
	bodyPos int      // offset of the next tail byte
	kinds   [256]int // frames begun so far, per type byte
}

// event places one byte inside a frame: the frame's type byte kind and
// its ordinal ord among the frames of that type on this conn (0-based),
// and whether the byte begins or ends it, or is frag payload at offset
// bodyPos. A byte that starts no frame is the zero event.
type event struct {
	kind       byte
	ord        int
	begin      bool
	end        bool
	inFragBody bool
	bodyPos    int
}

func (s *scanner) step(b byte) event {
	var ev event
	switch s.state {
	case stType:
		if s.shape = wire.Shapes[b]; s.shape.Fixed == 0 {
			// Unknown byte: stay in stType. The real codec would error;
			// the scanner just degrades to pass-through.
			return ev
		}
		s.state, s.kind, s.got = stFixed, b, 0
		s.kinds[b]++
		ev.begin = true
	case stFixed:
		s.hdr[s.got] = b
		s.got++
		if s.got == s.shape.Fixed {
			s.state, s.need, s.bodyPos = stTail, s.shape.Tail(s.hdr[:]), 0
			ev.end = s.need == 0
		}
	case stTail:
		ev.inFragBody, ev.bodyPos = s.kind == wire.Frag, s.bodyPos
		s.bodyPos++
		s.need--
		ev.end = s.need == 0
	}
	if ev.end {
		s.state = stType
	}
	ev.kind, ev.ord = s.kind, s.kinds[s.kind]-1
	return ev
}

// Conn is a net.Conn with a fault Plan applied.
type Conn struct {
	net.Conn
	plan Plan

	wmu     sync.Mutex
	wScan   scanner
	frame   []byte // current outgoing frame bytes, kept only while DuplicateFrag is armed
	inFrame bool

	ctlHold    []byte // bytes of a frame withheld for a pending CtlFault
	ctlHolding bool
	ctlFaultIx int    // index into plan.CtlFaults of the fault being held
	ctlFired   []bool // per-CtlFault fired-once latches

	rmu   sync.Mutex
	rScan scanner

	closeOnce sync.Once
	done      chan struct{}
	killed    bool
}

// Wrap applies plan to c. The returned Conn is safe for one concurrent
// reader and one concurrent writer, matching net.Conn conventions.
func Wrap(c net.Conn, plan Plan) *Conn {
	fc := &Conn{Conn: c, plan: plan, ctlFired: make([]bool, len(plan.CtlFaults)), done: make(chan struct{})}
	if plan.Gate != nil {
		plan.Gate.attach(fc)
	}
	return fc
}

// armedCtlFault returns the index of an unfired fault matching the
// frame that just began, or -1.
func (c *Conn) armedCtlFault(kind byte, ord int) int {
	for i, f := range c.plan.CtlFaults {
		if !c.ctlFired[i] && f.Kind == kind && f.Index == ord {
			return i
		}
	}
	return -1
}

func (c *Conn) fire(kind string) {
	if c.plan.OnFault != nil {
		c.plan.OnFault(kind)
	}
}

// kill hard-closes the underlying conn on behalf of a trigger. The
// trigger's OnFault runs first, so whatever it brings down with the
// conn (a Gate, say) is down before the peer sees the close.
func (c *Conn) kill(kind string) {
	c.fire(kind)
	c.closeOnce.Do(func() {
		c.killed = true
		close(c.done)
		c.Conn.Close()
	})
}

// Close closes the wrapped connection and releases any blocked reader.
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.done)
		err = c.Conn.Close()
	})
	return err
}

func (c *Conn) Write(p []byte) (int, error) {
	if c.plan.Gate != nil {
		if err := c.plan.Gate.wait(c.done); err != nil {
			return 0, err
		}
	}
	if c.plan.WriteDelay > 0 {
		select {
		case <-time.After(c.plan.WriteDelay):
		case <-c.done:
			return 0, ErrInjectedClose
		}
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()

	// Fast path: no frame-level write triggers armed.
	if c.plan.DuplicateFrag < 0 && c.plan.CorruptFrag < 0 && len(c.plan.CtlFaults) == 0 {
		return c.Conn.Write(p)
	}

	// Scan the chunk, building the (possibly mutated) output and
	// watching for trigger points.
	out := make([]byte, 0, len(p))
	capture := c.plan.DuplicateFrag >= 0
	for i := 0; i < len(p); i++ {
		b := p[i]
		ev := c.wScan.step(b)
		if !c.ctlHolding && ev.begin {
			if fi := c.armedCtlFault(ev.kind, ev.ord); fi >= 0 {
				c.ctlFired[fi] = true
				if c.plan.CtlFaults[fi].Op == "close" {
					// Crash before the frame: everything earlier in this
					// chunk goes out, the targeted frame never starts.
					if len(out) > 0 {
						c.Conn.Write(out)
					}
					c.kill("ctl-close")
					return i, fmt.Errorf("%w (before outgoing %q frame %d)", ErrInjectedClose, ev.kind, ev.ord)
				}
				c.ctlHolding, c.ctlFaultIx = true, fi
				c.ctlHold = c.ctlHold[:0]
			}
		}
		if ev.inFragBody && ev.ord == c.plan.CorruptFrag && ev.bodyPos == 0 {
			b ^= 0xFF
			c.fire("corrupt")
		}
		held := c.ctlHolding
		if held {
			// Withhold the targeted frame's bytes — across Write call
			// boundaries if the frame is split — and resolve the fault on
			// its final byte.
			c.ctlHold = append(c.ctlHold, b)
			if ev.end {
				f := c.plan.CtlFaults[c.ctlFaultIx]
				c.ctlHolding = false
				switch f.Op {
				case "drop":
					c.fire("ctl-drop")
				case "dup":
					out = append(out, c.ctlHold...)
					out = append(out, c.ctlHold...)
					c.fire("ctl-dup")
				case "delay":
					// Everything before the frame goes out now; the frame
					// (and whatever follows it) waits out the delay, like a
					// queueing stall at this hop.
					if len(out) > 0 {
						if _, err := c.Conn.Write(out); err != nil {
							return 0, err
						}
						out = out[:0]
					}
					c.fire("ctl-delay")
					select {
					case <-time.After(f.Delay):
					case <-c.done:
						return 0, ErrInjectedClose
					}
					out = append(out, c.ctlHold...)
				default:
					out = append(out, c.ctlHold...)
				}
			}
		}
		if !held {
			out = append(out, b)
		}
		if !held && capture {
			if ev.begin && ev.kind == wire.Frag {
				c.frame = c.frame[:0]
				c.inFrame = true
			}
			if c.inFrame {
				c.frame = append(c.frame, b)
				if ev.end {
					c.inFrame = false
					if ev.ord == c.plan.DuplicateFrag {
						out = append(out, c.frame...)
						c.fire("duplicate")
					}
				}
			}
		}
	}
	if _, err := c.Conn.Write(out); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (c *Conn) Read(p []byte) (int, error) {
	if c.plan.BlockReads {
		// Inbound partition: nothing ever arrives, but the conn looks
		// open until closed.
		<-c.done
		return 0, ErrInjectedClose
	}
	n, err := c.Conn.Read(p)
	if n > 0 && c.plan.CloseAtReadFrag >= 0 {
		c.rmu.Lock()
		for i := 0; i < n; i++ {
			ev := c.rScan.step(p[i])
			if ev.end && ev.kind == wire.Frag && ev.ord == c.plan.CloseAtReadFrag {
				c.rmu.Unlock()
				// Deliver through the end of the fatal fragment, then die:
				// the node processes fragment k and crashes.
				c.kill("read-close")
				return i + 1, nil
			}
		}
		c.rmu.Unlock()
	}
	return n, err
}

// Killed reports whether a close trigger fired on this conn.
func (c *Conn) Killed() bool {
	select {
	case <-c.done:
		return c.killed
	default:
		return false
	}
}

// FlakyDialer returns a dial function whose first failFirst attempts
// fail with an injected error, exercising livenet's capped-backoff dial
// retry. Subsequent attempts dial through normally.
func FlakyDialer(failFirst int, onFault func(kind string)) func(addr string) (net.Conn, error) {
	var mu sync.Mutex
	attempts := 0
	return func(addr string) (net.Conn, error) {
		mu.Lock()
		attempts++
		n := attempts
		mu.Unlock()
		if n <= failFirst {
			if onFault != nil {
				onFault("dial-fail")
			}
			return nil, fmt.Errorf("faultconn: injected dial failure %d/%d", n, failFirst)
		}
		return net.DialTimeout("tcp", addr, 5*time.Second)
	}
}
