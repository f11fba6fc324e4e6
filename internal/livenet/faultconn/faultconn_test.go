package faultconn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/livenet/wire"
)

// buildFrag assembles one 'F' frame with an n-byte payload.
func buildFrag(index, n int) []byte {
	buf := make([]byte, 1+wire.FragLen+n)
	buf[0] = 'F'
	binary.BigEndian.PutUint32(buf[1:], 1) // job
	binary.BigEndian.PutUint32(buf[5:], uint32(index))
	buf[9] = 0
	binary.BigEndian.PutUint32(buf[1+wire.FragLenOff:], uint32(n))
	for i := 0; i < n; i++ {
		buf[1+wire.FragLen+i] = byte(i)
	}
	return buf
}

// buildAbort assembles one Abort body frame for job 1: the u32 body
// length, then job i64 | reason (u32 count + bytes).
func buildAbort(reason string) []byte {
	buf := []byte{wire.Abort, 0, 0, 0, 0}
	buf = binary.BigEndian.AppendUint64(buf, 1)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(reason)))
	buf = append(buf, reason...)
	binary.BigEndian.PutUint32(buf[1:], uint32(len(buf)-1-wire.BodyLen))
	return buf
}

func buildAck() []byte {
	buf := make([]byte, 1+wire.AckLen)
	buf[0] = 'A'
	return buf
}

// buildCtl assembles one fixed-body typed control frame with a
// non-trivial body pattern.
func buildCtl(kind byte) []byte {
	if sh := wire.Shapes[kind]; sh.Fixed == 0 || sh.CountWidth != 0 {
		panic("not a fixed ctl kind")
	}
	buf := make([]byte, 1+wire.Shapes[kind].Fixed)
	buf[0] = kind
	for i := 1; i < len(buf); i++ {
		buf[i] = byte(0x40 + i)
	}
	return buf
}

// buildVarCtl assembles one varlen control frame ('D') with the given
// trailing error string.
func buildVarCtl(kind byte, errStr string) []byte {
	sh := wire.Shapes[kind]
	if sh.CountWidth != 2 || sh.Unit != 1 {
		panic("not a varlen ctl kind")
	}
	buf := make([]byte, 1+sh.Fixed, 1+sh.Fixed+len(errStr))
	buf[0] = kind
	binary.BigEndian.PutUint16(buf[1+sh.CountOff:], uint16(len(errStr)))
	return append(buf, errStr...)
}

// pipeConn returns both ends of an in-memory connection.
func pipeConn(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestScannerCountsFragsAcrossChunking: frag ordinals are found no
// matter how the byte stream is sliced, with body and ack frames mixed in.
func TestScannerCountsFragsAcrossChunking(t *testing.T) {
	var stream []byte
	stream = append(stream, buildAbort("the image failed to verify on 3 nodes")...)
	stream = append(stream, buildFrag(0, 100)...)
	stream = append(stream, buildAck()...)
	stream = append(stream, buildFrag(1, 7)...)
	stream = append(stream, buildAbort("")...)
	stream = append(stream, buildFrag(2, 1)...)
	for _, chunk := range []int{1, 3, 17, len(stream)} {
		var s scanner
		frames := 0
		for i := 0; i < len(stream); i += chunk {
			end := i + chunk
			if end > len(stream) {
				end = len(stream)
			}
			for _, b := range stream[i:end] {
				if ev := s.step(b); ev.end && ev.kind == wire.Frag {
					frames++
				}
			}
		}
		if frames != 3 {
			t.Fatalf("chunk %d: %d frag frames scanned, want 3", chunk, frames)
		}
	}
}

// TestCorruptFragFlipsOnePayloadByte: the k-th frag frame arrives with
// exactly its first payload byte inverted; everything else is intact.
func TestCorruptFragFlipsOnePayloadByte(t *testing.T) {
	a, b := pipeConn(t)
	plan := NewPlan()
	plan.CorruptFrag = 1
	fc := Wrap(a, plan)
	sent := append(append([]byte{}, buildFrag(0, 32)...), buildFrag(1, 32)...)
	got := make([]byte, 0, len(sent))
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		for len(got) < len(sent) {
			n, err := b.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				return
			}
		}
	}()
	if _, err := fc.Write(sent); err != nil {
		t.Fatalf("write: %v", err)
	}
	<-done
	frameLen := 1 + wire.FragLen + 32
	if !bytes.Equal(got[:frameLen], sent[:frameLen]) {
		t.Fatal("fragment 0 was modified")
	}
	corruptAt := frameLen + 1 + wire.FragLen // first payload byte of frag 1
	want := append([]byte{}, sent...)
	want[corruptAt] ^= 0xFF
	if !bytes.Equal(got, want) {
		t.Fatal("corruption did not hit exactly the first payload byte of fragment 1")
	}
}

// TestDuplicateFragRetransmitsFrame: the k-th frag frame appears twice
// back-to-back on the wire.
func TestDuplicateFragRetransmitsFrame(t *testing.T) {
	a, b := pipeConn(t)
	plan := NewPlan()
	plan.DuplicateFrag = 0
	fc := Wrap(a, plan)
	frame := buildFrag(0, 16)
	want := append(append([]byte{}, frame...), frame...)
	got := make([]byte, 0, len(want))
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 1024)
		for len(got) < len(want) {
			n, err := b.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				return
			}
		}
	}()
	if _, err := fc.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	<-done
	if !bytes.Equal(got, want) {
		t.Fatal("fragment 0 was not duplicated verbatim")
	}
}

// TestCloseAtReadFrag: the reader gets fragment k in full, then the
// conn dies.
func TestCloseAtReadFrag(t *testing.T) {
	a, b := pipeConn(t)
	plan := NewPlan()
	plan.CloseAtReadFrag = 0
	fc := Wrap(b, plan)
	frame := buildFrag(0, 8)
	go func() {
		a.Write(frame)
		a.Write(buildFrag(1, 8))
	}()
	got := make([]byte, 0, len(frame))
	buf := make([]byte, 1024)
	for len(got) < len(frame) {
		n, err := fc.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			t.Fatalf("read before trigger: %v", err)
		}
	}
	if !bytes.Equal(got, frame) {
		t.Fatal("fragment 0 not delivered intact before the kill")
	}
	if _, err := fc.Read(buf); err == nil {
		t.Fatal("read after injected close should fail")
	}
	if !fc.Killed() {
		t.Fatal("conn not marked killed")
	}
}

// TestBlockReadsUnblocksOnClose: an inbound partition hangs reads until
// Close, then errors out.
func TestBlockReadsUnblocksOnClose(t *testing.T) {
	a, b := pipeConn(t)
	_ = a
	plan := NewPlan()
	plan.BlockReads = true
	fc := Wrap(b, plan)
	errCh := make(chan error, 1)
	go func() {
		_, err := fc.Read(make([]byte, 16))
		errCh <- err
	}()
	select {
	case err := <-errCh:
		t.Fatalf("read returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	fc.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrInjectedClose) {
			t.Fatalf("blocked read error = %v, want ErrInjectedClose", err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked read never released by Close")
	}
}

// TestFlakyDialer: first n attempts fail, later ones are real dials.
func TestFlakyDialer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	faults := 0
	d := FlakyDialer(2, func(string) { faults++ })
	for i := 0; i < 2; i++ {
		if _, err := d(ln.Addr().String()); err == nil {
			t.Fatalf("attempt %d should fail", i+1)
		}
	}
	c, err := d(ln.Addr().String())
	if err != nil {
		t.Fatalf("attempt 3 should connect: %v", err)
	}
	c.Close()
	if faults != 2 {
		t.Fatalf("OnFault fired %d times, want 2", faults)
	}
}

// TestScannerTypedControlFrames: the scanner tracks frag ordinals and
// per-type frame ordinals through a stream mixing frame kinds,
// regardless of chunking — no desync on 'P'/'Q'/'L'/'D'/'B'.
func TestScannerTypedControlFrames(t *testing.T) {
	var stream []byte
	stream = append(stream, buildAbort("link down")...)
	stream = append(stream, buildCtl('P')...)
	stream = append(stream, buildFrag(0, 40)...)
	stream = append(stream, buildCtl('Q')...)
	stream = append(stream, buildAck()...)
	stream = append(stream, buildCtl('L')...)
	stream = append(stream, buildVarCtl('D', "launch: exec format error")...)
	stream = append(stream, buildCtl('P')...)
	stream = append(stream, buildVarCtl('D', "dial child 3: refused")...)
	stream = append(stream, buildCtl('P')...)
	stream = append(stream, buildVarCtl('D', "")...)
	stream = append(stream, buildFrag(1, 3)...)
	for _, chunk := range []int{1, 2, 5, 13, len(stream)} {
		var s scanner
		frags := 0
		var kinds [256]int
		for i := 0; i < len(stream); i += chunk {
			end := i + chunk
			if end > len(stream) {
				end = len(stream)
			}
			for _, b := range stream[i:end] {
				ev := s.step(b)
				if ev.end && ev.kind == wire.Frag {
					frags++
				}
				if ev.end {
					if ev.ord != kinds[ev.kind] {
						t.Fatalf("chunk %d: %q frame %d reported as ordinal %d", chunk, ev.kind, kinds[ev.kind], ev.ord)
					}
					kinds[ev.kind]++
				}
			}
		}
		if frags != 2 {
			t.Fatalf("chunk %d: %d frag frames, want 2", chunk, frags)
		}
		for kind, want := range map[byte]int{'P': 3, 'Q': 1, 'L': 1, 'D': 3, 'B': 1, 'A': 1, 'F': 2} {
			if kinds[kind] != want {
				t.Fatalf("chunk %d: %d %q frames, want %d", chunk, kinds[kind], kind, want)
			}
		}
		if s.state != stType {
			t.Fatalf("chunk %d: scanner ended in state %d, want stType", chunk, s.state)
		}
	}
}

// readN drains exactly n bytes from c into the returned slice.
func readN(t *testing.T, c net.Conn, n int) []byte {
	t.Helper()
	got := make([]byte, 0, n)
	buf := make([]byte, 4096)
	for len(got) < n {
		m, err := c.Read(buf)
		got = append(got, buf[:m]...)
		if err != nil {
			t.Fatalf("read after %d/%d bytes: %v", len(got), n, err)
		}
	}
	return got
}

// TestCtlFaultDropPingByIndex: exactly the k-th outgoing ping vanishes
// — earlier and later pings, and bulk frames, pass untouched — even
// when the doomed frame is split across Write calls.
func TestCtlFaultDropPingByIndex(t *testing.T) {
	a, b := pipeConn(t)
	var fired []string
	plan := NewPlan()
	plan.CtlFaults = []CtlFault{{Kind: 'P', Index: 1, Op: "drop"}}
	plan.OnFault = func(k string) { fired = append(fired, k) }
	fc := Wrap(a, plan)
	ping := buildCtl('P')
	frag := buildFrag(0, 24)
	var want []byte
	want = append(want, ping...) // ping 0 passes
	want = append(want, frag...) // ping 1 dropped
	want = append(want, ping...) // ping 2 passes
	done := make(chan []byte, 1)
	go func() { done <- readN(t, b, len(want)) }()
	if _, err := fc.Write(ping); err != nil {
		t.Fatalf("ping 0: %v", err)
	}
	// Split the doomed ping across two writes: the hold must span them.
	if _, err := fc.Write(ping[:5]); err != nil {
		t.Fatalf("ping 1 head: %v", err)
	}
	if _, err := fc.Write(append(append([]byte{}, ping[5:]...), frag...)); err != nil {
		t.Fatalf("ping 1 tail + frag: %v", err)
	}
	if _, err := fc.Write(ping); err != nil {
		t.Fatalf("ping 2: %v", err)
	}
	if got := <-done; !bytes.Equal(got, want) {
		t.Fatal("stream mismatch: drop did not remove exactly ping 1")
	}
	if len(fired) != 1 || fired[0] != "ctl-drop" {
		t.Fatalf("OnFault calls = %v, want [ctl-drop]", fired)
	}
}

// TestCtlFaultDupStrobe: the k-th ping — a gang switch rides one —
// appears twice back-to-back; a pong sharing the conn is untouched
// (per-kind ordinals).
func TestCtlFaultDupStrobe(t *testing.T) {
	a, b := pipeConn(t)
	plan := NewPlan()
	plan.CtlFaults = []CtlFault{{Kind: 'P', Index: 1, Op: "dup"}}
	fc := Wrap(a, plan)
	strobe, pong := buildCtl('P'), buildCtl('Q')
	var sent, want []byte
	sent = append(sent, strobe...)
	sent = append(sent, pong...)
	sent = append(sent, strobe...)
	want = append(want, strobe...)
	want = append(want, pong...)
	want = append(want, strobe...)
	want = append(want, strobe...) // the duplicate
	done := make(chan []byte, 1)
	go func() { done <- readN(t, b, len(want)) }()
	if _, err := fc.Write(sent); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := <-done; !bytes.Equal(got, want) {
		t.Fatal("ping 1 was not duplicated verbatim (or another frame was touched)")
	}
}

// TestCtlFaultDelayPong: the k-th pong is held back for the configured
// delay while the bytes before it flush immediately; the stream arrives
// intact and in order.
func TestCtlFaultDelayPong(t *testing.T) {
	a, b := pipeConn(t)
	const delay = 60 * time.Millisecond
	plan := NewPlan()
	plan.CtlFaults = []CtlFault{{Kind: 'Q', Index: 0, Op: "delay", Delay: delay}}
	fc := Wrap(a, plan)
	ping, pong := buildCtl('P'), buildCtl('Q')
	sent := append(append([]byte{}, ping...), pong...)
	done := make(chan []byte, 1)
	go func() { done <- readN(t, b, len(sent)) }()
	t0 := time.Now()
	if _, err := fc.Write(sent); err != nil {
		t.Fatalf("write: %v", err)
	}
	if el := time.Since(t0); el < delay {
		t.Fatalf("write returned after %v, want >= %v (delay not applied)", el, delay)
	}
	if got := <-done; !bytes.Equal(got, sent) {
		t.Fatal("delayed stream corrupted or reordered")
	}
}

// TestCtlFaultCloseBeforeFrame: a "close" fault kills the conn before
// any byte of the k-th frame of its type — earlier frames, and the bytes
// of this write that precede the frame, reach the peer whole — and the
// writer sees the injected error.
func TestCtlFaultCloseBeforeFrame(t *testing.T) {
	a, b := pipeConn(t)
	var fired []string
	plan := NewPlan()
	plan.CtlFaults = []CtlFault{{Kind: wire.Abort, Index: 1, Op: "close"}}
	plan.OnFault = func(k string) { fired = append(fired, k) }
	fc := Wrap(a, plan)
	abort, ping := buildAbort("first"), buildCtl('P')
	want := append(append(append([]byte{}, abort...), ping...), ping...)
	done := make(chan []byte, 1)
	go func() {
		got, _ := io.ReadAll(b)
		done <- got
	}()
	if _, err := fc.Write(append(append([]byte{}, abort...), ping...)); err != nil {
		t.Fatalf("abort 0: %v", err)
	}
	n, err := fc.Write(append(append([]byte{}, ping...), buildAbort("second")...))
	if !errors.Is(err, ErrInjectedClose) || n != len(ping) {
		t.Fatalf("write of abort 1 = (%d, %v), want (%d, ErrInjectedClose)", n, err, len(ping))
	}
	if got := <-done; !bytes.Equal(got, want) {
		t.Fatalf("peer got %d bytes, want the %d before abort 1", len(got), len(want))
	}
	if !fc.Killed() || len(fired) != 1 || fired[0] != "ctl-close" {
		t.Fatalf("killed=%v, OnFault calls = %v, want [ctl-close]", fc.Killed(), fired)
	}
}
