// Package journal is the MM's durable event log: a compact append-only,
// CRC-framed write-ahead log of typed events — each job's transitions
// through the MM's state machine and each membership change — that a
// restarted Machine Manager replays to rebuild its job rows. The format
// favors the MM's actual write pattern — a few hundred bytes per job,
// flushed per event — over general-purpose durability machinery:
//
//	segment file:  journal-000001.wal, journal-000002.wal, ...
//	record frame:  u32 payload length | u32 CRC-32(payload) | payload
//	payload:       u8 type | i64 job | i64 node | u32 dlen | dlen bytes
//
// Records append to the highest-numbered segment. Rotation is atomic:
// under the journal's lock, so no Append lands between the two, the
// caller's snapshot func condenses the live state into events, which are
// written to a temp file, synced, renamed to the next segment number, and
// only then are the older segments deleted — a crash at any point leaves
// either the old segments or a complete new one, never neither. Replay
// walks the segments in order and stops at the first torn or corrupt
// frame (the tail a crash mid-append leaves behind), so a half-written
// record is indistinguishable from a clean end of log.
//
// The package holds no livenet types: event payloads are opaque bytes
// (the MM stores a job spec as the body of its Submit frame), so journal
// can be tested — and reused — on its own.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// EventType tags one journal record.
type EventType uint8

const (
	// JobAdmitted records a job entering the admission queue; Data
	// carries the encoded spec so a restart can resubmit it.
	JobAdmitted EventType = iota + 1
	// JobPlanned records placement: the job owns nodes and a tree.
	JobPlanned
	// JobEpoch is retired: it recorded a mid-transfer replan, which the
	// manifest record that follows it now covers. Logs written before
	// still carry it, so it keeps its number.
	JobEpoch
	// JobManifest records the manifest round opening a streaming epoch.
	JobManifest
	// JobLaunched records the transfer's end: the launch goes out to
	// every surviving node.
	JobLaunched
	// JobDone and JobFailed close a job's record; a job with neither at
	// replay time was in flight when the MM died.
	JobDone
	JobFailed
	// NodeJoin, NodeDead, and NodeRejoin are membership changes.
	NodeJoin
	NodeDead
	NodeRejoin
	// JobStreaming records the first chunk of an epoch going out. It
	// comes last so every older type keeps its number.
	JobStreaming
)

var eventNames = [...]string{
	JobAdmitted: "job-admitted", JobPlanned: "job-planned", JobEpoch: "job-epoch",
	JobManifest: "job-manifest", JobStreaming: "job-streaming", JobLaunched: "job-launched",
	JobDone: "job-done", JobFailed: "job-failed",
	NodeJoin: "node-join", NodeDead: "node-dead", NodeRejoin: "node-rejoin",
}

func (t EventType) String() string {
	if int(t) < len(eventNames) && eventNames[t] != "" {
		return eventNames[t]
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// Event is one journal record. Job and Node are whichever identities the
// type concerns (zero when not applicable); Data is an opaque payload
// owned by the writer (the MM stores encoded job specs and error strings
// there).
type Event struct {
	Type EventType
	Job  int
	Node int
	Data []byte
}

const (
	frameHdrLen  = 8  // u32 length + u32 CRC
	recFixedLen  = 21 // u8 type + i64 job + i64 node + u32 dlen
	segmentLimit = 1 << 20
)

func segName(n int) string { return fmt.Sprintf("journal-%06d.wal", n) }

// Journal is an open write-ahead log rooted at one directory. Safe for
// concurrent use.
type Journal struct {
	dir string

	mu     sync.Mutex
	f      *os.File
	seg    int
	closed bool
}

// Open creates (or re-opens) the journal under dir, appending to the
// highest-numbered existing segment.
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	seg := 1
	if len(segs) > 0 {
		seg = segs[len(segs)-1]
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(seg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{dir: dir, f: f, seg: seg}, nil
}

// segments lists the existing segment numbers in ascending order.
func segments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []int
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "journal-%06d.wal", &n); err == nil && segName(n) == e.Name() {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// NeedsRotation reports whether the current segment has outgrown the
// built-in limit and the owner should Rotate with a state snapshot.
func (j *Journal) NeedsRotation() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	fi, err := j.f.Stat()
	return err == nil && fi.Size() > segmentLimit
}

// encode appends ev's frame to buf.
func encode(buf []byte, ev Event) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, uint32(recFixedLen+len(ev.Data)))
	buf = append(buf, 0, 0, 0, 0, byte(ev.Type)) // the CRC goes in last
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(ev.Job)))
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(ev.Node)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ev.Data)))
	buf = append(buf, ev.Data...)
	binary.BigEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(buf[start+frameHdrLen:]))
	return buf
}

// Append writes one event to the OS in one write — a record is readable
// by replay the moment Append returns, whatever kills the process next.
func (j *Journal) Append(ev Event) error {
	frame := encode(nil, ev)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	return nil
}

// Rotate atomically replaces the log with a fresh segment seeded by the
// events snapshot returns (the caller's condensed live state). snapshot
// runs under the journal's lock, so an Append racing the rotation lands
// either before it — in the state snapshot reads — or in the new segment
// after it, never in the history Rotate deletes; snapshot must not call
// back into the journal. The new segment is fully written and synced
// under a temp name, renamed into place, and only then are the older
// segments removed — a crash leaves either the complete old log or the
// complete new one.
func (j *Journal) Rotate(snapshot func() []Event) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	next := filepath.Join(j.dir, segName(j.seg+1))
	var seg []byte
	for _, ev := range snapshot() {
		seg = encode(seg, ev)
	}
	if err := writeSynced(next, seg); err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	// The new segment is durable under its final name: switch the writer
	// over and drop the superseded history.
	j.f.Close()
	f, err := os.OpenFile(next, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	old := j.seg
	j.f, j.seg = f, old+1
	for s := old; s >= 1; s-- {
		if err := os.Remove(filepath.Join(j.dir, segName(s))); err != nil && !os.IsNotExist(err) {
			break
		}
	}
	return nil
}

// writeSynced gives path the contents b all at once: b is written to a
// temp file beside it, synced, and renamed over it, so path holds all
// of b or whatever it held before.
func writeSynced(path string, b []byte) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "journal-rotate-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(b); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Close syncs and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	serr := j.f.Sync()
	return errors.Join(serr, j.f.Close())
}

// Replay reads every intact event under dir in order, invoking fn for
// each. A torn or corrupt frame ends the replay silently — that is the
// tail a crash mid-append leaves, and everything before it is intact by
// construction. A missing directory replays zero events.
func Replay(dir string, fn func(Event) error) error {
	segs, err := segments(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, s := range segs {
		done, err := replaySegment(filepath.Join(dir, segName(s)), fn)
		if err != nil {
			return err
		}
		if done {
			return nil // torn tail: nothing after it is trustworthy
		}
	}
	return nil
}

// replaySegment replays one segment file; torn reports whether a torn
// or corrupt frame cut the replay short. The segment is read whole, so
// no length field can make replay allocate more than the file holds; a
// frame is intact only if its payload is exactly what encode writes for
// its event, and an event's Data aliases the read buffer.
func replaySegment(path string, fn func(Event) error) (torn bool, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return false, fmt.Errorf("journal: replay: %w", err)
	}
	for len(b) > 0 {
		if len(b) < frameHdrLen {
			return true, nil
		}
		n := int(binary.BigEndian.Uint32(b))
		p := b[frameHdrLen:]
		if n < recFixedLen || n > len(p) || crc32.ChecksumIEEE(p[:n]) != binary.BigEndian.Uint32(b[4:]) {
			return true, nil
		}
		p = p[:n:n]
		if int(binary.BigEndian.Uint32(p[17:])) != n-recFixedLen {
			return true, nil
		}
		ev := Event{
			Type: EventType(p[0]),
			Job:  int(int64(binary.BigEndian.Uint64(p[1:]))),
			Node: int(int64(binary.BigEndian.Uint64(p[9:]))),
		}
		if n > recFixedLen {
			ev.Data = p[recFixedLen:]
		}
		if err := fn(ev); err != nil {
			return false, err
		}
		b = b[frameHdrLen+n:]
	}
	return false, nil
}
