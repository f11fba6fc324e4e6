// Package journal is the MM's durable event log: a compact append-only,
// CRC-framed write-ahead log of cluster events (job admission, placement,
// epoch bumps, launch, completion, membership changes) that a restarted
// Machine Manager replays to rebuild its job table. The format favors
// the MM's actual write pattern — a few hundred bytes per job, flushed
// per event — over general-purpose durability machinery:
//
//	segment file:  journal-000001.wal, journal-000002.wal, ...
//	record frame:  u32 payload length | u32 CRC-32(payload) | payload
//	payload:       u8 type | i64 job | i64 node | u32 dlen | dlen bytes
//
// Records append to the highest-numbered segment. Rotation is atomic:
// the caller supplies a snapshot of the live state, which is written to
// a temp file, synced, renamed to the next segment number, and only then
// are the older segments deleted — a crash at any point leaves either
// the old segments or a complete new one, never neither. Replay walks
// the segments in order and stops at the first torn or corrupt frame
// (the tail a crash mid-append leaves behind), so a half-written record
// is indistinguishable from a clean end of log.
//
// The package holds no livenet types: event payloads are opaque bytes
// (the MM stores a job spec as the body of its Submit frame), so journal
// can be tested — and reused — on its own.
package journal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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
	// JobEpoch records a mid-transfer replan (tree generation bump).
	JobEpoch
	// JobManifest records the manifest round opening a streaming epoch.
	JobManifest
	// JobLaunched records process launch on every surviving node.
	JobLaunched
	// JobDone and JobFailed close a job's record; a job with neither at
	// replay time was in flight when the MM died.
	JobDone
	JobFailed
	// NodeJoin, NodeDead, and NodeRejoin are membership changes.
	NodeJoin
	NodeDead
	NodeRejoin
)

func (t EventType) String() string {
	switch t {
	case JobAdmitted:
		return "job-admitted"
	case JobPlanned:
		return "job-planned"
	case JobEpoch:
		return "job-epoch"
	case JobManifest:
		return "job-manifest"
	case JobLaunched:
		return "job-launched"
	case JobDone:
		return "job-done"
	case JobFailed:
		return "job-failed"
	case NodeJoin:
		return "node-join"
	case NodeDead:
		return "node-dead"
	case NodeRejoin:
		return "node-rejoin"
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
	w      *bufio.Writer
	seg    int
	size   int64
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
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{dir: dir, f: f, w: bufio.NewWriter(f), seg: seg, size: fi.Size()}, nil
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

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// Size returns the current segment's byte length — the rotation signal.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// NeedsRotation reports whether the current segment has outgrown the
// built-in limit and the owner should Rotate with a state snapshot.
func (j *Journal) NeedsRotation() bool { return j.Size() > segmentLimit }

func encode(ev Event, buf []byte) []byte {
	payload := recFixedLen + len(ev.Data)
	buf = append(buf[:0], make([]byte, frameHdrLen+payload)...)
	binary.BigEndian.PutUint32(buf[0:], uint32(payload))
	p := buf[frameHdrLen:]
	p[0] = byte(ev.Type)
	binary.BigEndian.PutUint64(p[1:], uint64(int64(ev.Job)))
	binary.BigEndian.PutUint64(p[9:], uint64(int64(ev.Node)))
	binary.BigEndian.PutUint32(p[17:], uint32(len(ev.Data)))
	copy(p[recFixedLen:], ev.Data)
	binary.BigEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(p))
	return buf
}

// Append writes one event and flushes it to the OS — a record is
// readable by replay the moment Append returns, whatever kills the
// process next.
func (j *Journal) Append(ev Event) error {
	frame := encode(ev, nil)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	if _, err := j.w.Write(frame); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.size += int64(len(frame))
	return nil
}

// Rotate atomically replaces the log with a fresh segment seeded by the
// given snapshot events (the caller's condensed live state). The new
// segment is fully written and synced under a temp name, renamed into
// place, and only then are the older segments removed — a crash leaves
// either the complete old log or the complete new one.
func (j *Journal) Rotate(snapshot []Event) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	next := j.seg + 1
	tmp, err := os.CreateTemp(j.dir, "journal-rotate-*")
	if err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	w := bufio.NewWriter(tmp)
	var size int64
	var buf []byte
	for _, ev := range snapshot {
		buf = encode(ev, buf)
		if _, err := w.Write(buf); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("journal: rotate: %w", err)
		}
		size += int64(len(buf))
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: rotate: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: rotate: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: rotate: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(j.dir, segName(next))); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: rotate: %w", err)
	}
	// The new segment is durable under its final name: switch the writer
	// over and drop the superseded history.
	old := j.seg
	j.f.Close()
	f, err := os.OpenFile(filepath.Join(j.dir, segName(next)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	j.f, j.w, j.seg, j.size = f, bufio.NewWriter(f), next, size
	for s := old; s >= 1; s-- {
		path := filepath.Join(j.dir, segName(s))
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			break
		}
	}
	return nil
}

// Close flushes and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	ferr := j.w.Flush()
	serr := j.f.Sync()
	cerr := j.f.Close()
	if ferr != nil {
		return ferr
	}
	if serr != nil {
		return serr
	}
	return cerr
}

// Replay reads every intact event under dir in order, invoking fn for
// each. A torn or corrupt frame ends the replay silently — that is the
// tail a crash mid-append leaves, and everything before it is intact by
// construction. A missing directory replays zero events.
func Replay(dir string, fn func(Event) error) error {
	segs, err := segments(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		if _, statErr := os.Stat(dir); os.IsNotExist(statErr) {
			return nil
		}
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
