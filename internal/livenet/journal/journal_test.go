package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

func replayAll(t *testing.T, dir string) []Event {
	t.Helper()
	var evs []Event
	if err := Replay(dir, func(ev Event) error {
		evs = append(evs, ev)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return evs
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Type: NodeJoin, Node: 3},
		{Type: JobAdmitted, Job: 7, Data: []byte("spec-bytes")},
		{Type: JobPlanned, Job: 7},
		{Type: JobEpoch, Job: 7},
		{Type: JobDone, Job: 7},
		{Type: NodeDead, Node: 3, Data: []byte("missed heartbeats")},
	}
	for _, ev := range want {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].Job != want[i].Job ||
			got[i].Node != want[i].Node || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("event %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestReopenAppends(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Event{Type: JobAdmitted, Job: 1})
	j.Close()
	j, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Event{Type: JobDone, Job: 1})
	j.Close()
	got := replayAll(t, dir)
	if len(got) != 2 || got[0].Type != JobAdmitted || got[1].Type != JobDone {
		t.Fatalf("got %+v, want admitted then done", got)
	}
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Event{Type: JobAdmitted, Job: 1, Data: []byte("keep")})
	j.Append(Event{Type: JobDone, Job: 1})
	j.Close()
	// Simulate a crash mid-append: chop bytes off the last frame.
	path := filepath.Join(dir, segName(1))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != 1 || got[0].Type != JobAdmitted || string(got[0].Data) != "keep" {
		t.Fatalf("got %+v, want only the intact first event", got)
	}
}

func TestCorruptFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Event{Type: JobAdmitted, Job: 1})
	j.Append(Event{Type: JobDone, Job: 1})
	j.Close()
	path := filepath.Join(dir, segName(1))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[frameHdrLen+3] ^= 0xff // flip a payload byte inside the first frame
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, dir); len(got) != 0 {
		t.Fatalf("got %d events past a corrupt frame, want 0", len(got))
	}
}

func TestRotateKeepsSnapshotDropsHistory(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		j.Append(Event{Type: JobAdmitted, Job: i})
		j.Append(Event{Type: JobDone, Job: i})
	}
	snapshot := []Event{
		{Type: NodeJoin, Node: 0},
		{Type: JobAdmitted, Job: 99, Data: []byte("live")},
	}
	if err := j.Rotate(func() []Event { return snapshot }); err != nil {
		t.Fatal(err)
	}
	j.Append(Event{Type: JobPlanned, Job: 99})
	j.Close()

	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Fatalf("old segment survived rotation: %v", err)
	}
	got := replayAll(t, dir)
	if len(got) != 3 {
		t.Fatalf("replayed %d events, want 3 (snapshot + post-rotate append)", len(got))
	}
	if got[1].Job != 99 || string(got[1].Data) != "live" || got[2].Type != JobPlanned {
		t.Fatalf("got %+v, want snapshot then post-rotate append", got)
	}
}

func TestReplayMissingDir(t *testing.T) {
	if err := Replay(filepath.Join(t.TempDir(), "nope"), func(Event) error {
		t.Fatal("unexpected event")
		return nil
	}); err != nil {
		t.Fatalf("missing dir should replay zero events, got %v", err)
	}
}

// TestRotateRacingAppendsLosesNothing: writers each add a row and then
// append its record, as the MM's record does, while Rotate condenses the
// rows over and over. An append that races a rotation must land either
// in the state the snapshot reads or in the segment after it — never in
// the history the rotation deletes — so replay yields exactly the rows.
func TestRotateRacingAppendsLosesNothing(t *testing.T) {
	const writers, rotations = 4, 30
	dir := t.TempDir()
	j, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	rows := make(map[int]bool)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for row := w; ; row += writers {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				rows[row] = true
				mu.Unlock()
				if err := j.Append(Event{Type: JobAdmitted, Job: row}); err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched() // let the rotator in on one P
			}
		}(w)
	}
	// The snapshot reads the rows, then takes a moment to encode them,
	// as the MM's does: the writers keep going meanwhile.
	snapshot := func() []Event {
		mu.Lock()
		evs := make([]Event, 0, len(rows))
		for row := range rows {
			evs = append(evs, Event{Type: JobAdmitted, Job: row})
		}
		mu.Unlock()
		time.Sleep(100 * time.Microsecond)
		return evs
	}
	for r := 0; r < rotations; r++ {
		if err := j.Rotate(snapshot); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	replayed := make(map[int]bool)
	for _, ev := range replayAll(t, dir) {
		replayed[ev.Job] = true
	}
	if len(replayed) != len(rows) {
		t.Fatalf("replay holds %d of the %d rows after %d rotations", len(replayed), len(rows), rotations)
	}
}
