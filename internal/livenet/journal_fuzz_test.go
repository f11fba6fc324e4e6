package livenet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/livenet/journal"
)

// segmentOf is the journal segment Append writes for evs.
func segmentOf(tb testing.TB, evs ...journal.Event) []byte {
	tb.Helper()
	dir := tb.TempDir()
	j, err := journal.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, ev := range evs {
		if err := j.Append(ev); err != nil {
			tb.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "journal-000001.wal"))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzJournalReplay feeds arbitrary bytes to journal.Replay as a segment
// file, every JobAdmitted payload going through decodeSpec as it does in
// the MM's openJournal. Nothing may panic; replay and the spec decoder
// allocate within a constant factor of the input; and replay stops
// exactly at the first torn or corrupt frame — the events it delivered,
// appended to a fresh journal, are byte for byte a prefix of the input,
// and what follows that prefix replays to nothing. The committed corpus
// (testdata/fuzz/FuzzJournalReplay) holds a gob-era segment and the torn,
// corrupt and mis-sized frames; the seeds added here are encoded by the
// codec under test.
func FuzzJournalReplay(f *testing.F) {
	spec := JobSpec{Name: "queued", BinaryBytes: 64 << 10, Nodes: 2, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "sleep", Duration: 5 * time.Millisecond}, ImageSeed: 7,
		ImagePatch: map[int]uint64{1: 9}, User: "alice", Weight: 2, Place: []int{0, 1}}
	seg := segmentOf(f,
		journal.Event{Type: journal.NodeJoin, Node: 0},
		journal.Event{Type: journal.JobAdmitted, Job: 1, Data: encodeSpec(&spec)},
		journal.Event{Type: journal.JobStreaming, Job: 1},
		journal.Event{Type: journal.JobFailed, Job: 2, Data: []byte("interrupted by MM restart")})
	f.Add(seg)
	f.Add(seg[:len(seg)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		replay := func(b []byte) []journal.Event {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "journal-000001.wal"), b, 0o644); err != nil {
				t.Fatal(err)
			}
			var evs []journal.Event
			if err := journal.Replay(dir, func(ev journal.Event) error {
				evs = append(evs, ev)
				if ev.Type == journal.JobAdmitted {
					decodeSpec(ev.Data)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return evs
		}
		var evs []journal.Event
		if got := allocBytes(func() { evs = replay(data) }); got > 64*uint64(len(data))+64<<10 {
			t.Fatalf("replay allocated %d bytes over a %d-byte segment", got, len(data))
		}
		written := segmentOf(t, evs...)
		if !bytes.HasPrefix(data, written) {
			t.Fatalf("the %d events replayed rewrite to %d bytes that are no prefix of the input", len(evs), len(written))
		}
		if rest := replay(data[len(written):]); len(rest) != 0 {
			t.Fatalf("replay stopped after %d events, before %d more intact ones", len(evs), len(rest))
		}
	})
}

// TestJournalGobEraSpecSkipped: a queued job journaled before the codec
// change carries a gob spec. The journal still replays, and the job is
// not resumed — its payload fails decodeSpec and takes the torn-payload
// path — while a spec journaled now decodes to what was admitted.
func TestJournalGobEraSpecSkipped(t *testing.T) {
	dir := t.TempDir()
	seg, err := os.ReadFile("testdata/journal_gob_era.wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal-000001.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	admitted := 0
	if err := journal.Replay(dir, func(ev journal.Event) error {
		if ev.Type == journal.JobAdmitted {
			admitted++
			if _, err := decodeSpec(ev.Data); err == nil {
				t.Error("a gob-era spec decoded")
			}
		}
		return nil
	}); err != nil || admitted != 1 {
		t.Fatalf("replayed %d admissions (%v), want 1", admitted, err)
	}
	mm, err := NewMM("127.0.0.1:0", MMConfig{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	if rj := mm.RecoveredJobs(); len(rj) != 0 {
		t.Fatalf("resumed %d gob-era jobs", len(rj))
	}

	spec := JobSpec{Name: "now", Nodes: 3, ImagePatch: map[int]uint64{2: 5}, Place: []int{4, 1, 2}}
	if got, err := decodeSpec(encodeSpec(&spec)); err != nil || got.Name != "now" || got.ImagePatch[2] != 5 || len(got.Place) != 3 {
		t.Fatalf("journaled spec came back as %+v (%v)", got, err)
	}
}

// TestJournalCleanLaunchRecords: one clean launch on two stripes
// journals its job once per phase, in the state machine's order — the
// two stripes that each start streaming write one record — and nothing
// besides but the NMs' joins.
func TestJournalCleanLaunchRecords(t *testing.T) {
	cfg := chaosMMConfig()
	cfg.JournalDir = t.TempDir()
	cfg.Stripes = 2
	mm, _, shutdown := chaosCluster(t, 4, cfg, nil)
	rep, err := mm.RunJob(JobSpec{Name: "clean", BinaryBytes: 256 << 10, Nodes: 4, PEsPerNode: 1,
		Program: ProgramSpec{Kind: "exit"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.StripeReplans) != 2 || rep.Replans != 0 || len(rep.Failed) != 0 {
		t.Fatalf("want a clean launch on 2 stripes, got %+v", rep)
	}
	shutdown()
	var got []journal.EventType
	if err := journal.Replay(cfg.JournalDir, func(ev journal.Event) error {
		switch {
		case ev.Job == rep.JobID:
			got = append(got, ev.Type)
		case ev.Type != journal.NodeJoin:
			t.Errorf("stray record %v (job %d, node %d)", ev.Type, ev.Job, ev.Node)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []journal.EventType{journal.JobAdmitted, journal.JobPlanned, journal.JobManifest,
		journal.JobStreaming, journal.JobLaunched, journal.JobDone}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("job %d journaled %v, want %v", rep.JobID, got, want)
	}
}

// TestJournalOldSegmentReplays: testdata/journal_da3875c.wal was written
// by the MM of commit da3875c, before JobStreaming existed and while
// replans still journaled JobEpoch; it holds epochs, manifests,
// launches, a done job, a failed admission and every membership record.
// Today's MM must decide what that MM decided on the same segment: it
// resumes the two jobs admitted and never placed (5 and 7), and fails
// durably, in journal order, each job past placement that did not
// finish (2, 3, 4, 8 and 9).
func TestJournalOldSegmentReplays(t *testing.T) {
	dir := t.TempDir()
	seg, err := os.ReadFile("testdata/journal_da3875c.wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal-000001.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	old := 0
	if err := journal.Replay(dir, func(journal.Event) error { old++; return nil }); err != nil {
		t.Fatal(err)
	}
	mm, err := NewMM("127.0.0.1:0", MMConfig{JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var recovered []string
	for _, rj := range mm.RecoveredJobs() {
		recovered = append(recovered, fmt.Sprintf("%d:%s/%d", rj.ID, rj.Spec.Name, rj.Spec.Nodes))
	}
	mm.Close()
	if want := "[5:queued-a/1 7:queued-b/2]"; fmt.Sprint(recovered) != want {
		t.Fatalf("recovered %v, want %s", recovered, want)
	}
	var failed []string
	n := 0
	if err := journal.Replay(dir, func(ev journal.Event) error {
		if n++; n > old {
			failed = append(failed, fmt.Sprintf("%v %d %s", ev.Type, ev.Job, ev.Data))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, id := range []int{2, 3, 4, 8, 9} {
		want = append(want, fmt.Sprintf("job-failed %d interrupted by MM restart", id))
	}
	if fmt.Sprint(failed) != fmt.Sprint(want) {
		t.Fatalf("restart appended %q, want %q", failed, want)
	}
}
