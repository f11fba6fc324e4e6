package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"time"

	"repro/internal/livenet"
	"repro/internal/livenet/chunkcache"
	"repro/internal/livenet/journal"
	"repro/internal/place"
)

// The probes time one layer on its own, through its exported API, in the
// traced run of the workloads that layer is predicted to move. Each runs
// for a fixed amount of work so its cost does not grow with --seconds.

func probeStatusQuery(r *run, cl *cluster, out map[string]stat) error {
	var us []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		if _, err := livenet.QueryStatus(cl.mms[0].Addr()); err != nil {
			return fmt.Errorf("status query: %w", err)
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	out["client.status_query_us_p50"] = summarize(us, 0.5, "us")
	return nil
}

// probePlace times one placement decision for an 8-node gang on a
// half-loaded cluster: Pick, Commit each member, Release each member.
func probePlace(r *run, _ *cluster, out map[string]stat) error {
	for _, n := range []int{64, 1024} {
		e := place.NewEngine(n)
		for id := 0; id < n; id++ {
			e.SetNode(id, place.Vec{CPU: 4, Mem: 8192, Net: 100})
			if id%2 == 0 {
				e.Commit(id, place.Vec{CPU: 1, Mem: 1024, Net: 10})
			}
		}
		demand := place.Vec{CPU: 1, Mem: 1024, Net: 10}
		const rounds = 2000
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			ids, err := e.Pick(8, demand, place.Spread, nil)
			if err != nil {
				return fmt.Errorf("place probe: %w", err)
			}
			for _, id := range ids {
				e.Commit(id, demand)
			}
			for _, id := range ids {
				e.Release(id, demand)
			}
		}
		out[fmt.Sprintf("place.pick_ns_%d", n)] = stat{Value: float64(time.Since(t0).Nanoseconds()) / rounds, Unit: "ns", N: rounds}
	}
	return nil
}

// probeChunkcache drives a memory-backed cache with 256 KiB chunks and a
// working set four times its capacity: Put streams the whole set through
// (every Put past the first quarter evicts), Get and Use hit the resident
// quarter.
func probeChunkcache(r *run, _ *cluster, out map[string]stat) error {
	const (
		chunk    = 256 << 10
		capacity = 16 << 20
		set      = 4 * capacity / chunk
	)
	c, err := chunkcache.New(capacity, "")
	if err != nil {
		return err
	}
	type id struct {
		hash uint64
		crc  uint32
	}
	data := make([][]byte, set)
	ids := make([]id, set)
	for i := range data {
		b := make([]byte, chunk)
		x := r.gen.Next()
		for k := 0; k < len(b); k += 8 {
			x = x*6364136223846793005 + 1442695040888963407
			binary.LittleEndian.PutUint64(b[k:], x)
		}
		data[i], ids[i] = b, id{chunkcache.Hash64(b), crc32.ChecksumIEEE(b)}
	}
	const passes = 2
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for i := range data {
			c.Put(ids[i].hash, ids[i].crc, data[i])
		}
	}
	out["chunkcache.put_mb_per_s"] = stat{Value: float64(passes*set*chunk) / 1e6 / time.Since(t0).Seconds(), Unit: "MB/s", N: passes * set}
	resident := ids[set-capacity/chunk:]
	dst := make([]byte, chunk)
	t0 = time.Now()
	for p := 0; p < passes; p++ {
		for _, k := range resident {
			if !c.Get(k.hash, k.crc, chunk, dst) {
				return fmt.Errorf("chunkcache probe: resident chunk missed")
			}
		}
	}
	out["chunkcache.get_mb_per_s"] = stat{Value: float64(passes*len(resident)*chunk) / 1e6 / time.Since(t0).Seconds(), Unit: "MB/s", N: passes * len(resident)}
	const uses = 200
	t0 = time.Now()
	for p := 0; p < uses; p++ {
		for _, k := range resident {
			if !c.Use(k.hash, k.crc, chunk) {
				return fmt.Errorf("chunkcache probe: resident chunk missed")
			}
		}
	}
	out["chunkcache.use_ns"] = stat{Value: float64(time.Since(t0).Nanoseconds()) / float64(uses*len(resident)), Unit: "ns", N: uses * len(resident)}
	return nil
}

func countEvents(dir string) (n int, err error) {
	err = journal.Replay(dir, func(journal.Event) error { n++; return nil })
	return n, err
}

// probeJournal times Append (each one flushes to the OS) and Replay on a
// journal of its own.
func probeJournal(r *run, _ *cluster, out map[string]stat) error {
	dir, err := tempDir("journal-probe")
	if err != nil {
		return err
	}
	j, err := journal.Open(dir)
	if err != nil {
		return err
	}
	const events = 2000
	payload := make([]byte, 256) // about the size of an encoded JobSpec
	var us []float64
	for i := 0; i < events; i++ {
		t0 := time.Now()
		if err := j.Append(journal.Event{Type: journal.JobAdmitted, Job: i, Data: payload}); err != nil {
			return err
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	if err := j.Close(); err != nil {
		return err
	}
	out["journal.append_us_p50"] = summarize(us, 0.5, "us")
	t0 := time.Now()
	n, err := countEvents(dir)
	if err != nil || n != events {
		return fmt.Errorf("journal probe: replayed %d of %d events: %v", n, events, err)
	}
	out["journal.replay_events_per_s"] = stat{Value: events / time.Since(t0).Seconds(), Unit: "1/s", N: events}
	return os.RemoveAll(dir)
}
