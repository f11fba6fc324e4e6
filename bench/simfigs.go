package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// The experiment families the per-layer list times on their own.
var (
	launchFamily = []string{"fig2", "fig3", "fig8"}
	gangFamily   = []string{"fig4", "fig5", "table8"}
)

// simIDs is the experiment set of sim_figs: every registered ID. The
// smoke test narrows it, because the full quick suite takes ~5 s a pass.
var simIDs = experiments.IDs

// simPass is one pass over the experiment set.
type simPass struct {
	wall   time.Duration
	events uint64
	hash   uint64             // over every result table, text block and note
	perID  map[string]float64 // seconds
}

func runSimPass(seed uint64, ids []string, workers int, tr *tracer, pass int) (simPass, error) {
	p := simPass{perID: make(map[string]float64)}
	var events atomic.Uint64
	h := fnv.New64a()
	t0 := time.Now()
	for _, id := range ids {
		t1 := time.Now()
		res, err := experiments.Run(id, experiments.Options{Quick: true, Seed: seed, Workers: workers, Events: &events})
		if err != nil {
			return p, err
		}
		t2 := time.Now()
		p.perID[id] = t2.Sub(t1).Seconds()
		if tr != nil {
			tr.add(span{Job: pass, Name: id, Parent: "pass", StartUS: tr.us(t1), EndUS: tr.us(t2)})
		}
		fmt.Fprintf(h, "%s\n", id)
		for _, t := range res.Tables {
			fmt.Fprintf(h, "%s\n", t.String())
		}
		for _, s := range append(res.Text, res.Notes...) {
			fmt.Fprintf(h, "%s\n", s)
		}
	}
	p.wall, p.events, p.hash = time.Since(t0), events.Load(), h.Sum64()
	if tr != nil {
		tr.add(span{Job: pass, Name: "pass", StartUS: tr.us(t0), EndUS: tr.us(t0.Add(p.wall)),
			Counts: map[string]float64{"events": float64(p.events), "workers": float64(workers)}})
	}
	return p, nil
}

func familySeconds(p simPass, ids []string) float64 {
	total := 0.0
	for _, id := range ids {
		total += p.perID[id]
	}
	return total
}

// simOp is the unit of work sim_figs reports against: ten million
// dispatched simulation events. A pass is not a fixed amount of work —
// policycmp alone simulates 2.4x more under one seed than another — so
// the end-to-end metrics are per simOp, which lets seeds vary the inputs
// without varying what the numbers mean.
const simOp = 1e7

// runSimFigs repeats the quick experiment suite under the run's seed.
// Set-up is a pass over the launch family alone (page-in, heap growth,
// lazy tables). Every pass must produce the same result tables and the
// same event count as the first; the traced run's second pass uses one
// worker instead of nproc, which must not change them either.
func runSimFigs(r *run) (*recorder, error) {
	ids := simIDs()
	workers := runtime.NumCPU()
	repeats := setupRepeats
	if r.trace {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		if _, err := runSimPass(r.seed, launchFamily, workers, nil, 0); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}

	rec := newRecorder()
	var tr *tracer
	if r.trace {
		tr = newTracer()
	}
	before := snapshot(nil, true)
	var passes []simPass
	var events, parallelEvents uint64
	var parallelWall time.Duration
	want := 2 // there must be something to compare
	for len(passes) < want {
		w := workers
		if r.trace && len(passes) == 1 {
			w = 1
		}
		p, err := runSimPass(r.seed, ids, w, tr, len(passes))
		if err != nil {
			rec.fail("pass %d: %v", len(passes), err)
			break
		}
		if len(passes) > 0 && (p.hash != passes[0].hash || p.events != passes[0].events) {
			rec.fail("pass %d (%d workers): tables hash %x events %d, first pass %x events %d",
				len(passes), w, p.hash, p.events, passes[0].hash, passes[0].events)
		} else {
			rec.ops++
		}
		if len(passes) == 0 && !r.trace {
			// As many passes as fit the budget, judged by the first.
			if n := int(r.seconds / p.wall.Seconds()); n > want {
				want = n
			}
		}
		passes = append(passes, p)
		events += p.events
		if w == workers {
			rec.lat["simop"] = append(rec.lat["simop"], ms(p.wall)/(float64(p.events)/simOp))
			parallelEvents += p.events
			parallelWall += p.wall
		}
	}
	after := snapshot(nil, false)
	if len(rec.lat["simop"]) == 0 || events == 0 {
		return rec, fmt.Errorf("no pass completed: %v", rec.fails)
	}
	out := r.out
	n := len(passes)
	simOps := float64(events) / simOp
	out["op_ms_p50"] = summarize(rec.lat["simop"], 0.5, "ms")
	out["ops_per_s"] = stat{Value: simOps / after.at.Sub(before.at).Seconds(), Unit: "1/s", N: n}
	if !r.trace {
		return rec, nil
	}
	out["proc.cpu_ms_per_op"] = stat{Value: ms(after.cpu-before.cpu) / simOps, Unit: "ms", N: n}
	first := passes[0]
	out["sim_suite_s"] = stat{Value: first.wall.Seconds(), Unit: "s"}
	out["sim_events_per_s"] = stat{Value: float64(parallelEvents) / parallelWall.Seconds(), Unit: "1/s"}
	out["sim.suite_events"] = stat{Value: float64(first.events), Unit: "count"}
	out["experiments.launch_family_s"] = stat{Value: familySeconds(first, launchFamily), Unit: "s"}
	out["experiments.gang_family_s"] = stat{Value: familySeconds(first, gangFamily), Unit: "s"}
	slowest := 0.0
	for _, s := range first.perID {
		if s > slowest {
			slowest = s
		}
	}
	out["experiments.slowest_s"] = stat{Value: slowest, Unit: "s"}
	out["failed_share"] = stat{Value: 100 * float64(rec.failed) / float64(rec.ops+rec.failed), Unit: "%", N: rec.ops + rec.failed}
	out["proc.allocs_per_launch"] = stat{Value: float64(after.mem.Mallocs-before.mem.Mallocs) / float64(n), Unit: "count"}
	out["proc.alloc_kb_per_launch"] = stat{Value: float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / float64(n), Unit: "KB"}
	out["proc.gc_pause_ms"] = stat{Value: float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6, Unit: "ms"}
	probeSimKernel(out)
	return rec, r.finishTrace(tr)
}

// probeSimKernel times the bare event kernel: a chain of timers and two
// processes handing control back and forth, nothing of STORM on top.
func probeSimKernel(out map[string]stat) {
	const rounds = 200_000
	env := sim.NewEnv()
	var tick func()
	left := rounds
	tick = func() {
		if left--; left > 0 {
			env.After(sim.Microsecond, tick)
		}
	}
	env.After(sim.Microsecond, tick)
	for i := 0; i < 2; i++ {
		env.Spawn(fmt.Sprintf("pingpong%d", i), func(p *sim.Proc) {
			for k := 0; k < rounds/2; k++ {
				p.Wait(sim.Microsecond)
			}
		})
	}
	t0 := time.Now()
	env.Run()
	el := time.Since(t0).Seconds()
	out["sim.kernel_events_per_s"] = stat{Value: float64(env.EventsRun()) / el, Unit: "1/s", N: int(env.EventsRun())}
}
