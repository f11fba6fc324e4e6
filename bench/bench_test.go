package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestCatalogueMatchesBenchmarkJSON keeps the program and BENCHMARK.json
// from drifting apart: same workloads and reasons, same metric names,
// units, directions and bounds, in the same order.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, program has %d", len(spec.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for i, w := range spec.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, program has %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: declared %+v, program %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q bound %g outside the contract", m.Name, m.Unit, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, program has %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		name(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: declared %+v, program %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q better %q outside the contract", m.Name, m.Unit, m.Better)
		}
	}
}

// inTempDir runs the rest of the test from a directory of its own, so what
// the run writes under scratchDir does not land beside the sources.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
}

// TestSmoke runs every workload once, traced, for a tenth of a second,
// and checks that it is correct and that both result lines carry exactly
// the declared names. An untraced run differs only in spending the whole
// window untraced and in repeating the set-up, so the traced run's
// untraced half stands in for it here.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	// The full quick suite is ~5 s a pass; the smoke run keeps the cheap
	// two thirds of it.
	full := simIDs
	simIDs = func() []string {
		var ids []string
		for _, id := range full() {
			switch id {
			case "fig4", "policycmp", "table8", "interactive", "fig5":
			default:
				ids = append(ids, id)
			}
		}
		return ids
	}
	defer func() { simIDs = full }()
	inTempDir(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			if raceEnabled && (w.name == "tenants64" || w.name == "faulty16") {
				t.Skip("the heartbeat detector convicts healthy nodes when the race detector slows the process fivefold")
			}
			r, rec, err := measure(w, 42, 0.1, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rec.fails {
				t.Error("failed:", f)
			}
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				res := r.result(rec, defs)
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result %+v", res)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics in the result, %d declared", len(res.Metrics), len(defs))
				}
			}
			for _, d := range endToEnd {
				if r.out[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %g; it must never be 0", d.Name, r.out[d.Name].Value)
				}
			}
			for n := range r.out {
				found := false
				for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
					found = found || d.Name == n
				}
				if !found {
					t.Errorf("program computed %q, which BENCHMARK.json does not declare", n)
				}
			}
		})
	}
}

// TestWrongExpectationIsCaught demands zero streamed chunks of a cold
// launch: the gate must count it as failed and the run must turn
// incorrect, which is what makes the exit status non-zero.
func TestWrongExpectationIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 16-node cluster; skipped with -short")
	}
	r := &run{workload: "cold16", seed: 1, crcs: make(map[imageKey]uint32), out: make(map[string]stat)}
	cl, err := build16(r)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	rec := newRecorder()
	spec := exitJob("wrong", image16, nodes16, 7)
	if r.launch(cl, rec, nil, "cold", spec, cl.submitDirect, expect{chunksSent: 0, victim: -1}) {
		t.Fatal("a cold launch passed the check that it streamed 0 chunks")
	}
	if res := r.result(rec, endToEnd); res.Correct || res.Failed != 1 || res.Attempted != 1 {
		t.Fatalf("result %+v, want incorrect with 1 of 1 failed", res)
	}
	// The same launch under the right expectation passes, and a second
	// delivery of the same content must reproduce the first one's CRC.
	for i := 0; i < 2; i++ {
		if !r.launch(cl, rec, nil, "cold", spec, cl.submitDirect, anyChunks) {
			t.Fatalf("launch %d failed: %v", i, rec.fails)
		}
	}
	r.crcs[keyOf(spec)] ^= 1
	if r.launch(cl, rec, nil, "cold", spec, cl.submitDirect, anyChunks) {
		t.Fatal("a CRC that changed between two deliveries of one image went unnoticed")
	}
}

// TestJudge feeds -compare's and -selfcheck's verdicts two hand-made
// results: what the reviewer of a later change relies on is that a doubled
// count, a slower launch, a new failure and a drifting exact count are all
// called out, and that noise within bound and slack is not.
func TestJudge(t *testing.T) {
	suite := func(failed int, metrics map[string]float64) *suiteResult {
		wr := &workloadResult{Correct: failed == 0, Attempted: 100, Failed: failed,
			EndToEnd: make(map[string]spread), PerLayer: make(map[string]spread)}
		for name, v := range metrics {
			wr.PerLayer[name] = spreadOf("", []float64{v})
		}
		return &suiteResult{Stamp: stamp{Seed: 1, Runs: 1}, Workloads: map[string]*workloadResult{"cold16": wr}}
	}
	base := map[string]float64{"setup_s": 0.10, "op_ms_p50": 30, "cold_launch_ms_p50": 30,
		"mm_egress_kb_per_launch": 8193.5, "stream.chunks_sent_per_launch": 16}
	with := func(name string, v float64) map[string]float64 {
		m := make(map[string]float64)
		for k, x := range base {
			m[k] = x
		}
		m[name] = v
		return m
	}
	for _, c := range []struct {
		name      string
		now       *suiteResult
		symmetric bool
		bad       bool
	}{
		{"identical", suite(0, base), false, false},
		{"set-up 3x slower but within the absolute slack", suite(0, with("setup_s", 0.30)), false, false},
		{"set-up beyond bound and slack", suite(0, with("setup_s", 0.50)), false, true},
		{"end-to-end median within its bound", suite(0, with("op_ms_p50", 36)), false, false},
		{"issue-bounded per-layer median beyond 0.10", suite(0, with("cold_launch_ms_p50", 34)), false, true},
		{"faster is not worse", suite(0, with("cold_launch_ms_p50", 20)), false, false},
		{"faster differs, between two sets of one build", suite(0, with("cold_launch_ms_p50", 20)), true, true},
		{"MM egress doubled", suite(0, with("mm_egress_kb_per_launch", 16387)), false, true},
		{"exact count one higher", suite(0, with("stream.chunks_sent_per_launch", 17)), false, true},
		{"exact count one lower, between two sets of one build", suite(0, with("stream.chunks_sent_per_launch", 15)), true, true},
		{"a failed launch", suite(1, base), false, true},
	} {
		if got := judge(suite(0, base), c.now, c.symmetric); got != c.bad {
			t.Errorf("%s: judged bad=%v, want %v", c.name, got, c.bad)
		}
	}
}

// TestWithin: the watchdog abandons a call that never returns and does not
// cut short one that does.
func TestWithin(t *testing.T) {
	if within(10*time.Millisecond, func() { select {} }) {
		t.Error("a call that blocks forever was reported as returned")
	}
	if !within(5*time.Second, func() {}) {
		t.Error("a call that returns at once was reported as hung")
	}
}
