// Command bench is the repository's benchmark: six seeded workloads over
// the live cluster (in-process, loopback TCP) and the simulator, each
// reporting the end-to-end and per-layer metrics BENCHMARK.json declares
// and checking that what the system delivered is correct.
//
//	bash bench/run.sh --workload cold16 --seed 7 --seconds 12 --trace 0
//	bash bench/run.sh -seed 7 -out result.json        # all workloads, both passes
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/rng"
)

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// value is a metric as the result line carries it; the quartiles and the
// sample count stay in the table above the line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// scratchDir, under the directory the benchmark is run from, holds the
// journals, span files and temporary state of a run; run.sh builds there too.
const scratchDir = ".bench_build"

// tempRoot is this process's corner of scratchDir; measure removes it.
func tempRoot() string { return filepath.Join(scratchDir, fmt.Sprintf("tmp-%d", os.Getpid())) }

func tempDir(name string) (string, error) {
	dir := tempRoot()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, name+"-")
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// measure runs one workload in this process.
func measure(w *workloadDef, seed uint64, seconds float64, trace bool) (*run, *recorder, error) {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, nil, err
	}
	r := &run{workload: w.name, seed: seed, seconds: seconds, trace: trace,
		crcs: make(map[imageKey]uint32), out: make(map[string]stat)}
	// One generator per (seed, workload): every image, job mix, victim and
	// arrival order derives from it.
	h := fnv.New64a()
	h.Write([]byte(w.name))
	r.gen = rng.SplitMix64(rng.Mix64(seed) ^ h.Sum64())
	rec, err := w.run(r)
	os.RemoveAll(tempRoot())
	if err != nil {
		return r, rec, err
	}
	r.out["setup_s"] = summarize(r.setups, 0.5, "s")
	r.out["peak_rss_mb"] = stat{Value: peakRSSMB(), Unit: "MB"}
	teardownMu.Lock()
	r.out["proc.teardown_hung"] = stat{Value: float64(teardownHung), Unit: "count"}
	teardownMu.Unlock()
	return r, rec, nil
}

// result is the run's result line: the end-to-end metrics of an untraced
// run or the per-layer metrics of a traced one, every declared name
// present. A metric that does not apply to the workload stays 0.
func (r *run) result(rec *recorder, defs []metricDef) result {
	res := result{Correct: rec.failed == 0, Attempted: rec.ops + rec.failed + rec.known, Failed: rec.failed,
		Metrics: make(map[string]value)}
	for _, d := range defs {
		res.Metrics[d.Name] = value{r.out[d.Name].Value, d.Unit}
	}
	return res
}

// runOne executes one workload and prints its metrics: a table for
// people, then the one-line JSON object for the driver.
func runOne(w *workloadDef, seed uint64, seconds float64, trace bool) int {
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v\n", w.name, seed, seconds, trace)
	fmt.Println("load: one process, in-process cluster on loopback TCP (not a real link); closed loop")
	// The last resort against a hang inside the program under test: no
	// result is better than a pipeline that never ends.
	deadline := time.Duration(seconds*float64(time.Second)) + 2*time.Minute
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "bench: %s: still running after %v, giving up\n", w.name, deadline)
		os.Exit(3)
	})
	r, rec, err := measure(w, seed, seconds, trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", w.name+":", err)
		return 2
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	fmt.Printf("%-42s %-6s %14s %12s %12s %7s\n", "metric", "unit", "value", "q1", "q3", "n")
	for _, d := range defs {
		s := r.out[d.Name]
		q1, q3, n := "", "", ""
		if s.N > 0 {
			n = fmt.Sprint(s.N)
		}
		if s.Q1 != 0 || s.Q3 != 0 {
			q1, q3 = fmt.Sprintf("%.4f", s.Q1), fmt.Sprintf("%.4f", s.Q3)
		}
		fmt.Printf("%-42s %-6s %14.4f %12s %12s %7s\n", d.Name, d.Unit, s.Value, q1, q3, n)
	}
	for _, f := range rec.fails {
		fmt.Println("FAILED:", f)
	}
	for _, k := range rec.knowns {
		fmt.Println("KNOWN DEFECT (counted, not failed):", k)
	}
	teardownMu.Lock()
	if teardownHung > 0 {
		fmt.Printf("teardown: %d Close call(s) hung past %v and were abandoned: %s\n",
			teardownHung, closeTimeout, strings.Join(hungNames, ", "))
	}
	teardownMu.Unlock()
	res := r.result(rec, defs)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Uint64("seed", 1, "workload seed: same seed, same inputs")
		seconds   = flag.Float64("seconds", defaultSeconds, "measured time per run")
		trace     = flag.Int("trace", 0, "single workload: 0 prints the end-to-end metrics of an untraced run, 1 the per-layer metrics of a traced one")
		runs      = flag.Int("runs", 1, "all workloads: runs per workload, seeds seed..seed+runs-1")
		out       = flag.String("out", "", "all workloads: write the result JSON here and append a line to bench/history.jsonl")
		compare   = flag.String("compare", "", "all workloads: judge the new result against this earlier result JSON, metric by metric, by their bounds")
		selfcheck = flag.Bool("selfcheck", false, "make two interleaved sets of runs of every workload and fail if a judged metric differs between them by more than its bound")
	)
	flag.Parse()
	code := 0
	switch {
	case *selfcheck:
		code = runSelfcheck(*seed, *seconds, *runs)
	case *workload != "all":
		w := findWorkload(*workload)
		if w == nil {
			names := make([]string, 0, len(workloads))
			for _, w := range workloads {
				names = append(names, w.name)
			}
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (known: %s)\n", *workload, strings.Join(names, ", "))
			os.Exit(2)
		}
		code = runOne(w, *seed, *seconds, *trace != 0)
	default:
		code = runSuite(*seed, *seconds, *runs, *out, *compare)
	}
	// Always leave through os.Exit: a Close abandoned by the teardown
	// watchdog may still hold goroutines that would never let main return.
	os.Exit(code)
}
