package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// stamp says where and from what a result came.
type stamp struct {
	When       string  `json:"when"`
	Host       string  `json:"host"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs"`
	Load       string  `json:"load"`
}

func newStamp(seed uint64, seconds float64, runs int) stamp {
	s := stamp{When: time.Now().UTC().Format(time.RFC3339), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown",
		Seed: seed, Seconds: seconds, Runs: runs,
		Load: "one process per run, in-process cluster on loopback TCP (not a real link), closed loop"}
	s.Host, _ = os.Hostname()
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			s.Dirty = len(bytes.TrimSpace(st)) > 0
		}
	}
	return s
}

// spread is one metric of one workload across the runs of a suite.
type spread struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func spreadOf(unit string, values []float64) spread {
	q1, q2, q3 := pyQuartiles(values)
	return spread{Unit: unit, Median: q2, Q1: q1, Q3: q3, N: len(values), Values: values}
}

type workloadResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]spread `json:"end_to_end"`
	PerLayer  map[string]spread `json:"per_layer,omitempty"`
}

type suiteResult struct {
	Stamp     stamp                      `json:"stamp"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// child runs one workload in a process of its own — the driver's unit,
// so peak RSS and teardown never leak from one workload into the next —
// and parses the result line.
func child(workload string, seed uint64, seconds float64, trace int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return result{}, fmt.Errorf("%s seed %d: no result line (%v): %v", workload, seed, err, jerr)
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "FAILED:") || strings.HasPrefix(l, "KNOWN DEFECT") || strings.HasPrefix(l, "teardown:") {
			fmt.Printf("  %s seed %d: %s\n", workload, seed, l)
		}
	}
	return res, nil
}

// runSets makes `sets` sets of runs of every workload: runs times each
// untraced and as many times again traced, folded into medians and
// quartiles. With two sets (the agreement check) the sets' runs of one seed
// follow each other directly, alternating which set goes first, so that a
// host that changes speed over minutes slows both sets alike.
func runSets(sets int, seed uint64, seconds float64, runs int) ([]*suiteResult, bool) {
	srs := make([]*suiteResult, sets)
	for s := range srs {
		srs[s] = &suiteResult{Stamp: newStamp(seed, seconds, runs), Workloads: make(map[string]*workloadResult)}
	}
	ok := true
	for wi, w := range workloads {
		for s := range srs {
			srs[s].Workloads[w.name] = &workloadResult{Correct: true}
		}
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			values := make([]map[string][]float64, sets)
			for s := range values {
				values[s] = make(map[string][]float64)
			}
			for i := 0; i < runs; i++ {
				for k := 0; k < sets; k++ {
					s := k
					if (wi+trace+i)%2 == 1 {
						s = sets - 1 - k
					}
					wr := srs[s].Workloads[w.name]
					fmt.Printf("run: %-10s seed %d trace %d set %d\n", w.name, seed+uint64(i), trace, s)
					res, err := child(w.name, seed+uint64(i), seconds, trace)
					if err != nil {
						fmt.Println("  error:", err)
						wr.Correct = false
						continue
					}
					wr.Attempted += res.Attempted
					wr.Failed += res.Failed
					wr.Correct = wr.Correct && res.Correct
					for _, d := range defs {
						values[s][d.Name] = append(values[s][d.Name], res.Metrics[d.Name].Value)
					}
				}
			}
			for s := range srs {
				out := make(map[string]spread)
				for _, d := range defs {
					out[d.Name] = spreadOf(d.Unit, values[s][d.Name])
				}
				if wr := srs[s].Workloads[w.name]; trace == 0 {
					wr.EndToEnd = out
				} else {
					wr.PerLayer = out
				}
			}
		}
		for s := range srs {
			ok = ok && srs[s].Workloads[w.name].Correct
		}
	}
	return srs, ok
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func printSuite(sr *suiteResult) {
	for _, name := range workloadNames() {
		wr := sr.Workloads[name]
		if wr == nil {
			continue
		}
		fmt.Printf("\n== %s: attempted %d, failed %d, correct %v\n", name, wr.Attempted, wr.Failed, wr.Correct)
		fmt.Printf("%-42s %-6s %14s %14s %14s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
		// A per-layer metric that is 0 in every run does not apply to the
		// workload; the table leaves it out.
		row := func(defs []metricDef, m map[string]spread) {
			for _, d := range defs {
				if s, ok := m[d.Name]; ok && (s.Median != 0 || s.Q1 != 0 || s.Q3 != 0) {
					fmt.Printf("%-42s %-6s %14.4f %14.4f %14.4f %4d\n", d.Name, d.Unit, s.Median, s.Q1, s.Q3, s.N)
				}
			}
		}
		row(endToEnd, wr.EndToEnd)
		row(perLayer, wr.PerLayer)
	}
}

func loadSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sr suiteResult
	if err := json.Unmarshal(data, &sr); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sr, nil
}

// writeResult writes the result JSON and appends one compact line — the
// stamp and every end-to-end median — to history.jsonl beside this
// program's sources.
func writeResult(sr *suiteResult, path string) error {
	data, err := json.MarshalIndent(sr, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	type line struct {
		Stamp    stamp                         `json:"stamp"`
		EndToEnd map[string]map[string]float64 `json:"end_to_end"`
	}
	l := line{Stamp: sr.Stamp, EndToEnd: make(map[string]map[string]float64)}
	for name, wr := range sr.Workloads {
		l.EndToEnd[name] = make(map[string]float64)
		for m, s := range wr.EndToEnd {
			l.EndToEnd[name][m] = s.Median
		}
	}
	data, err = json.Marshal(l)
	if err != nil {
		return err
	}
	hist := filepath.Join("bench", "history.jsonl")
	if _, err := os.Stat("bench"); err != nil {
		hist = "history.jsonl" // run from inside bench/
	}
	f, err := os.OpenFile(hist, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.Write(data)
	w.WriteByte('\n')
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// worseBy is how far now is on the wrong side of base, in the metric's unit
// (negative when it is better).
func worseBy(d metricDef, base, now float64) float64 {
	if d.Better == "higher" {
		return base - now
	}
	return now - base
}

// judge prints one row per judged metric x workload and returns whether any
// row is bad. Judged are the end-to-end metrics, by BENCHMARK.json's bounds;
// the per-layer metrics that carry the issue's bound; the exact counts, on
// the workloads whose launches are all alike (identical where the two sides
// ran the same seeds, by their bound otherwise); and each workload's share
// of failed operations, which may not grow. A bounded metric is bad when the new median is beyond
// bound and slack — in the worse direction only, or, with symmetric set (two
// sets of runs of one build), in either. It is unresolved when either side's
// own run-to-run spread (interquartile distance over its median) is wider
// than the bound, so the difference cannot be told from noise. Every ratio
// is given with its base.
func judge(old, now *suiteResult, symmetric bool) (bad bool) {
	good, badWord := "same", "worse"
	if symmetric {
		good, badWord = "agree", "DIFFER"
	}
	sameSeeds := old.Stamp.Seed == now.Stamp.Seed && old.Stamp.Runs == now.Stamp.Runs
	fmt.Printf("%-10s %-30s %14s %14s %9s %6s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	row := func(name, metric string, a, b float64, bound, verdict string) {
		ratio := "-"
		if a != 0 {
			ratio = fmt.Sprintf("%.3f", b/a)
		}
		fmt.Printf("%-10s %-30s %14.4f %14.4f %9s %6s  %s\n", name, metric, a, b, ratio, bound, verdict)
		bad = bad || strings.HasPrefix(verdict, badWord)
	}
	for _, w := range workloads {
		o, n := old.Workloads[w.name], now.Workloads[w.name]
		if o == nil || n == nil {
			continue
		}
		verdict := good
		oShare, nShare := share(o), share(n)
		if nShare > oShare || !n.Correct || (symmetric && !o.Correct) {
			verdict = badWord
		}
		row(w.name, "failed_share", 100*oShare, 100*nShare, "0", verdict)
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			a, b := o.spread(d.Name), n.spread(d.Name)
			exact := d.Exact && sameSeeds
			switch {
			case d.Exact && !w.exactCounts:
				continue // here the count depends on timing: reported, not judged
			case !exact && d.Bound == 0, a.N == 0 || b.N == 0, a.Median == 0 && b.Median == 0:
				continue // not judged, not measured, or not applicable here
			case a.Median == 0 || b.Median == 0:
				row(w.name, d.Name, a.Median, b.Median, "", "unresolved (0 on one side)")
				continue
			}
			worse := worseBy(d, a.Median, b.Median)
			if symmetric && worse < 0 {
				worse = -worse
			}
			bound := fmt.Sprintf("%.2f", d.Bound)
			noisy := func(s spread) bool { return s.N >= 4 && (s.Q3-s.Q1)/s.Median > d.Bound }
			verdict = good
			switch {
			case exact:
				bound = "exact"
				if worse > 0 {
					verdict = badWord
				}
			case noisy(a) || noisy(b):
				verdict = "unresolved"
			case worse > d.Bound*a.Median && worse > d.Slack:
				verdict = badWord
			}
			if !exact && (a.N < 4 || b.N < 4) {
				verdict += " (n<4: spread unknown)"
			}
			row(w.name, d.Name, a.Median, b.Median, bound, verdict)
		}
	}
	return bad
}

// share is the workload's failed operations over those attempted.
func share(wr *workloadResult) float64 {
	if wr.Attempted == 0 {
		return 0
	}
	return float64(wr.Failed) / float64(wr.Attempted)
}

// spread looks a metric up in either list.
func (wr *workloadResult) spread(name string) spread {
	if s, ok := wr.EndToEnd[name]; ok {
		return s
	}
	return wr.PerLayer[name]
}

func runSuite(seed uint64, seconds float64, runs int, out, compare string) int {
	srs, ok := runSets(1, seed, seconds, runs)
	sr := srs[0]
	printSuite(sr)
	if out != "" {
		if err := writeResult(sr, out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if compare != "" {
		old, err := loadSuite(compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		fmt.Printf("\ncompare: base %s seed %d (%d run(s)) vs new %s seed %d (%d run(s))\n",
			old.Stamp.Commit, old.Stamp.Seed, old.Stamp.Runs, sr.Stamp.Commit, sr.Stamp.Seed, sr.Stamp.Runs)
		if judge(old, sr, false) {
			ok = false
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runSelfcheck is the agreement check: the same build, the same seeds, two
// sets of runs interleaved; any judged metric whose two medians differ by
// more than its own bound, in either direction, fails it.
func runSelfcheck(seed uint64, seconds float64, runs int) int {
	srs, ok := runSets(2, seed, seconds, runs)
	fmt.Printf("\nselfcheck: %d run(s) per workload per set, %g s each\n", runs, seconds)
	if judge(srs[0], srs[1], true) || !ok {
		fmt.Println("selfcheck: FAILED")
		return 1
	}
	fmt.Println("selfcheck: every judged metric agrees within its bound")
	return 0
}
