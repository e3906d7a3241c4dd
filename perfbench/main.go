// Command perfbench is the repository's benchmark of record. It runs one
// Deca-mode job at a time through the public workloads entry points (a
// closed loop with a single client) and prints the end-to-end metrics,
// or, with -trace 1, replays the same workload's inputs through each
// layer's public functions under benchmark-side spans and prints the
// per-layer metrics. See README.md for the workloads, the metrics and
// how to run it.
//
//	bash perfbench/run.sh --workload wc-agg --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// workDirRoot holds every file the benchmark writes: spill directories
// and engine trace files (removed per run) and span dumps (kept). It is
// relative to the directory the benchmark runs from, the checkout root.
const workDirRoot = ".bench_build/perfbench"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed, passed only through workloads.Config.Seed (0 selects its default, 1)")
	seconds := fs.Int("seconds", 10, "measured closed-loop time per run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer traced replay")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if *seed == 0 {
		*seed = 1 // the workloads' own default, so the replay generates the job's inputs
	}

	runDir, err := filepath.Abs(filepath.Join(workDirRoot, fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(filepath.Join(runDir, "spill"), 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: work dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *traced)
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, dir: runDir}
	var rep *report
	if *traced == 1 {
		rep, err = b.tracedRun()
	} else {
		rep, err = b.untracedRun()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, clip(err.Error()))
		return 1
	}
	rep.print()
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order []string // print order for the human-readable table
}

func newReport() *report { return &report{Correct: true, Metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a job or layer check that went wrong; the run still
// prints, with correct=false.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", clip(fmt.Sprintf(format, args...)))
}

// clip bounds an error message: a failed stage joins every task's error.
func clip(msg string) string {
	const limit = 800
	if len(msg) > limit {
		return msg[:limit] + " ..."
	}
	return msg
}

func (r *report) print() {
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Printf("  %-32s %16.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("  attempted=%d failed=%d error_rate=%.4g correct=%v\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Correct)
	line, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of plain numbers always marshals
	}
	fmt.Println(string(line))
}
