package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"deca/internal/engine"
	"deca/internal/workloads"
)

// Every workload runs on the same cluster shape: two executors with one
// task slot each, eight partitions — two workers on a two-CPU machine.
const (
	numExecutors = 2
	parallelism  = 1
	partitions   = 8
)

var (
	wcParams = workloads.WCParams{DistinctKeys: 200_000, WordsPerLine: 10, Lines: 400_000}
	lrParams = workloads.LRParams{Points: 400_000, Dim: 10, Iterations: 40}
	prParams = workloads.GraphParams{Vertices: 60_000, Edges: 400_000, Skew: 0.6, Iterations: 5}
)

// workload is one benchmark input set. Each one carries a layer the
// others do not reach (README.md says which).
type workload struct {
	name      string
	budget    int64
	transport engine.TransportKind
	job       func(workloads.Config) (workloads.Result, error)
	// tol is the relative checksum tolerance against the Spark-mode
	// reference: 0 for exact (integer folds), small for float reductions
	// whose order follows the schedule.
	tol    float64
	replay func(rp *replayer) error
}

var allWorkloads = []workload{
	{
		name:   "wc-agg",
		job:    func(c workloads.Config) (workloads.Result, error) { return workloads.WordCount(c, wcParams) },
		replay: replayWordCount,
	},
	{
		name:   "wc-spill",
		budget: 32 << 20,
		job:    func(c workloads.Config) (workloads.Result, error) { return workloads.WordCount(c, wcParams) },
		replay: replayWordCount,
	},
	{
		name:   "lr-cache",
		job:    func(c workloads.Config) (workloads.Result, error) { return workloads.LogisticRegression(c, lrParams) },
		tol:    1e-6,
		replay: replayLogReg,
	},
	{
		name:      "pr-tcp",
		transport: engine.TransportTCP,
		job:       func(c workloads.Config) (workloads.Result, error) { return workloads.PageRank(c, prParams) },
		tol:       1e-6,
		replay:    replayPageRank,
	},
}

func workloadNames() []string {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) config(mode engine.Mode, seed int64, spillDir string) workloads.Config {
	return workloads.Config{
		Mode:          mode,
		NumExecutors:  numExecutors,
		Parallelism:   parallelism,
		Partitions:    partitions,
		MemoryBudget:  w.budget,
		SpillDir:      spillDir,
		TransportKind: w.transport,
		Seed:          seed,
	}
}

// checksumOK compares a job's checksum with the reference answer.
func (w workload) checksumOK(got, want float64) bool {
	if w.tol == 0 {
		return got == want
	}
	return math.Abs(got-want) <= w.tol*math.Max(math.Abs(want), 1)
}

// sample is one measured job.
type sample struct {
	res workloads.Result
	err error
	// call is the whole workloads entry-point call: engine start, the job
	// body (res.Wall) and engine close.
	call     time.Duration
	cpu      time.Duration // process user+sys CPU over the call
	peakHeap uint64        // max sampled in-use heap span bytes
	// Quiescence after the job: goroutines and spill files still above
	// their pre-job counts once the bounded wait gave up.
	leakGoroutines int
	leakSpillFiles int
}

func (s sample) jobSeconds() float64   { return s.res.Wall.Seconds() }
func (s sample) setupSeconds() float64 { return (s.call - s.res.Wall).Seconds() }

// quiesceWait bounds how long a job's goroutines and spill files get to
// wind down before what remains is recorded as a leak.
const quiesceWait = 2 * time.Second

// measureJob runs one job under the end-to-end probes, then waits for
// quiescence. cfg.SpillDir is the only directory the job writes.
//
// Every job starts from the same heap state: the previous jobs' garbage
// collected and its memory returned to the OS, as in a fresh process.
// Otherwise engine start and the job's first allocations land on
// whatever the scavenger happened to leave mapped.
func measureJob(w workload, cfg workloads.Config) sample {
	debug.FreeOSMemory()
	goroutines0 := runtime.NumGoroutine()
	files0 := countFiles(cfg.SpillDir)

	peak := startPeakSampler()
	cpu0 := cpuTime()
	start := time.Now()
	res, err := w.job(cfg)
	call := time.Since(start)
	cpu := cpuTime() - cpu0
	s := sample{res: res, err: err, call: call, cpu: cpu, peakHeap: peak.stop()}
	s.leakGoroutines, s.leakSpillFiles = quiesce(goroutines0, files0, cfg.SpillDir)
	return s
}

// quiesce waits, for at most quiesceWait, until the goroutine count and
// the spill directory's file count are back at the given values, and
// returns how far above them each still is.
func quiesce(goroutines0, files0 int, spillDir string) (goroutines, files int) {
	deadline := time.Now().Add(quiesceWait)
	for {
		g := runtime.NumGoroutine() - goroutines0
		f := countFiles(spillDir) - files0
		if (g <= 0 && f <= 0) || time.Now().After(deadline) {
			return max(g, 0), max(f, 0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// countFiles counts the regular files under dir (spill runs and cache
// swap files; the engine may nest them).
func countFiles(dir string) int {
	n := 0
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			n++
		}
		return nil // a file removed mid-walk is simply not counted
	})
	return n
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianOf is the median of f over the samples.
func medianOf(ss []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

// minOf is the minimum of f over the samples.
func minOf(ss []sample, f func(sample) float64) float64 {
	if len(ss) == 0 {
		return 0
	}
	m := f(ss[0])
	for _, s := range ss[1:] {
		m = min(m, f(s))
	}
	return m
}

// meanOf is the mean of f over the samples.
func meanOf(ss []sample, f func(sample) float64) float64 {
	var sum float64
	for _, s := range ss {
		sum += f(s)
	}
	return ratio(sum, float64(len(ss)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
