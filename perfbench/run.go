package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"deca/internal/engine"
)

// minJobs is the fewest measured jobs a run reports a median over, even
// when they outlast the run's time budget.
const minJobs = 3

// bench is one invocation: a workload, its seed and the run's budget.
type bench struct {
	w      workload
	seed   int64
	budget time.Duration
	dir    string // per-run scratch: spill directory, engine trace files
}

func (b *bench) spillDir() string { return filepath.Join(b.dir, "spill") }

// reference runs the workload once in Spark (object) mode with the same
// seed, outside every timing; its checksum is the answer every Deca job
// is checked against.
func (b *bench) reference() (sample, error) {
	s := measureJob(b.w, b.w.config(engine.ModeSpark, b.seed, b.spillDir()))
	if s.err != nil {
		return s, fmt.Errorf("spark reference: %w", s.err)
	}
	return s, nil
}

// check counts one attempted job and reports whether it succeeded with
// the reference answer.
func (b *bench) check(rep *report, s sample, want float64) bool {
	rep.Attempted++
	switch {
	case s.err != nil:
		rep.Failed++
		rep.fail("job: %v", s.err)
	case !b.w.checksumOK(s.res.Checksum, want):
		rep.Failed++
		rep.fail("job checksum %v, reference %v", s.res.Checksum, want)
	default:
		if s.leakGoroutines > 0 || s.leakSpillFiles > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: job left %d goroutines and %d spill files after %v\n",
				s.leakGoroutines, s.leakSpillFiles, quiesceWait)
		}
		return true
	}
	return false
}

// untracedRun is the end-to-end run: a warm-up job, then jobs one after
// another until the time budget is spent, tracing off.
func (b *bench) untracedRun() (*report, error) {
	ref, err := b.reference()
	if err != nil {
		return nil, err
	}
	rep := newReport()
	cfg := b.w.config(engine.ModeDeca, b.seed, b.spillDir())
	b.check(rep, measureJob(b.w, cfg), ref.res.Checksum) // warm-up: checked, not reported

	var ok []sample
	start := time.Now()
	for n := 0; n < minJobs || time.Since(start) < b.budget; n++ {
		s := measureJob(b.w, cfg)
		fmt.Printf("  job %d: job_s=%.4f cpu_s=%.4f setup_s=%.4f gc=%d peak_heap=%d\n",
			n, s.jobSeconds(), s.cpu.Seconds(), s.setupSeconds(), s.res.GC.NumGC, s.peakHeap)
		if b.check(rep, s, ref.res.Checksum) {
			ok = append(ok, s)
		}
	}
	fmt.Printf("  jobs=%d max_leak_goroutines=%d max_leak_spill_files=%d\n",
		len(ok), maxOf(ok, func(s sample) int { return s.leakGoroutines }), maxOf(ok, func(s sample) int { return s.leakSpillFiles }))
	setEndToEnd(rep, ok)
	return rep, nil
}

// setEndToEnd reports the end-to-end metrics over the measured jobs.
func setEndToEnd(rep *report, ss []sample) {
	rep.set("job_s", "s", medianOf(ss, sample.jobSeconds))
	rep.set("cpu_s", "s", medianOf(ss, func(s sample) float64 { return s.cpu.Seconds() }))
	// A set-up takes milliseconds, and a stop-the-world pause that waits
	// for a descheduled CPU adds delays of the same size; the fastest
	// set-up is the cost without them.
	rep.set("setup_s", "s", minOf(ss, sample.setupSeconds))
	rep.set("alloc_bytes", "bytes", medianOf(ss, func(s sample) float64 { return float64(s.res.GC.AllocBytes) }))
	rep.set("alloc_objects", "count", medianOf(ss, func(s sample) float64 { return float64(s.res.GC.AllocObjects) }))
	// A job runs a handful of GC cycles, so a median of whole counts moves
	// in steps of one; the mean resolves them.
	rep.set("gc_cycles", "count", meanOf(ss, func(s sample) float64 { return float64(s.res.GC.NumGC) }))
	// Where a job's peak falls against its GC cycles splits the jobs into
	// two peak levels on wc-spill; the mean is steadier than a median
	// that flips between them.
	rep.set("peak_heap_bytes", "bytes", meanOf(ss, func(s sample) float64 { return float64(s.peakHeap) }))
	rep.set("success_rate", "ratio", 1-ratio(float64(rep.Failed), float64(rep.Attempted)))
}

// tracedRun is the per-layer run: untraced and traced jobs alternate
// (the traced ones export the engine's event spine and run inside a
// benchmark span), then the workload's inputs are replayed through each
// layer under spans.
func (b *bench) tracedRun() (*report, error) {
	spark, err := b.reference()
	if err != nil {
		return nil, err
	}
	want := spark.res.Checksum
	rep := newReport()
	tr := newTracer(fmt.Sprintf("%s/seed-%d", b.w.name, b.seed))
	cfg := b.w.config(engine.ModeDeca, b.seed, b.spillDir())
	b.check(rep, measureJob(b.w, cfg), want) // warm-up

	var plain, traced []sample
	var events []float64 // recorder events per traced job
	var spine traceCounts
	start := time.Now()
	for n := 0; n < 2 || time.Since(start) < b.budget; n++ {
		if s := measureJob(b.w, cfg); b.check(rep, s, want) {
			plain = append(plain, s)
		}
		tcfg := cfg
		tcfg.TraceOut = filepath.Join(b.dir, fmt.Sprintf("engine-trace-%d.json", n))
		var s sample
		_ = tr.span("engine.job", func() error {
			s = measureJob(b.w, tcfg)
			return nil
		})
		if !b.check(rep, s, want) {
			continue
		}
		c, err := readTraceCounts(tcfg.TraceOut)
		if err != nil {
			rep.fail("engine trace: %v", err)
			continue
		}
		traced = append(traced, s)
		events = append(events, float64(c.events))
		spine = c
	}
	if len(plain) == 0 || len(traced) == 0 {
		return rep, nil
	}

	rp := &replayer{tracer: tr, rep: rep, seed: b.seed, dir: filepath.Join(b.dir, "replay"),
		ref: want, stages: spine.stages, tasks: spine.tasks}
	if err := os.MkdirAll(rp.dir, 0o755); err != nil {
		return nil, err
	}
	replays := []struct {
		layer string
		run   func(*replayer) error
	}{
		{"shuffle/memory/cache/decompose/transport", b.w.replay},
		{"sched", replaySched},
		{"obs", replayObs},
	}
	replayed := true
	for _, r := range replays {
		if err := tr.span("bench.replay", func() error { return r.run(rp) }); err != nil {
			rep.fail("%s replay: %v", r.layer, err)
			replayed = false
		}
	}

	// Counts the jobs themselves report, medians over the untraced jobs.
	med := func(f func(sample) float64) float64 { return medianOf(plain, f) }
	rep.set("datagen.gen_s", "s", tr.total("datagen.generate").Seconds())
	rep.set("shuffle.spill_bytes", "bytes", med(func(s sample) float64 { return float64(s.res.ShuffleSpillBytes) }))
	rep.set("cache.resident_bytes", "bytes", med(func(s sample) float64 { return float64(s.res.CacheBytes) }))
	rep.set("transport.pages_zero_copy", "count", med(func(s sample) float64 { return float64(s.res.PagesServedZeroCopy) }))
	rep.set("transport.userspace_copy_bytes", "bytes", med(func(s sample) float64 { return float64(s.res.ServeUserspaceCopyBytes) }))
	rep.set("transport.sendfile_bytes", "bytes", med(func(s sample) float64 { return float64(s.res.BytesSendfile) }))
	rep.set("engine.remote_shuffle_bytes", "bytes", med(func(s sample) float64 { return float64(s.res.RemoteShuffleBytes) }))
	rep.set("engine.remote_shuffle_fetches", "count", med(func(s sample) float64 { return float64(s.res.RemoteShuffleFetches) }))
	rep.set("sched.tasks_failed", "count", med(func(s sample) float64 { return float64(s.res.TasksFailed) }))
	rep.set("sched.task_retries", "count", med(func(s sample) float64 { return float64(s.res.TaskRetries) }))
	rep.set("sched.stages_per_job", "count", float64(spine.stages))
	rep.set("sched.tasks_per_job", "count", float64(spine.tasks))
	rep.set("obs.events_per_job", "count", median(events))
	rep.set("gcstats.gc_cpu_s", "s", med(func(s sample) float64 { return s.res.GC.GCCPUSeconds }))
	rep.set("gcstats.gc_share", "ratio", med(func(s sample) float64 { return s.res.GC.GCRatio() }))
	all := append(append([]sample(nil), plain...), traced...)
	rep.set("leak.goroutines", "count", float64(maxOf(all, func(s sample) int { return s.leakGoroutines })))
	rep.set("leak.spill_files", "count", float64(maxOf(all, func(s sample) int { return s.leakSpillFiles })))
	rep.set("trace.overhead_s", "s", medianOf(traced, sample.jobSeconds)-med(sample.jobSeconds))

	// Deca over Spark on the same seed: the paper's claims, not gated.
	rep.set("paper.job_s_ratio", "ratio", ratio(med(sample.jobSeconds), spark.jobSeconds()))
	rep.set("paper.cpu_s_ratio", "ratio", ratio(med(func(s sample) float64 { return s.cpu.Seconds() }), spark.cpu.Seconds()))
	rep.set("paper.alloc_bytes_ratio", "ratio", ratio(med(func(s sample) float64 { return float64(s.res.GC.AllocBytes) }), float64(spark.res.GC.AllocBytes)))
	rep.set("paper.peak_heap_ratio", "ratio", ratio(med(func(s sample) float64 { return float64(s.peakHeap) }), float64(spark.peakHeap)))

	if replayed { // self times would include the spans of a failed replay
		self := tr.selfByLayer()
		for _, layer := range []string{"datagen", "shuffle", "memory", "cache", "decompose", "transport", "sched", "obs"} {
			rep.set(layer+".self_s", "s", self[layer].Seconds())
		}
	}

	spans := filepath.Join(filepath.Dir(b.dir), fmt.Sprintf("spans-%s-seed%d.json", b.w.name, b.seed))
	if err := tr.write(spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("  spans=%s jobs=%d+%d traced\n", spans, len(plain), len(traced))
	return rep, nil
}

// traceCounts is what one job's exported event spine shows.
type traceCounts struct {
	events        int // recorder events behind the exported trace records
	stages, tasks int
}

// readTraceCounts reads an engine trace file. The export folds a task's
// start and finish events into one slice, and a stage's begin and
// verdict into another, so each slice counts as two recorder events;
// instants and counter samples are one each, and process-name metadata
// none. Page and fetch events are not exported, so this is a lower
// bound on Recorder.Record calls. Stages are counted by the distinct
// stage ids of the task slices, since only shuffle stages export a
// stage slice of their own.
func readTraceCounts(path string) (traceCounts, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return traceCounts{}, err
	}
	var evs []struct {
		Ph   string `json:"ph"`
		Cat  string `json:"cat"`
		Args struct {
			Stage int `json:"stage"`
		} `json:"args"`
	}
	if err := json.Unmarshal(raw, &evs); err != nil {
		return traceCounts{}, fmt.Errorf("%s: %w", path, err)
	}
	var c traceCounts
	stages := map[int]bool{}
	for _, e := range evs {
		switch {
		case e.Ph == "M":
		case e.Ph == "X":
			c.events += 2
			if strings.HasPrefix(e.Cat, "task") {
				c.tasks++
				stages[e.Args.Stage] = true
			}
		default:
			c.events++
		}
	}
	c.stages = len(stages)
	return c, nil
}

func maxOf(ss []sample, f func(sample) int) int {
	m := 0
	for _, s := range ss {
		m = max(m, f(s))
	}
	return m
}

// peakSampler tracks the largest in-use heap (the runtime's HeapInuse:
// object bytes plus free space inside in-use spans) while a job runs.
// runtime/metrics reads these without stopping the world.
type peakSampler struct {
	stopCh chan struct{}
	done   chan uint64
}

const peakSampleInterval = time.Millisecond

var heapInuseMetrics = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

func startPeakSampler() *peakSampler {
	p := &peakSampler{stopCh: make(chan struct{}), done: make(chan uint64, 1)}
	samples := make([]metrics.Sample, len(heapInuseMetrics))
	for i, name := range heapInuseMetrics {
		samples[i].Name = name
	}
	read := func() uint64 {
		metrics.Read(samples)
		var n uint64
		for _, s := range samples {
			n += s.Value.Uint64()
		}
		return n
	}
	go func() {
		peak := read()
		t := time.NewTicker(peakSampleInterval)
		defer t.Stop()
		for {
			select {
			case <-p.stopCh:
				p.done <- max(peak, read())
				return
			case <-t.C:
				peak = max(peak, read())
			}
		}
	}()
	return p
}

// stop ends sampling and returns the peak once the sampler has exited.
func (p *peakSampler) stop() uint64 {
	close(p.stopCh)
	return <-p.done
}
