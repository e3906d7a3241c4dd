package engine

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"deca/internal/promtext"
)

// opsGet fetches one ops endpoint and returns the body.
func opsGet(t *testing.T, addr, path string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return body
}

func TestOpsEndpointsServeLiveState(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	ctx := New(Config{
		NumExecutors: 2,
		Parallelism:  2,
		Mode:         ModeDeca,
		PageSize:     4096,
		SpillDir:     t.TempDir(),
		OpsAddr:      "127.0.0.1:0",
		TraceOut:     traceOut,
	})
	addr := ctx.OpsAddr()
	if addr == "" {
		t.Fatal("ops plane did not start")
	}
	wordCountOn(t, ctx)

	metrics := string(opsGet(t, addr, "/metrics"))
	for _, want := range []string{
		"deca_tasks_run_total ",
		`deca_exec_tasks_run_total{exec="0"}`,
		`deca_exec_tasks_run_total{exec="1"}`,
		"deca_shuffle_records_total ",
		"deca_fetch_in_flight_bytes ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(metrics, "# TYPE deca_tasks_run_total counter") {
		t.Error("/metrics missing TYPE metadata")
	}

	var stages struct {
		Stages []struct {
			Key      string `json:"key"`
			Verdict  string `json:"verdict"`
			Started  int64  `json:"attempts_started"`
			Finished int64  `json:"attempts_finished"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(opsGet(t, addr, "/stages"), &stages); err != nil {
		t.Fatalf("/stages: %v", err)
	}
	var sawShuffle bool
	for _, s := range stages.Stages {
		if strings.HasPrefix(s.Key, "x/") && s.Verdict == "ok" && s.Finished > 0 {
			sawShuffle = true
		}
	}
	if !sawShuffle {
		t.Errorf("/stages has no committed shuffle stage: %+v", stages.Stages)
	}

	var execs struct {
		Executors []struct {
			Exec int `json:"exec"`
		} `json:"executors"`
	}
	if err := json.Unmarshal(opsGet(t, addr, "/executors"), &execs); err != nil {
		t.Fatalf("/executors: %v", err)
	}
	if len(execs.Executors) != 2 {
		t.Errorf("/executors rows = %d, want 2", len(execs.Executors))
	}

	var mem struct {
		Executors []struct {
			Exec       int   `json:"exec"`
			PagesAlloc int64 `json:"pages_allocated"`
		} `json:"executors"`
	}
	if err := json.Unmarshal(opsGet(t, addr, "/memory"), &mem); err != nil {
		t.Fatalf("/memory: %v", err)
	}
	var pages int64
	for _, row := range mem.Executors {
		pages += row.PagesAlloc
	}
	if pages == 0 {
		t.Error("/memory shows no page allocations after a Deca shuffle")
	}

	var trace []map[string]any
	if err := json.Unmarshal(opsGet(t, addr, "/trace"), &trace); err != nil {
		t.Fatalf("/trace: %v", err)
	}
	if len(trace) == 0 {
		t.Error("/trace is empty after a job ran")
	}

	ctx.Close()
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatalf("TraceOut not written: %v", err)
	}
	trace = nil
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("TraceOut is not trace-event JSON: %v", err)
	}
	var sawTask bool
	for _, ev := range trace {
		if ev["ph"] == "X" {
			sawTask = true
		}
	}
	if !sawTask {
		t.Error("TraceOut has no complete task slices")
	}
	// The ops listener must be gone after Close.
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("ops endpoint still serving after Close")
	}
}

func TestObservabilityDisabledByNegativeEventBuffer(t *testing.T) {
	ctx := New(Config{
		NumExecutors: 2,
		Parallelism:  2,
		Mode:         ModeDeca,
		PageSize:     4096,
		EventBuffer:  -1,
		OpsAddr:      "127.0.0.1:0",
	})
	t.Cleanup(ctx.Close)
	if ctx.rec != nil {
		t.Fatal("recorder allocated despite EventBuffer < 0")
	}
	wordCountOn(t, ctx) // instrumented seams must tolerate the nil recorder
	body := string(opsGet(t, ctx.OpsAddr(), "/metrics"))
	if !strings.Contains(body, "deca_tasks_run_total") {
		t.Error("/metrics should still serve counters with events disabled")
	}
}

// TestCloseStopsObservability is the leak test: contexts that started GC
// samplers and ops listeners must not leave goroutines behind after
// Close. Run with -race in CI.
func TestCloseStopsObservability(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx := New(Config{
			NumExecutors: 2,
			Parallelism:  2,
			Mode:         ModeDeca,
			PageSize:     4096,
			OpsAddr:      "127.0.0.1:0",
		})
		wordCountOn(t, ctx)
		ctx.Close()
		ctx.Close() // idempotent with observability attached
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+1 || time.Now().After(deadline) {
			if n > before+1 {
				buf := make([]byte, 1<<16)
				t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
					before, n, buf[:runtime.Stack(buf, true)])
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// metricsGolden is the /metrics structure of an in-process cluster (both
// transports): every family with its type and label keys. Serve-path
// copy counters have no per-executor family here because the transport
// keeps them for the whole process.
var metricsGolden = []string{
	"deca_bytes_sendfile_total counter -",
	"deca_exec_gc_cpu_nanos counter exec",
	"deca_exec_heap_live_bytes gauge exec",
	"deca_exec_fetch_in_flight_bytes gauge exec",
	"deca_exec_local_shuffle_fetches_total counter exec",
	"deca_exec_remote_shuffle_bytes_total counter exec",
	"deca_exec_remote_shuffle_fetches_total counter exec",
	"deca_exec_shuffle_records_total counter exec",
	"deca_exec_shuffle_spill_bytes_total counter exec",
	"deca_exec_speculative_launched_total counter exec",
	"deca_exec_speculative_won_total counter exec",
	"deca_exec_task_retries_total counter exec",
	"deca_exec_tasks_failed_total counter exec",
	"deca_exec_tasks_run_total counter exec",
	"deca_executors_blacklisted_total counter -",
	"deca_fetch_in_flight_bytes gauge -",
	"deca_lineage_map_reruns_total counter -",
	"deca_local_shuffle_fetches_total counter -",
	"deca_obs_events_dropped_total counter -",
	"deca_pages_served_zero_copy_total counter -",
	"deca_remote_shuffle_bytes_total counter -",
	"deca_remote_shuffle_fetches_total counter -",
	"deca_serve_userspace_copy_bytes_total counter -",
	"deca_shuffle_records_total counter -",
	"deca_shuffle_spill_bytes_total counter -",
	"deca_speculative_launched_total counter -",
	"deca_speculative_won_total counter -",
	"deca_task_retries_total counter -",
	"deca_tasks_failed_total counter -",
	"deca_tasks_run_total counter -",
}

// TestMetricsExposition pins /metrics after a 2-executor word count on
// both in-process transports: well-formed Prometheus text (each family
// one contiguous group under its TYPE line), exactly the golden set of
// families, and per-executor rows that add up to the cluster value
// wherever a counter is exposed at both levels.
func TestMetricsExposition(t *testing.T) {
	for _, dk := range []DeployKind{DeployInProcess, DeployTCP} {
		t.Run(dk.String(), func(t *testing.T) {
			ctx := New(Config{
				NumExecutors: 2,
				Parallelism:  2,
				Mode:         ModeDeca,
				PageSize:     4096,
				SpillDir:     t.TempDir(),
				OpsAddr:      "127.0.0.1:0",
				DeployKind:   dk,
			})
			t.Cleanup(ctx.Close)
			wordCountOn(t, ctx)
			fams, err := promtext.Parse(string(opsGet(t, ctx.OpsAddr(), "/metrics")))
			if err != nil {
				t.Fatalf("/metrics is not well-formed: %v", err)
			}
			want := slices.Clone(metricsGolden)
			slices.Sort(want)
			if got := promtext.Shape(fams); !slices.Equal(got, want) {
				t.Errorf("/metrics families:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			if err := promtext.CheckSums(fams, "deca_exec_", "deca_"); err != nil {
				t.Error(err)
			}
		})
	}
}
