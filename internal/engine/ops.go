package engine

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"

	"deca/internal/obs"
	"deca/internal/sched"
)

// opsServer is the driver's live HTTP ops plane: a handful of read-only
// endpoints over the metrics counters, the scheduler state and the
// observability view, served on Config.OpsAddr for the lifetime of the
// Context. Endpoints:
//
//	/metrics   Prometheus text: every engine counter, per executor and
//	           cluster-aggregated, plus transport serve/copy stats
//	/stages    JSON: live stage summaries with in-flight attempt states
//	/executors JSON: per-executor scheduler state (blacklist, probation),
//	           liveness, data-plane counters, in-flight fetch bytes
//	/memory    JSON: per-executor page and spill accounting plus the
//	           per-shuffle occupancy time series
//	/trace     Chrome trace-event JSON of the retained event spine
//	           (loadable in Perfetto / chrome://tracing)
type opsServer struct {
	c    *Context
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

// startOps binds the ops listener and serves in the background. A bind
// failure is reported and tolerated — observability must never take the
// job down.
func startOps(c *Context, addr string) *opsServer {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "engine: ops listener %s: %v (ops plane disabled)\n", addr, err)
		return nil
	}
	o := &opsServer{c: c, ln: ln, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", o.handleMetrics)
	mux.HandleFunc("/stages", o.handleStages)
	mux.HandleFunc("/executors", o.handleExecutors)
	mux.HandleFunc("/memory", o.handleMemory)
	mux.HandleFunc("/trace", o.handleTrace)
	o.srv = &http.Server{Handler: mux}
	go func() {
		defer close(o.done)
		if err := o.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "engine: ops server: %v\n", err)
		}
	}()
	return o
}

func (o *opsServer) shutdown() {
	o.srv.Close()
	<-o.done
}

// OpsAddr returns the resolved ops-plane listen address ("" when the
// plane is not serving) — tests pass ":0" and read the port back here.
func (c *Context) OpsAddr() string {
	if c.ops == nil {
		return ""
	}
	return c.ops.ln.Addr().String()
}

// handleMetrics writes the counter table as Prometheus text: first the
// per-executor families, then the cluster-wide ones, each family one
// group under its TYPE line.
func (o *opsServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	c := o.c
	c.drainLocalEvents()
	vals := c.readCounters()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	for i := range counters {
		if d := &counters[i]; len(vals[i].perExec) > 0 {
			fmt.Fprintf(&b, "# TYPE deca_exec_%s %s\n", d.name, d.promType())
			for _, v := range vals[i].perExec {
				fmt.Fprintf(&b, "deca_exec_%s{exec=\"%d\"} %d\n", d.name, v.exec, v.v)
			}
		}
	}
	for i := range counters {
		if d := &counters[i]; vals[i].hasCluster {
			fmt.Fprintf(&b, "# TYPE deca_%s %s\ndeca_%s %d\n", d.name, d.promType(), d.name, vals[i].cluster)
		}
	}
	w.Write([]byte(b.String()))
}

func (o *opsServer) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The connection died mid-write; nothing sensible to do.
		_ = err
	}
}

func (o *opsServer) handleStages(w http.ResponseWriter, _ *http.Request) {
	o.c.drainLocalEvents()
	o.writeJSON(w, struct {
		Stages []obs.StageSummary `json:"stages"`
	}{Stages: o.c.view.Stages()})
}

// opsExecutor is one /executors row: scheduler placement state fused
// with liveness (multiproc) and the executor's slice of the event view.
type opsExecutor struct {
	sched.ExecutorState
	Alive              *bool        `json:"alive,omitempty"`
	LastBeatNanos      int64        `json:"last_beat_nanos,omitempty"`
	FetchInFlightBytes int64        `json:"fetch_in_flight_bytes"`
	Obs                *obs.ExecObs `json:"obs,omitempty"`
}

func (o *opsServer) handleExecutors(w http.ResponseWriter, _ *http.Request) {
	c := o.c
	c.drainLocalEvents()
	obsByExec := make(map[int32]obs.ExecObs)
	for _, x := range c.view.Executors() {
		obsByExec[x.Exec] = x
	}
	var inFlight []execValue
	for i, v := range c.readCounters() {
		if counters[i].name == "fetch_in_flight_bytes" {
			inFlight = v.perExec
		}
	}
	out := make([]opsExecutor, 0, len(c.execs))
	for _, st := range c.cluster.States() {
		row := opsExecutor{ExecutorState: st}
		for _, v := range inFlight {
			if v.exec == st.Exec {
				row.FetchInFlightBytes = v.v
			}
		}
		if x, ok := obsByExec[int32(st.Exec)]; ok {
			xc := x
			row.Obs = &xc
		}
		out = append(out, row)
	}
	if c.driver != nil {
		for _, st := range c.driver.d.Statuses() {
			if st.Exec < 0 || st.Exec >= len(out) {
				continue
			}
			alive := st.Alive
			out[st.Exec].Alive = &alive
			out[st.Exec].LastBeatNanos = st.LastBeat.UnixNano()
		}
	}
	o.writeJSON(w, struct {
		Executors []opsExecutor `json:"executors"`
	}{Executors: out})
}

// opsMemoryExec is one /memory row: local manager accounting where the
// manager lives in this process, event-derived accounting always.
type opsMemoryExec struct {
	Exec          int32 `json:"exec"`
	InUseBytes    int64 `json:"in_use_bytes,omitempty"`
	PagesAlloc    int64 `json:"pages_allocated,omitempty"`
	PagesAdopted  int64 `json:"pages_adopted,omitempty"`
	PagesReleased int64 `json:"pages_released,omitempty"`
	SpillBytes    int64 `json:"spill_bytes,omitempty"`
	HeapLiveBytes int64 `json:"heap_live_bytes,omitempty"`
	GCCPUNanos    int64 `json:"gc_cpu_nanos,omitempty"`
}

func (o *opsServer) handleMemory(w http.ResponseWriter, _ *http.Request) {
	c := o.c
	c.drainLocalEvents()
	obsByExec := make(map[int32]obs.ExecObs)
	for _, x := range c.view.Executors() {
		obsByExec[x.Exec] = x
	}
	out := make([]opsMemoryExec, 0, len(c.execs))
	for i, ex := range c.execs {
		row := opsMemoryExec{Exec: int32(i)}
		if c.driver == nil {
			row.InUseBytes = ex.mem.InUse()
		}
		if x, ok := obsByExec[int32(i)]; ok {
			row.PagesAlloc = x.PagesAlloc
			row.PagesAdopted = x.PagesAdopted
			row.PagesReleased = x.PagesReleased
			row.SpillBytes = x.SpillBytes
			row.HeapLiveBytes = x.HeapLiveBytes
			row.GCCPUNanos = x.GCCPUNanos
		}
		out = append(out, row)
	}
	o.writeJSON(w, struct {
		Executors []opsMemoryExec                `json:"executors"`
		Occupancy map[int64][]obs.OccupancyPoint `json:"occupancy,omitempty"`
	}{Executors: out, Occupancy: c.view.Occupancy()})
}

func (o *opsServer) handleTrace(w http.ResponseWriter, _ *http.Request) {
	o.c.drainLocalEvents()
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteTrace(w, o.c.view.Events()); err != nil {
		_ = err // connection died mid-write
	}
}
