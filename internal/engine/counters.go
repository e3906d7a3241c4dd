package engine

import (
	"sync/atomic"

	"deca/internal/cache"
	"deca/internal/ctl"
	"deca/internal/obs"
	"deca/internal/transport"
)

// counterSource says where a counter's values live: which deployments
// have a per-executor value for it, where its cluster value comes from,
// and whether executors fill its slot in their ctl.MetricsSnapshot.
type counterSource uint8

const (
	// srcSched: counted by the driver's scheduler hooks in Metrics, on
	// the Context and on the attempt's Executor.
	srcSched counterSource = iota
	// srcDriver: counted in the Context's Metrics only.
	srcDriver
	// srcData: counted by the data plane in Metrics, on the Context and
	// the Executor of the process that does the work. Shipped.
	srcData
	// srcServe: a transport.Stats field, copied into the Context's
	// Metrics by MetricsRef and SyncClusterMetrics. A transport counts for
	// its whole process, so only multiproc has per-executor values.
	// Shipped.
	srcServe
	// srcCache: a cache.Stats field, read through CacheStats and not
	// exposed on /metrics. Shipped.
	srcCache
	// srcGC: the obs view's latest GC sample per executor; no cluster value.
	srcGC
	// srcDropped: the obs view's count of overwritten events; cluster only.
	srcDropped
)

// counterDef is one row of the counter table.
type counterDef struct {
	// name is the Prometheus name suffix: /metrics exposes deca_<name>
	// cluster-wide and deca_exec_<name> per executor.
	name   string
	gauge  bool // Prometheus type gauge; counter otherwise
	src    counterSource
	metric func(*Metrics) *atomic.Int64  // srcSched, srcDriver, srcData, srcServe
	serve  func(*transport.Stats) *int64 // srcServe
	cache  func(*cache.Stats) *int64     // srcCache
	gc     func(*obs.ExecObs) int64      // srcGC
}

// counters is the counter table: the one place a counter's name, type
// and source are defined. The heartbeat snapshot (one slot per row, in
// table order), the multiproc cluster sum, MetricsRef and /metrics
// iterate it, so adding a counter is adding a row plus its source field.
var counters = []counterDef{
	{name: "tasks_run_total", src: srcSched, metric: func(m *Metrics) *atomic.Int64 { return &m.TasksRun }},
	{name: "tasks_failed_total", src: srcSched, metric: func(m *Metrics) *atomic.Int64 { return &m.TasksFailed }},
	{name: "task_retries_total", src: srcSched, metric: func(m *Metrics) *atomic.Int64 { return &m.TaskRetries }},
	{name: "lineage_map_reruns_total", src: srcDriver, metric: func(m *Metrics) *atomic.Int64 { return &m.LineageMapReruns }},
	{name: "speculative_launched_total", src: srcSched, metric: func(m *Metrics) *atomic.Int64 { return &m.SpeculativeLaunched }},
	{name: "speculative_won_total", src: srcSched, metric: func(m *Metrics) *atomic.Int64 { return &m.SpeculativeWon }},
	{name: "executors_blacklisted_total", src: srcDriver, metric: func(m *Metrics) *atomic.Int64 { return &m.ExecutorsBlacklisted }},
	{name: "shuffle_records_total", src: srcData, metric: func(m *Metrics) *atomic.Int64 { return &m.ShuffleRecords }},
	{name: "shuffle_spill_bytes_total", src: srcData, metric: func(m *Metrics) *atomic.Int64 { return &m.ShuffleSpillBytes }},
	{name: "local_shuffle_fetches_total", src: srcData, metric: func(m *Metrics) *atomic.Int64 { return &m.LocalShuffleFetches }},
	{name: "remote_shuffle_fetches_total", src: srcData, metric: func(m *Metrics) *atomic.Int64 { return &m.RemoteShuffleFetches }},
	{name: "remote_shuffle_bytes_total", src: srcData, metric: func(m *Metrics) *atomic.Int64 { return &m.RemoteShuffleBytes }},
	{name: "cache_hits_total", src: srcCache, cache: func(s *cache.Stats) *int64 { return &s.Hits }},
	{name: "cache_misses_total", src: srcCache, cache: func(s *cache.Stats) *int64 { return &s.Misses }},
	{name: "cache_evictions_total", src: srcCache, cache: func(s *cache.Stats) *int64 { return &s.Evictions }},
	{name: "cache_drops_total", src: srcCache, cache: func(s *cache.Stats) *int64 { return &s.Drops }},
	{name: "cache_swap_out_bytes_total", src: srcCache, cache: func(s *cache.Stats) *int64 { return &s.SwapOutBytes }},
	{name: "cache_swap_in_bytes_total", src: srcCache, cache: func(s *cache.Stats) *int64 { return &s.SwapInBytes }},
	{name: "cache_mem_bytes", gauge: true, src: srcCache, cache: func(s *cache.Stats) *int64 { return &s.MemBytes }},
	{name: "pages_served_zero_copy_total", src: srcServe,
		metric: func(m *Metrics) *atomic.Int64 { return &m.PagesServedZeroCopy },
		serve:  func(s *transport.Stats) *int64 { return &s.PagesServedZeroCopy }},
	{name: "bytes_sendfile_total", src: srcServe,
		metric: func(m *Metrics) *atomic.Int64 { return &m.BytesSendfile },
		serve:  func(s *transport.Stats) *int64 { return &s.BytesSendfile }},
	{name: "serve_userspace_copy_bytes_total", src: srcServe,
		metric: func(m *Metrics) *atomic.Int64 { return &m.ServeUserspaceCopyBytes },
		serve:  func(s *transport.Stats) *int64 { return &s.UserspaceCopyBytes }},
	{name: "fetch_in_flight_bytes", gauge: true, src: srcData, metric: func(m *Metrics) *atomic.Int64 { return &m.FetchInFlightBytes }},
	{name: "gc_cpu_nanos", src: srcGC, gc: func(x *obs.ExecObs) int64 { return x.GCCPUNanos }},
	{name: "heap_live_bytes", gauge: true, src: srcGC, gc: func(x *obs.ExecObs) int64 { return x.HeapLiveBytes }},
	{name: "obs_events_dropped_total", src: srcDropped},
}

func (d *counterDef) promType() string {
	if d.gauge {
		return "gauge"
	}
	return "counter"
}

// snapshotValue reads row i of an executor's snapshot. A vector shorter
// than the table (no heartbeat has arrived yet) reads as zero.
func snapshotValue(s ctl.MetricsSnapshot, i int) int64 {
	if i < len(s) {
		return s[i]
	}
	return 0
}

// execValue is one executor's value of a counter.
type execValue struct {
	exec int
	v    int64
}

// counterValues is one counter's reading: its per-executor values (none
// where the deployment has no per-executor source for it) and its
// cluster value, if it has one.
type counterValues struct {
	perExec    []execValue
	cluster    int64
	hasCluster bool
}

// readCounters reads every /metrics counter, indexed like counters. A
// counter with per-executor values reports their sum as its cluster
// value, so the two levels always agree. A multiproc driver reads the
// data plane from the executors' latest heartbeat snapshots, so a
// scrape is live without a control-plane round trip.
func (c *Context) readCounters() []counterValues {
	var statuses []ctl.ExecStatus
	if c.driver != nil {
		statuses = c.driver.d.Statuses()
	}
	views := c.view.Executors()
	m := c.MetricsRef()
	out := make([]counterValues, len(counters))
	for i := range counters {
		d, r := &counters[i], &out[i]
		switch {
		case d.src == srcCache:
			continue // reported through CacheStats
		case d.src == srcSched, d.src == srcData && c.driver == nil:
			for j, ex := range c.execs {
				r.perExec = append(r.perExec, execValue{j, d.metric(&ex.metrics).Load()})
			}
		case c.driver != nil && (d.src == srcData || d.src == srcServe):
			for _, st := range statuses {
				r.perExec = append(r.perExec, execValue{st.Exec, snapshotValue(st.Snapshot, i)})
			}
		case d.src == srcGC:
			for _, x := range views {
				r.perExec = append(r.perExec, execValue{int(x.Exec), d.gc(&x)})
			}
			continue
		}
		r.hasCluster = true
		switch {
		case r.perExec != nil:
			for _, v := range r.perExec {
				r.cluster += v.v
			}
		case d.src == srcDropped:
			r.cluster = int64(c.view.Dropped())
		default:
			r.cluster = d.metric(m).Load()
		}
	}
	return out
}
