package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names a metric the harness reports; BENCHMARK.json lists the
// same names, units and directions (TestBenchmarkJSONMatches).
type metricDef struct {
	name, unit, better string
}

// endToEnd are measured through the real binaries with tracing off.
// failed_share is printed and stored too, but not listed here: the
// driver line carries it as attempted/failed, and a metric that is 0 on
// every healthy run cannot take a relative bound.
var endToEnd = []metricDef{
	{"predict_wall_s", "s", "lower"},
	{"predict_wall_p95_s", "s", "lower"},
	{"predictions_per_s", "1/s", "higher"},
	{"events_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer come from the traced pass. A layer a workload does not reach
// reports 0 there.
var perLayer = []metricDef{
	{"ir.build_s", "s", "lower"},
	{"ir.parse_s", "s", "lower"},
	{"check.run_s", "s", "lower"},
	{"check.allocs", "count", "lower"},
	{"check.alloc_mb", "MB", "lower"},
	{"check.ranks_per_s", "1/s", "higher"},
	{"compiler.compile_s", "s", "lower"},
	{"compiler.tasks", "count", "lower"},
	{"core.calibrate_s", "s", "lower"},
	{"interp.run_s", "s", "lower"},
	{"interp.run_allocs", "count", "lower"},
	{"interp.run_alloc_mb", "MB", "lower"},
	{"interp.self_s", "s", "lower"},
	{"mpi.replay_s", "s", "lower"},
	{"mpi.replay_allocs", "count", "lower"},
	{"mpi.self_s", "s", "lower"},
	{"sim.kernel_s", "s", "lower"},
	{"sim.kernel_events_per_s", "1/s", "higher"},
	{"sim.events", "count", "lower"},
	{"sim.messages", "count", "lower"},
	{"sim.continuations", "count", "higher"},
	{"sim.goroutine_fallbacks", "count", "lower"},
	{"e2e.kernel_ratio", "ratio", "higher"},
	{"trace.encode_s", "s", "lower"},
	{"trace.artifact_bytes", "bytes", "lower"},
	{"tracein.parse_s", "s", "lower"},
	{"tracein.parse_mb_per_s", "MB/s", "higher"},
	{"tracein.parse_allocs", "count", "lower"},
	{"tracein.parse_alloc_mb", "MB", "lower"},
	{"tracein.trace_bytes", "bytes", "lower"},
	{"tracein.bytes_per_event", "bytes", "lower"},
	{"tracein.record_s", "s", "lower"},
	{"tracein.write_s", "s", "lower"},
	{"tracein.write_mb_per_s", "MB/s", "higher"},
	{"svc.submit_s", "s", "lower"},
	{"svc.queue_wait_s", "s", "lower"},
	{"svc.run_s", "s", "lower"},
	{"svc.cold_job_s", "s", "lower"},
	{"svc.cachehit_job_s", "s", "lower"},
	{"svc.artifact_fetch_s", "s", "lower"},
	{"svc.artifact_hit_ratio", "ratio", "higher"},
	{"svc.rejected", "count", "lower"},
	{"svc.poll_requests", "count", "lower"},
	{"svc.journal_bytes", "bytes", "lower"},
	{"svc.store_bytes", "bytes", "lower"},
	{"net.build_s", "s", "lower"},
	{"proc.cpu_s", "s", "lower"},
	{"proc.overhead_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"host.calib_s", "s", "lower"},
}

// metric is one reported value. N is the sample count behind it (0 for
// counts and derived values).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one pass of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult(workload string, trace int) *result {
	return &result{Workload: workload, Trace: trace, Correct: true, Metrics: map[string]metric{}}
}

// problem records a failed output check.
func (r *result) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// fill sets every metric of defs that the pass did not measure to 0 and
// attaches the units, so each pass reports the full, fixed name set.
func (r *result) fill(defs []metricDef, values map[string]float64, counts map[string]int) {
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit, N: counts[d.name]}
	}
}

// fillEndToEnd sets the end-to-end metrics of an untraced pass: the
// scaled wall of a typical op and of the tail (n samples each), the ops
// and kernel events completed per scaled second, the peak RSS samples and
// the scaled set-up times.
func (r *result) fillEndToEnd(wall, p95, opsPerS, eventsPerS float64, n int, rss, setups []float64) {
	r.fill(endToEnd, map[string]float64{
		"predict_wall_s":     wall,
		"predict_wall_p95_s": p95,
		"predictions_per_s":  opsPerS,
		"events_per_s":       eventsPerS,
		"peak_rss_mb":        median(rss),
		"setup_s":            median(setups),
	}, map[string]int{"predict_wall_s": n, "predict_wall_p95_s": n, "peak_rss_mb": len(rss), "setup_s": len(setups)})
	r.Metrics["failed_share"] = metric{Value: float64(r.Failed) / float64(r.Attempted), Unit: "ratio"}
}

// addRaw records beside the scaled times what they were scaled from: the
// typical op's wall as measured, and the calibrations' median wall.
func (r *result) addRaw(wall float64, sc *scaler) {
	r.Metrics["predict_wall_raw_s"] = metric{Value: wall, Unit: "s"}
	r.Metrics["host.calib_s"] = metric{Value: median(sc.calibs), Unit: "s", N: len(sc.calibs)}
}

// print writes every metric by name with unit and sample count.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s (trace %d): correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Trace, r.Correct, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM %s\n", p)
	}
	for _, n := range names {
		m := r.Metrics[n]
		if m.N > 0 {
			fmt.Fprintf(w, "  %-26s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "  %-26s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
}

// driverLine renders the one-line JSON object the benchmark contract
// asks for as the last line of standard output.
func (r *result) driverLine(defs []metricDef) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for _, d := range defs {
		m := r.Metrics[d.name]
		ms[d.name] = mv{m.Value, m.Unit}
	}
	data, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	return string(data)
}
