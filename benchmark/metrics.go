package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"dopia/internal/workloads"
)

// metricDef declares one metric of BENCHMARK.json. The lists below are
// the single source of the names; TestBenchmarkJSONMatchesRegistry holds
// BENCHMARK.json to them.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	// Per-layer metrics have none. REPEATABILITY.md is where the
	// host-time bounds come from.
	Bound float64
}

// endToEndMetrics are what a user of the system sees; every workload
// reports all five with --trace 0.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_geomean_ms", "ms", "lower", 0.25},
	{"oracle_fraction", "ratio", "higher", 1e-9},
	{"oracle_fraction_overhead", "ratio", "higher", 0.12},
}

// perLayerMetrics are reported with --trace 1. A workload reports 0 for
// a metric whose layer is not on its path (benchmark/README.md lists
// which workload measures which).
var perLayerMetrics = buildPerLayerMetrics()

func buildPerLayerMetrics() []metricDef {
	defs := []metricDef{
		{"clc.compile_us", "us", "lower", 0},
		{"analysis.analyze_us", "us", "lower", 0},
		{"transform.malleable_us", "us", "lower", 0},
		{"interp.lower_us", "us", "lower", 0},
		{"ocl.build_us", "us", "lower", 0},
		{"ocl.build_hit_us", "us", "lower", 0},
		{"ocl.progcache_hit_ratio", "ratio", "higher", 0},
		{"ocl.enqueue_overhead_us", "us", "lower", 0},
		{"interp.exec_ns_per_item", "ns", "lower", 0},
		{"sched.run_functional_ms", "ms", "lower", 0},
		{"interp.shard_speedup", "ratio", "higher", 0},
		{"interp.lane_speedup", "ratio", "higher", 0},
		{"interp.closure_ratio", "ratio", "higher", 0},
		{"interp.fallback_kernels", "count", "lower", 0},
		{"interp.profile_ms", "ms", "lower", 0},
		{"access.observe_ns", "ns", "lower", 0},
		{"sim.build_model_us", "us", "lower", 0},
		{"sched.model_ms", "ms", "lower", 0},
		{"sim.simulate_us.alg1", "us", "lower", 0},
		{"sim.simulate_us.static", "us", "lower", 0},
		{"sim.simulate_us.dynamic", "us", "lower", 0},
		{"sim.simulate_us.hguided", "us", "lower", 0},
		{"sim.sweep44_ms", "ms", "lower", 0},
		{"sim.best_time_sum_s", "s", "lower", 0},
		{"ml.predict44_us", "us", "lower", 0},
		{"core.decide_cold_us", "us", "lower", 0},
		{"core.decide_warm_us", "us", "lower", 0},
		{"core.pred_cache_hit_ratio", "ratio", "higher", 0},
		{"ml.fit_ms", "ms", "lower", 0},
		{"core.train_s", "s", "lower", 0},
		{"core.managed_ratio", "ratio", "higher", 0},
		{"core.characterize_ms", "ms", "lower", 0},
		{"server.queue_ms_p50", "ms", "lower", 0},
		{"server.exec_ms_p50", "ms", "lower", 0},
		{"server.wire_ms_p50.bin", "ms", "lower", 0},
		{"server.wire_ms_p50.json", "ms", "lower", 0},
		{"server.upload_ms_p50.bin", "ms", "lower", 0},
		{"server.upload_ms_p50.json", "ms", "lower", 0},
		{"server.stage_decode_ms_p50", "ms", "lower", 0},
		{"server.stage_encode_ms_p50", "ms", "lower", 0},
		{"server.rejected", "count", "lower", 0},
		{"server.coalesced_ratio", "ratio", "lower", 0},
		{"server.op_p99_ms", "ms", "lower", 0},
		{"proc.cpu_ms_per_op", "ms", "lower", 0},
		{"proc.alloc_kb_per_op", "KiB", "lower", 0},
		{"proc.mallocs_per_op", "count", "lower", 0},
		{"proc.gc_pause_ms", "ms", "lower", 0},
		{"proc.heap_mb_end", "MiB", "lower", 0},
		{"tail.op_p90_geomean_ms", "ms", "lower", 0},
	}
	for _, d := range workloads.RealDescs() {
		defs = append(defs, metricDef{"kernel." + d.Name + ".ms", "ms", "lower", 0})
	}
	return append(defs,
		metricDef{"trace.coverage", "ratio", "higher", 0},
		metricDef{"trace.overhead_ratio", "ratio", "higher", 0},
	)
}

// metricValue is one reported number: the value as measured and how
// many samples stand behind it (the unit is its metricDef's).
type metricValue struct {
	Value float64
	N     int
	Note  string
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metricValue

func (ms metricSet) set(name string, v float64, n int, note string) {
	ms[name] = metricValue{Value: v, N: n, Note: note}
}

// report is everything one run of one workload prints.
type report struct {
	Workload  string
	Env       environment
	Traced    bool
	PassWall  []float64 // seconds, timed passes in order
	SetupReps []float64 // seconds, one per set-up repetition
	Attempted int
	Failed    int
	Problems  []string // first few verification failures, for the reader
	Metrics   metricSet
	// KernelMS holds the per-kernel median op latency rows.
	KernelMS map[string]metricValue
	// Spans is the traced run's self-time table, by span name.
	Spans []spanShare
}

func (r *report) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// problem records a verification failure for the printed report, keeping
// only the first few.
func (r *report) problem(format string, args ...any) {
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// driverLine is the contract's last stdout line.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverJSON renders the final line: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one.
func (r *report) driverJSON() ([]byte, error) {
	defs := endToEndMetrics
	if r.Traced {
		defs = perLayerMetrics
	}
	out := driverLine{
		Correct:   r.correct(),
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   make(map[string]driverMetric, len(defs)),
	}
	for _, d := range defs {
		v := r.Metrics[d.Name].Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = driverMetric{Value: v, Unit: d.Unit}
	}
	return json.Marshal(out)
}

// print writes the human-readable report: environment, pass times, the
// op tally, and every metric by name with its unit and sample count.
func (r *report) print(w io.Writer) {
	e := r.Env
	mode := "end-to-end (tracing off)"
	if r.Traced {
		mode = "traced (per-layer)"
	}
	fmt.Fprintf(w, "# dopia benchmark: workload=%s mode=%s\n", r.Workload, mode)
	fmt.Fprintf(w, "# commit=%s seed=%d nproc=%d gomaxprocs=%d go=%s passes=%d\n",
		e.Commit, e.Seed, e.NProc, e.GOMAXPROCS, e.GoVersion, len(r.PassWall))
	fmt.Fprintf(w, "# pass wall seconds: %s\n", joinFloats(r.PassWall, "%.4f"))
	fmt.Fprintf(w, "# set-up seconds per repetition: %s\n", joinFloats(r.SetupReps, "%.4f"))
	fmt.Fprintf(w, "ops: attempted=%d succeeded=%d failed=%d\n", r.Attempted, r.Attempted-r.Failed, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
	defs := endToEndMetrics
	if r.Traced {
		defs = perLayerMetrics
	}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		note := ""
		if m.Note != "" {
			note = "  # " + m.Note
		}
		fmt.Fprintf(w, "metric %-28s %14.6g %-6s n=%d%s\n", d.Name, m.Value, d.Unit, m.N, note)
	}
	if !r.Traced {
		names := make([]string, 0, len(r.KernelMS))
		for name := range r.KernelMS {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := r.KernelMS[name]
			fmt.Fprintf(w, "kernel %-10s median %10.4f ms n=%d\n", name, m.Value, m.N)
		}
	}
	for _, sh := range r.Spans {
		fmt.Fprintf(w, "span %-22s self %12.3f ms  share %5.1f%%\n", sh.name, sh.selfMS, 100*sh.share)
	}
}

func joinFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
