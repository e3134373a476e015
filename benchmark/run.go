package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"dopia/internal/faults"
	"dopia/internal/stats"
)

// maxProcs caps GOMAXPROCS so results from large hosts stay comparable
// with the small sandboxes the benchmark is gated on.
const maxProcs = 4

// minTimedPasses is the floor on timed passes however short --seconds is.
const minTimedPasses = 11

// environment is recorded in every report.
type environment struct {
	Commit     string
	Seed       int64
	NProc      int
	GOMAXPROCS int
	GoVersion  string
}

// pinEnvironment refuses to run under any knob that silently changes
// what is measured, then pins GOMAXPROCS = min(nproc, maxProcs). It must
// run before the first call into internal/interp, which latches its
// default shard count from GOMAXPROCS once per process.
func pinEnvironment(seed int64) (environment, error) {
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "DOPIA_") {
			name, _, _ := strings.Cut(kv, "=")
			return environment{}, fmt.Errorf("%s is set: the benchmark measures the default configuration only", name)
		}
	}
	if faults.Active() {
		return environment{}, fmt.Errorf("fault injection is armed")
	}
	procs := runtime.NumCPU()
	if procs > maxProcs {
		procs = maxProcs
	}
	if v := os.Getenv("GOMAXPROCS"); v != "" && v != fmt.Sprint(procs) {
		return environment{}, fmt.Errorf("GOMAXPROCS=%s overrides the pinned value %d", v, procs)
	}
	runtime.GOMAXPROCS(procs)
	env := environment{
		Commit:     "unknown",
		Seed:       seed,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: procs,
		GoVersion:  runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env, nil
}

// passCtx tells a workload how to run one pass of its fixed op list.
type passCtx struct {
	// tr, when non-nil, asks in-process workloads to replay each op as
	// the decomposed chain of layer calls, one span per call.
	tr *tracer
	// detail asks monolithic ops to also time their sub-calls (traced
	// run only; the end-to-end run takes two clock readings per op).
	detail bool
}

// bench is one workload. Every method but pass is untimed except setup,
// whose wall time is setup_s.
type bench interface {
	// setupReps is how many times setup runs; setup_s is the median.
	setupReps() int
	// passSeconds is what one pass takes at the seed commit on the 2-core
	// sandbox; it fixes the number of timed passes (see passCount).
	passSeconds() float64
	// setup builds everything a fresh process needs before its first op:
	// model training, compiling, buffer fill. Each call starts over.
	// timed is non-nil on the traced run.
	setup(timed *trainTimes) error
	// pass executes the workload's seeded op list once and returns the
	// wall time of its timed part (the serving workload's session
	// prologue and epilogue are outside it).
	pass(p passCtx, rec *recorder) time.Duration
	// finish verifies outputs against the independent reference and
	// fills in the decision-quality data. Untimed.
	finish(rec *recorder) error
	// layers runs the direct-call layer measurements of the traced run.
	layers(rec *recorder, out metricSet) error
	// close releases sockets and goroutines.
	close()
}

// passData is one timed pass: its wall time and the ops it completed.
type passData struct {
	wall float64 // seconds, the pass's timed part
	ops  int
}

func (p passData) rate() float64 { return float64(p.ops) / p.wall }

func rates(ps []passData) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.rate()
	}
	return out
}

// samples are what the ops of a set of passes reported, by class.
type samples struct {
	lat      map[string][]float64 // op latency, ms
	reported map[string][]float64 // simulated time the launch reported, s
}

func newSamples() *samples {
	return &samples{lat: map[string][]float64{}, reported: map[string][]float64{}}
}

// recorder accumulates what the ops of a run report.
type recorder struct {
	attempted, failed int
	kernelOf          map[string]string // class -> kernel row

	// into receives the samples of the pass being run; nil during the
	// warm-up pass, whose ops are verified and counted but contribute no
	// sample. passOps counts the ops the current pass completed.
	into    *samples
	passOps int
	// mono holds the samples of every timed monolithic pass — what the
	// end-to-end metrics are computed from — and chain those of the traced
	// run's decomposed-chain passes.
	mono, chain *samples
	// detail samples of the traced run's monolithic passes, by name.
	detail map[string][]float64
	// oracle is the decision-quality data per class, filled by finish.
	oracle map[string]*oracleClass

	rep *report
}

func newRecorder(rep *report) *recorder {
	return &recorder{
		kernelOf: map[string]string{},
		mono:     newSamples(),
		chain:    newSamples(),
		detail:   map[string][]float64{},
		oracle:   map[string]*oracleClass{},
		rep:      rep,
	}
}

// ok records a successful op of a class.
func (r *recorder) ok(class, kernel string, d time.Duration) {
	r.attempted++
	r.kernelOf[class] = kernel
	if r.into != nil {
		r.passOps++
		r.into.lat[class] = append(r.into.lat[class], ms(d))
	}
}

// fail records a failed, refused, wrong-rung or mismatching op: it
// counts against ops attempted and contributes no latency sample.
func (r *recorder) fail(class string, format string, args ...any) {
	r.attempted++
	r.failed++
	r.rep.problem("%s: %s", class, fmt.Sprintf(format, args...))
}

// failClass marks ops of a class as failed after the fact (their
// outputs disagreed with the reference).
func (r *recorder) failClass(class string, ops int, format string, args ...any) {
	r.failed += ops
	if r.failed > r.attempted {
		r.failed = r.attempted
	}
	r.rep.problem("%s: %s", class, fmt.Sprintf(format, args...))
}

// reported adds the simulated time one launch reported to its class.
func (r *recorder) reported(class string, simTime float64) {
	if r.into != nil {
		r.into.reported[class] = append(r.into.reported[class], simTime)
	}
}

func (r *recorder) addDetail(name string, v float64) {
	if r.into != nil {
		r.detail[name] = append(r.detail[name], v)
	}
}

// runPass runs one timed pass whose samples go to into: garbage is
// collected first, outside the timed region.
func runPass(b bench, rec *recorder, p passCtx, into *samples) passData {
	runtime.GC()
	rec.into, rec.passOps = into, 0
	wall := b.pass(p, rec).Seconds()
	rec.into = nil
	return passData{wall: wall, ops: rec.passOps}
}

// passCount is the fixed number of timed passes of a run: --seconds
// divided by what one pass takes at the seed commit on the 2-core
// sandbox. Every run of a workload at one --seconds therefore executes
// the same ops, so heap growth and collections repeat from run to run.
func passCount(seconds, nominalPassSeconds float64) int {
	n := int(seconds/nominalPassSeconds + 0.5)
	if n < minTimedPasses {
		n = minTimedPasses
	}
	return n
}

// runWorkload executes the run protocol for one workload and returns
// its report.
func runWorkload(b bench, name string, opt options, env environment) (*report, error) {
	rep := &report{Workload: name, Env: env, Traced: opt.trace, Metrics: metricSet{}, KernelMS: map[string]metricValue{}}
	rec := newRecorder(rep)
	defer b.close()

	var timed *trainTimes
	reps := b.setupReps()
	if opt.trace {
		timed, reps = &trainTimes{}, 1
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := b.setup(timed); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		rep.SetupReps = append(rep.SetupReps, time.Since(t0).Seconds())
	}

	b.pass(passCtx{}, rec) // warm-up, discarded: rec.into is nil
	passes := opt.passes
	if passes == 0 {
		passes = passCount(opt.seconds, b.passSeconds())
	}

	if !opt.trace {
		var mono []passData
		for i := 0; i < passes; i++ {
			mono = append(mono, runPass(b, rec, passCtx{}, rec.mono))
		}
		if err := finishRun(b, rec, name); err != nil {
			return nil, err
		}
		fillEndToEnd(rep, rec, mono)
		return rep, nil
	}

	// Traced run: monolithic passes (the untraced baseline) alternate
	// with passes of the same op list replayed as the decomposed chain
	// under the tracer, so both see the same host conditions; then the
	// direct-call layer measurements.
	tr := newTracer()
	var mono, chain []passData
	var proc procStats
	for i := 0; i < (passes+2)/3; i++ {
		before := readProc()
		mono = append(mono, runPass(b, rec, passCtx{detail: true}, rec.mono))
		proc = proc.add(readProc().sub(before))
		chain = append(chain, runPass(b, rec, passCtx{tr: tr}, rec.chain))
	}
	if err := b.layers(rec, rep.Metrics); err != nil {
		return nil, fmt.Errorf("%s: layer measurements: %w", name, err)
	}
	if err := finishRun(b, rec, name); err != nil {
		return nil, err
	}
	fillEndToEnd(rep, rec, mono)
	fillTraced(rep, rec, mono, chain, tr, proc, timed)
	if err := tr.write(filepath.Join(opt.traceDir, "trace-"+name+".json")); err != nil {
		return nil, fmt.Errorf("writing the spans: %w", err)
	}
	return rep, nil
}

// finishRun opens a decision-quality class for every class that reported
// a simulated time, then lets the workload verify and fill them in.
func finishRun(b bench, rec *recorder, name string) error {
	for class, xs := range rec.mono.reported {
		rec.oracle[class] = &oracleClass{reported: xs}
	}
	if err := b.finish(rec); err != nil {
		return fmt.Errorf("%s: verification: %w", name, err)
	}
	return nil
}

// fillEndToEnd computes the five end-to-end metrics and the kernel rows
// from all timed monolithic passes.
func fillEndToEnd(rep *report, rec *recorder, passes []passData) {
	for _, p := range passes {
		rep.PassWall = append(rep.PassWall, p.wall)
	}
	rep.Attempted, rep.Failed = rec.attempted, rec.failed
	lat := rec.mono.lat
	out := rep.Metrics
	out.set("setup_s", median(rep.SetupReps), len(rep.SetupReps), "median over set-up repetitions")
	out.set("ops_per_s", median(rates(passes)), len(passes), "median over the timed passes")
	minN, total := minClassCount(lat)
	out.set("op_geomean_ms", classGeomean(lat, 0.5), total,
		fmt.Sprintf("%d classes, smallest has %d samples", len(lat), minN))
	plain, overhead, n := oracleFractions(rec.oracle)
	out.set("oracle_fraction", plain, n, fmt.Sprintf("%d classes", len(rec.oracle)))
	out.set("oracle_fraction_overhead", overhead, n, "")

	byKernel := map[string][]float64{}
	for class, xs := range lat {
		if k := rec.kernelOf[class]; k != "" {
			byKernel[k] = append(byKernel[k], xs...)
		}
	}
	for k, xs := range byKernel {
		rep.KernelMS[k] = metricValue{Value: median(xs), N: len(xs)}
	}
}

// fillTraced computes the per-layer metrics every workload shares: the
// kernel rows, the tail, the process counters and the two trace checks.
// Workload-specific layer metrics were set by layers.
func fillTraced(rep *report, rec *recorder, mono, chain []passData, tr *tracer, proc procStats, timed *trainTimes) {
	out := rep.Metrics
	for k, m := range rep.KernelMS {
		out.set("kernel."+k+".ms", m.Value, m.N, "")
	}
	_, total := minClassCount(rec.mono.lat)
	out.set("tail.op_p90_geomean_ms", classGeomean(rec.mono.lat, 0.9), total, "")

	ops := 0
	for _, p := range mono {
		ops += p.ops
	}
	if ops > 0 {
		n := float64(ops)
		out.set("proc.cpu_ms_per_op", proc.cpuMS/n, ops, "getrusage over the untraced passes")
		out.set("proc.alloc_kb_per_op", proc.allocBytes/1024/n, ops, "")
		out.set("proc.mallocs_per_op", proc.mallocs/n, ops, "")
	}
	out.set("proc.gc_pause_ms", proc.gcPauseMS, len(mono), "summed over the untraced passes")
	out.set("proc.heap_mb_end", proc.heapMB, 1, "heap in use after the last untraced pass")

	out.set("core.train_s", timed.characterizeS, 1, "EvaluateAll over the training slice, summed over machines")
	out.set("ml.fit_ms", timed.fitMS, 1, "TreeTrainer.Fit, summed over machines")

	out.set("trace.overhead_ratio", median(rates(chain))/median(rates(mono)), len(chain), "traced / untraced ops_per_s")
	// Coverage: layer self time of the chain passes against what the same
	// ops cost untraced. Both sides are sums, so each op is weighed by its
	// class's untraced mean, not its median.
	var want float64
	for class, xs := range rec.chain.lat {
		want += float64(len(xs)) * stats.Mean(rec.mono.lat[class])
	}
	if want > 0 {
		out.set("trace.coverage", layerSelfMS(tr.spans)/want, len(tr.spans), "sum of layer self time / untraced cost of the same ops")
	}
	rep.Spans = spanShares(tr.spans)
	for name, xs := range spanDurations(tr.spans) {
		if metric, scale, ok := spanMetric(name); ok {
			out.set(metric, median(xs)*scale, len(xs), "median of span "+name)
		}
	}
}

// spanMetric maps a span name to the per-layer metric that reports its
// median, and the factor from the span's milliseconds to the metric's unit.
func spanMetric(span string) (metric string, scale float64, ok bool) {
	switch span {
	case "clc.compile":
		return "clc.compile_us", 1e3, true
	case "analysis.analyze":
		return "analysis.analyze_us", 1e3, true
	case "transform.malleable":
		return "transform.malleable_us", 1e3, true
	case "interp.lower":
		return "interp.lower_us", 1e3, true
	case "sched.model":
		return "sched.model_ms", 1, true
	case "sched.run_functional":
		return "sched.run_functional_ms", 1, true
	case "sim.sweep44":
		return "sim.sweep44_ms", 1, true
	case "core.decide_cold":
		return "core.decide_cold_us", 1e3, true
	case "core.decide_warm":
		return "core.decide_warm_us", 1e3, true
	}
	return "", 0, false
}

// procStats are process-level counters over a stretch of the run.
type procStats struct {
	cpuMS      float64
	allocBytes float64
	mallocs    float64
	gcPauseMS  float64
	heapMB     float64
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return procStats{
		cpuMS:      tv(ru.Utime) + tv(ru.Stime),
		allocBytes: float64(m.TotalAlloc),
		mallocs:    float64(m.Mallocs),
		gcPauseMS:  float64(m.PauseTotalNs) / 1e6,
		heapMB:     float64(m.HeapInuse) / (1 << 20),
	}
}

// add sums two stretches; heapMB is the later one's.
func (p procStats) add(q procStats) procStats {
	return procStats{
		cpuMS:      p.cpuMS + q.cpuMS,
		allocBytes: p.allocBytes + q.allocBytes,
		mallocs:    p.mallocs + q.mallocs,
		gcPauseMS:  p.gcPauseMS + q.gcPauseMS,
		heapMB:     q.heapMB,
	}
}

// sub returns the counters accumulated since prev; heapMB stays absolute.
func (p procStats) sub(prev procStats) procStats {
	return procStats{
		cpuMS:      p.cpuMS - prev.cpuMS,
		allocBytes: p.allocBytes - prev.allocBytes,
		mallocs:    p.mallocs - prev.mallocs,
		gcPauseMS:  p.gcPauseMS - prev.gcPauseMS,
		heapMB:     p.heapMB,
	}
}
