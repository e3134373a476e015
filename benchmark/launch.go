package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dopia"
	"dopia/internal/analysis"
	"dopia/internal/clc"
	"dopia/internal/core"
	"dopia/internal/interp"
	"dopia/internal/ml"
	"dopia/internal/ocl"
	"dopia/internal/sched"
	"dopia/internal/sim"
	"dopia/internal/stats"
	"dopia/internal/transform"
	"dopia/internal/workloads"
)

// launchSizing fixes the work of first_launch and relaunch. Tests pass
// toy values; the benchmark proper uses the two vars below.
type launchSizing struct {
	sizes1D []int // problem sizes of the 1-D kernels
	sizes2D []int // problem sizes of the 2-D kernels
	sparse  []int // problem sizes of SpMV (nil = sizes1D)
	reps    int   // ops per class per pass
	stride  int   // training-slice stride
	// passSeconds is one pass's wall time at the seed commit on the
	// 2-core sandbox.
	passSeconds float64
}

// firstLaunchSizing: tiny geometry, so the front end and the decision
// are a visible share of the op. SYR2K floors its size at 64, so its two
// sizes are one class: 27 classes.
var firstLaunchSizing = launchSizing{sizes1D: []int{64, 256}, sizes2D: []int{32, 64}, reps: 12, stride: trainStride, passSeconds: 0.6}

// relaunchSizing: one size per kernel, large enough that functional
// execution is most of the op. The issue's prototype used n=2048/512 for
// 2 s passes; these are a quarter of the work so that eleven or more
// passes fit the driver's run length (see benchmark/README.md).
var relaunchSizing = launchSizing{sizes1D: []int{1024}, sizes2D: []int{256}, sparse: []int{512}, reps: 4, stride: trainStride, passSeconds: 1.1}

// buildClasses instantiates every kernel at every size of its shape.
func buildClasses(descs []workloads.Desc, sz launchSizing) ([]*kernelClass, error) {
	var out []*kernelClass
	seen := map[string]bool{}
	for _, d := range descs {
		sizes := sz.sizes1D
		switch {
		case d.TwoDim:
			sizes = sz.sizes2D
		case d.Name == "SpMV" && sz.sparse != nil:
			sizes = sz.sparse
		}
		for _, n := range sizes {
			c, err := newKernelClass(d, n)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", d.Name, n, err)
			}
			// Kernels that floor their size map two requests to one workload.
			if seen[c.w.Name] {
				continue
			}
			seen[c.w.Name] = true
			out = append(out, c)
		}
	}
	return out, nil
}

// launchOutcome is what one launch reported, monolithic or chain.
type launchOutcome struct {
	rung    string
	cfg     sim.Config
	simTime float64
	infer   time.Duration
}

// outcomeOf reads the interposer's record of the latest launch on q.
func outcomeOf(q *ocl.CommandQueue) launchOutcome {
	var out launchOutcome
	if info, ok := q.LastLaunch.(*core.LaunchInfo); ok && info != nil {
		out.rung = info.Rung
		if d := info.Decision; d != nil {
			out.cfg, out.infer = d.Config, d.InferTime
		}
	}
	if r := q.LastResult; r != nil {
		out.simTime = r.Time
	}
	return out
}

// checkLaunch applies the per-op rules: managed rung, and the same
// decision, simulated time (less the host-measured inference charge) and
// output bytes as the class's first op. Because chain ops are checked
// against the same first op, it is also what asserts chain ≡ monolithic.
func checkLaunch(rec *recorder, c *kernelClass, out launchOutcome, d time.Duration, err error) {
	if err != nil {
		rec.fail(c.name, "%v", err)
		return
	}
	if out.rung != "managed" {
		rec.fail(c.name, "served on rung %q, want managed", out.rung)
		return
	}
	dg := c.outputDigest()
	base := out.simTime - out.infer.Seconds()
	switch {
	case !c.seen:
		c.seen, c.digest, c.cfg, c.simBase = true, dg, out.cfg, base
	case dg != c.digest:
		rec.fail(c.name, "output digest %016x differs from the class's first op %016x", dg, c.digest)
		return
	case out.cfg != c.cfg:
		rec.fail(c.name, "decision %+v differs from the class's first op %+v", out.cfg, c.cfg)
		return
	case math.Abs(base-c.simBase) > 1e-9*out.simTime:
		rec.fail(c.name, "simulated time %g differs from the class's first op %g", base, c.simBase)
		return
	}
	c.ops++
	rec.ok(c.name, c.kernel, d)
	rec.reported(c.name, out.simTime)
}

// finishClasses is the untimed tail both launch workloads share: the
// independent reference per class, then the class's exhaustive oracle.
func finishClasses(rec *recorder, m *sim.Machine, classes []*kernelClass) error {
	for _, c := range classes {
		if !c.seen {
			continue
		}
		ref, err := c.referenceDigest()
		if err != nil {
			return fmt.Errorf("%s: reference: %w", c.name, err)
		}
		if ref != c.digest {
			rec.failClass(c.name, c.ops, "output digest %016x differs from the reference path %016x", c.digest, ref)
		}
		eval, err := dopia.Characterize(m, c.w)
		if err != nil {
			return fmt.Errorf("%s: oracle: %w", c.name, err)
		}
		if oc := rec.oracle[c.name]; oc != nil {
			oc.best, oc.chosen = eval.BestTime, eval.Time(c.cfg)
		}
	}
	return nil
}

// predict44 times the uncached 44-configuration model sweep of a class.
func predict44(m *sim.Machine, model ml.Model, res *analysis.Result, nd interp.NDRange) float64 {
	base := core.BaseFeatures(res, nd)
	cfgs := m.Configs()
	t0 := time.Now()
	var sink float64
	for _, cfg := range cfgs {
		sink += model.Predict(core.WithConfig(base, m, cfg))
	}
	d := time.Since(t0)
	_ = sink
	return us(d)
}

// launchBase is the state first_launch and relaunch share.
type launchBase struct {
	seed    int64
	sizing  launchSizing
	descs   []workloads.Desc // the kernels; all fourteen outside the tests
	machine *sim.Machine
	model   ml.Model
	classes []*kernelClass
	ops     []int
	opID    int

	progBefore ocl.ProgCacheSnapshot
}

func newLaunchBase(seed int64, sz launchSizing) launchBase {
	return launchBase{seed: seed, sizing: sz, descs: workloads.RealDescs()}
}

func (b *launchBase) setupReps() int       { return 3 }
func (b *launchBase) passSeconds() float64 { return b.sizing.passSeconds }
func (b *launchBase) close()               {}

// setupBase trains the model, fills the buffers and draws the op list.
func (b *launchBase) setupBase(timed *trainTimes) error {
	b.machine = dopia.Kaveri()
	slice, err := trainingSlice(b.sizing.stride)
	if err != nil {
		return err
	}
	if b.model, err = trainModel(b.machine, slice, timed); err != nil {
		return err
	}
	if b.classes, err = buildClasses(b.descs, b.sizing); err != nil {
		return err
	}
	b.ops = shuffledOps(rand.New(rand.NewSource(b.seed)), len(b.classes), b.sizing.reps)
	return nil
}

func (b *launchBase) finish(rec *recorder) error {
	return finishClasses(rec, b.machine, b.classes)
}

// progCacheRatio is the program cache's hit ratio since set-up ended.
func (b *launchBase) progCacheRatio() (ratio float64, n int) {
	now := ocl.ProgCacheStats()
	hits, misses := now.Hits-b.progBefore.Hits, now.Misses-b.progBefore.Misses
	if hits+misses == 0 {
		return 0, 0
	}
	return float64(hits) / float64(hits+misses), int(hits + misses)
}

// ---- first_launch ---------------------------------------------------------

// firstLaunch: every op is a new program's first launch, on a fresh
// platform, context and framework, from a source no cache has seen.
type firstLaunch struct {
	launchBase
	stats firstLaunchStats
}

// firstLaunchStats sums the per-op frameworks' counters (each op's
// framework dies with the op).
type firstLaunchStats struct {
	predHits, predMisses int64
	managed, launches    int64
}

func newFirstLaunch(seed int64, sz launchSizing) *firstLaunch {
	return &firstLaunch{launchBase: newLaunchBase(seed, sz)}
}

func (f *firstLaunch) setup(timed *trainTimes) error {
	if err := f.setupBase(timed); err != nil {
		return err
	}
	f.progBefore = ocl.ProgCacheStats()
	return nil
}

func (f *firstLaunch) pass(p passCtx, rec *recorder) time.Duration {
	start := time.Now()
	for _, ci := range f.ops {
		c := f.classes[ci]
		c.restore()
		src := uniqueSource(c.w.Source, f.seed)
		f.opID++
		if p.tr != nil {
			out, d, err := f.chainOp(p.tr.startOp(f.opID), c, src)
			checkLaunch(rec, c, out, d, err)
			continue
		}
		out, d, err := f.monoOp(c, src, p.detail, rec)
		checkLaunch(rec, c, out, d, err)
	}
	return time.Since(start)
}

// monoOp is the op as an application performs it, through the facade.
func (f *firstLaunch) monoOp(c *kernelClass, src string, detail bool, rec *recorder) (launchOutcome, time.Duration, error) {
	t0 := time.Now()
	platform := dopia.NewPlatform(f.machine)
	ctx := platform.CreateContext()
	fw := dopia.NewFramework(f.machine, f.model)
	fw.Attach(ctx)
	prog := ctx.CreateProgramWithSource(src)
	tb := time.Now()
	if err := prog.Build(); err != nil {
		return launchOutcome{}, 0, err
	}
	built := time.Since(tb)
	kern, err := prog.CreateKernel(c.w.Kernel)
	if err != nil {
		return launchOutcome{}, 0, err
	}
	for i, a := range c.inst.Args {
		if err := kern.SetArg(i, a); err != nil {
			return launchOutcome{}, 0, err
		}
	}
	q := ctx.CreateCommandQueue(platform.Device(dopia.DeviceCPU))
	if err := q.EnqueueNDRangeKernel(kern, c.inst.ND); err != nil {
		return launchOutcome{}, 0, err
	}
	d := time.Since(t0)
	if detail {
		rec.addDetail("ocl.build_us", us(built))
		h, m := fw.PredCacheStats()
		f.stats.predHits += h
		f.stats.predMisses += m
		snap := fw.Stats.Snapshot()
		f.stats.managed += snap.Managed
		f.stats.launches += snap.Managed + snap.CoExecAll + snap.Plain
	}
	return outcomeOf(q), d, nil
}

// chainOp replays the op as direct calls into each layer's public
// functions, one span per call. It performs the work the monolithic op
// performs — cold compile, analysis, transform, both lowerings, sampled
// profiling, a cold 44-configuration decision, functional co-execution —
// without the ocl and interposer wrappers.
func (f *firstLaunch) chainOp(o opTrace, c *kernelClass, src string) (launchOutcome, time.Duration, error) {
	var (
		k    *clc.Kernel
		res  *analysis.Result
		mall *transform.GPUResult
	)
	err := o.call("clc.compile", func() error {
		prog, err := clc.Compile(src)
		if err != nil {
			return err
		}
		if k = prog.Kernel(c.w.Kernel); k == nil {
			return fmt.Errorf("kernel %q not found", c.w.Kernel)
		}
		return nil
	})
	if err == nil {
		err = o.call("analysis.analyze", func() (err error) { res, err = analysis.Analyze(k); return })
	}
	if err == nil {
		err = o.call("transform.malleable", func() (err error) { mall, err = transform.MalleableGPU(k, c.inst.ND.Dims); return })
	}
	if err == nil {
		err = lowerBoth(o, k, mall.Kernel, c.inst.Args, c.inst.ND)
	}
	var out launchOutcome
	if err == nil {
		fw := core.New(f.machine, f.model)
		out, err = executeChain(o, fw, "core.decide_cold", k, res, mall, c)
	}
	return out, o.finish(), err
}

// lowerBoth compiles and lowers the original and the malleable kernel
// the way the first managed launch does, as direct interpreter calls:
// NewExec builds the closure form, the first Launch lowers to bytecode.
func lowerBoth(o opTrace, orig, malleable *clc.Kernel, args []interp.Arg, nd interp.NDRange) error {
	margs := append(append([]interp.Arg(nil), args...), interp.IntArg(8), interp.IntArg(8))
	for _, kc := range []struct {
		k    *clc.Kernel
		args []interp.Arg
	}{{orig, args}, {malleable, margs}} {
		var ex *interp.Exec
		if err := o.call("interp.compile", func() (err error) { ex, err = interp.NewExec(kc.k); return }); err != nil {
			return err
		}
		if err := ex.Bind(kc.args...); err != nil {
			return err
		}
		if err := o.call("interp.lower", func() error { return ex.Launch(nd) }); err != nil {
			return err
		}
	}
	return nil
}

// executeChain is the enqueue-time half of the chain, shared by both
// launch workloads: executor, profiling run, decision, functional run.
func executeChain(o opTrace, fw *core.Framework, decideSpan string, k *clc.Kernel, res *analysis.Result, mall *transform.GPUResult, c *kernelClass) (launchOutcome, error) {
	var ex *sched.Executor
	err := o.call("sched.new_executor", func() (err error) { ex, err = sched.NewExecutor(fw.Machine, k, mall.Kernel); return })
	if err == nil {
		err = o.call("sched.bind_launch", func() error {
			if err := ex.Bind(c.inst.Args...); err != nil {
				return err
			}
			return ex.Launch(c.inst.ND)
		})
	}
	if err == nil {
		err = o.call("sched.model", func() error { _, err := ex.Model(); return err })
	}
	if err != nil {
		return launchOutcome{}, err
	}
	var dec core.Decision
	_ = o.call(decideSpan, func() error { dec = fw.Decide(res, c.inst.ND); return nil })
	var result *sim.Result
	err = o.call("sched.run_functional", func() (err error) {
		result, err = ex.Run(dec.Config, sched.RunOptions{
			Dist:            fw.Dist,
			Functional:      true,
			ExtraStartupSec: dec.InferTime.Seconds(),
			Context:         context.Background(),
		})
		return
	})
	if err != nil {
		return launchOutcome{}, err
	}
	return launchOutcome{rung: "managed", cfg: dec.Config, simTime: result.Time, infer: dec.InferTime}, nil
}

func (f *firstLaunch) layers(rec *recorder, out metricSet) error {
	out.set("ocl.build_us", median(rec.detail["ocl.build_us"]), len(rec.detail["ocl.build_us"]), "Program.Build on unique sources")
	ratio, n := f.progCacheRatio()
	out.set("ocl.progcache_hit_ratio", ratio, n, "")
	if tot := f.stats.predHits + f.stats.predMisses; tot > 0 {
		out.set("core.pred_cache_hit_ratio", float64(f.stats.predHits)/float64(tot), int(tot), "")
	}
	if f.stats.launches > 0 {
		out.set("core.managed_ratio", float64(f.stats.managed)/float64(f.stats.launches), int(f.stats.launches), "")
	}
	enqueueOverhead(rec, out)
	return predictLayer(out, f.machine, f.model, f.classes)
}

// enqueueOverhead reports what the monolithic op costs beyond the chain
// of layer calls: ocl objects, the interposer's ladder, the snapshot of
// written buffers.
func enqueueOverhead(rec *recorder, out metricSet) {
	var mono, chain []float64
	for class, xs := range rec.chain.lat {
		chain = append(chain, xs...)
		mono = append(mono, rec.mono.lat[class]...)
	}
	out.set("ocl.enqueue_overhead_us", 1e3*(median(mono)-median(chain)), len(chain), "monolithic op median - chain op median")
}

// predictLayer reports the uncached model sweep over the classes.
func predictLayer(out metricSet, m *sim.Machine, model ml.Model, classes []*kernelClass) error {
	var xs []float64
	for _, c := range classes {
		k, err := c.w.CompileKernel()
		if err != nil {
			return err
		}
		res, err := analysis.Analyze(k)
		if err != nil {
			return err
		}
		xs = append(xs, predict44(m, model, res, c.inst.ND))
	}
	out.set("ml.predict44_us", median(xs), len(xs), "44 uncached Model.Predict calls per class")
	return nil
}

// ---- relaunch -------------------------------------------------------------

// relaunch: an iterative application re-launching resident kernels on
// one context, framework and queue.
type relaunch struct {
	launchBase
	fw    *core.Framework
	ctx   *ocl.Context
	queue *ocl.CommandQueue
	srcs  []string
	kerns []*ocl.Kernel
}

func newRelaunch(seed int64, sz launchSizing) *relaunch {
	return &relaunch{launchBase: newLaunchBase(seed, sz)}
}

func (r *relaunch) setup(timed *trainTimes) error {
	if err := r.setupBase(timed); err != nil {
		return err
	}
	platform := dopia.NewPlatform(r.machine)
	r.ctx = platform.CreateContext()
	r.fw = dopia.NewFramework(r.machine, r.model)
	r.fw.Attach(r.ctx)
	r.queue = r.ctx.CreateCommandQueue(platform.Device(dopia.DeviceCPU))
	r.srcs, r.kerns = nil, nil
	for _, c := range r.classes {
		// A unique header per set-up repetition, so every repetition
		// compiles as a fresh process would.
		src := uniqueSource(c.w.Source, r.seed)
		prog := r.ctx.CreateProgramWithSource(src)
		if err := prog.Build(); err != nil {
			return err
		}
		kern, err := prog.CreateKernel(c.w.Kernel)
		if err != nil {
			return err
		}
		for i, a := range c.inst.Args {
			if err := kern.SetArg(i, a); err != nil {
				return err
			}
		}
		r.srcs = append(r.srcs, src)
		r.kerns = append(r.kerns, kern)
	}
	r.progBefore = ocl.ProgCacheStats()
	return nil
}

func (r *relaunch) pass(p passCtx, rec *recorder) time.Duration {
	start := time.Now()
	for _, ci := range r.ops {
		c, kern := r.classes[ci], r.kerns[ci]
		c.restore()
		r.opID++
		if p.tr != nil {
			out, d, err := r.chainOp(p.tr.startOp(r.opID), c, kern.Compiled())
			checkLaunch(rec, c, out, d, err)
			continue
		}
		t0 := time.Now()
		err := r.queue.EnqueueNDRangeKernel(kern, c.inst.ND)
		d := time.Since(t0)
		checkLaunch(rec, c, outcomeOf(r.queue), d, err)
	}
	return time.Since(start)
}

// chainOp is a warm launch as direct layer calls: the framework's
// analysis and transform caches hit, the executor is rebuilt, the kernel
// is re-profiled, the decision is served from the prediction cache.
func (r *relaunch) chainOp(o opTrace, c *kernelClass, k *clc.Kernel) (launchOutcome, time.Duration, error) {
	var (
		res  *analysis.Result
		mall *transform.GPUResult
	)
	err := o.call("core.kernel_info", func() (err error) {
		if res, err = r.fw.Analysis(k); err != nil {
			return err
		}
		mall, err = r.fw.Malleable(k, c.inst.ND.Dims)
		return err
	})
	var out launchOutcome
	if err == nil {
		out, err = executeChain(o, r.fw, "core.decide_warm", k, res, mall, c)
	}
	return out, o.finish(), err
}

func (r *relaunch) layers(rec *recorder, out metricSet) error {
	// Program.Build of a resident source: a program-cache hit.
	var hits []float64
	for _, src := range r.srcs {
		prog := r.ctx.CreateProgramWithSource(src)
		t0 := time.Now()
		if err := prog.Build(); err != nil {
			return err
		}
		hits = append(hits, us(time.Since(t0)))
	}
	out.set("ocl.build_hit_us", median(hits), len(hits), "Program.Build of an already-built source")
	ratio, n := r.progCacheRatio()
	out.set("ocl.progcache_hit_ratio", ratio, n, "")
	if h, m := r.fw.PredCacheStats(); h+m > 0 {
		out.set("core.pred_cache_hit_ratio", float64(h)/float64(h+m), int(h+m), "")
	}
	snap := r.fw.Stats.Snapshot()
	if tot := snap.Managed + snap.CoExecAll + snap.Plain; tot > 0 {
		out.set("core.managed_ratio", float64(snap.Managed)/float64(tot), int(tot), "")
	}
	enqueueOverhead(rec, out)
	if err := predictLayer(out, r.machine, r.model, r.classes); err != nil {
		return err
	}
	return r.interpLayer(out)
}

// interpVariant is one interpreter configuration the relaunch layer run
// times against the default.
type interpVariant struct {
	metric string
	apply  func(ex *interp.Exec)
}

var interpVariants = []interpVariant{
	{"interp.shard_speedup", func(ex *interp.Exec) { ex.Parallelism = interp.Sequential }},
	{"interp.lane_speedup", func(ex *interp.Exec) { ex.LaneWidth = 1 }},
	{"interp.closure_ratio", func(ex *interp.Exec) { ex.Engine = interp.EngineClosures }},
}

// interpLayer runs every resident kernel's full ND range directly on
// interp.Exec: once in the default configuration, once per variant with
// one tier switched off. A ratio above 1 is what the tier buys.
func (r *relaunch) interpLayer(out metricSet) error {
	const runs = 3
	time1 := func(c *kernelClass, k *clc.Kernel, apply func(*interp.Exec)) (float64, *interp.Exec, error) {
		ex, err := interp.NewExec(k)
		if err != nil {
			return 0, nil, err
		}
		if apply != nil {
			apply(ex)
		}
		if err := ex.Bind(c.inst.Args...); err != nil {
			return 0, nil, err
		}
		if err := ex.Launch(c.inst.ND); err != nil {
			return 0, nil, err
		}
		var xs []float64
		for i := 0; i < runs; i++ {
			c.restore()
			t0 := time.Now()
			if err := ex.Run(); err != nil {
				return 0, nil, err
			}
			xs = append(xs, float64(time.Since(t0).Nanoseconds()))
		}
		c.restore()
		return median(xs), ex, nil
	}
	var perItem []float64
	ratios := make([][]float64, len(interpVariants))
	fallbacks := 0
	for i, c := range r.classes {
		k := r.kerns[i].Compiled()
		base, ex, err := time1(c, k, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		if eng, _ := ex.EngineUsed(); eng != interp.EngineBytecode {
			fallbacks++
		}
		perItem = append(perItem, base/float64(c.inst.ND.TotalItems()))
		for vi, v := range interpVariants {
			t, _, err := time1(c, k, v.apply)
			if err != nil {
				return fmt.Errorf("%s (%s): %w", c.name, v.metric, err)
			}
			ratios[vi] = append(ratios[vi], t/base)
		}
	}
	out.set("interp.exec_ns_per_item", stats.Geomean(perItem), len(perItem), "Exec.Run over the full ND range, geomean over kernels")
	for vi, v := range interpVariants {
		out.set(v.metric, stats.Geomean(ratios[vi]), len(ratios[vi]), "time with the tier off / default, geomean over kernels")
	}
	out.set("interp.fallback_kernels", float64(fallbacks), len(r.classes), "kernels whose EngineUsed is not bytecode")
	return nil
}
