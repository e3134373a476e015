package sched

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"dopia/internal/clc"
	"dopia/internal/faults"
	"dopia/internal/interp"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// A functional run that builds its own model keeps the output of the
// model's sampled work-groups and leaves them out of its plan, so a
// work-group-independent launch runs each group once.

// firstLaunchWorkloads instantiates the fourteen real kernels at the
// first_launch benchmark's geometry: 1-D kernels at n = 64 and 256, 2-D
// kernels at 32 and 64, groups of 64 (SYR2K floors its size at 64, so
// its two sizes are one workload).
func firstLaunchWorkloads(tb testing.TB) []*workloads.Workload {
	tb.Helper()
	var out []*workloads.Workload
	seen := map[string]bool{}
	for _, d := range workloads.RealDescs() {
		sizes := []int{64, 256}
		if d.TwoDim {
			sizes = []int{32, 64}
		}
		for _, n := range sizes {
			w, err := d.Build(n, 64)
			if err != nil {
				tb.Fatal(err)
			}
			if !seen[w.Name] {
				seen[w.Name] = true
				out = append(out, w)
			}
		}
	}
	return out
}

// freshKernel compiles w's source into a private kernel whose memos
// (analysis, compiled forms, the model memo) start empty:
// w.CompileKernel shares one kernel per source across the process.
func freshKernel(tb testing.TB, w *workloads.Workload) *clc.Kernel {
	tb.Helper()
	prog, err := clc.Compile(w.Source)
	if err != nil {
		tb.Fatal(err)
	}
	k := prog.Kernel(w.Kernel)
	if k == nil {
		tb.Fatalf("%s: kernel %q not found", w.Name, w.Kernel)
	}
	return k
}

// referenceRun runs k over args with one plain interp.Exec.Run.
func referenceRun(t *testing.T, k *clc.Kernel, args []interp.Arg, nd interp.NDRange) {
	t.Helper()
	ex, err := interp.NewExec(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Bind(args...); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(nd); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
}

// firstRun makes a fresh kernel's first functional Run on a new executor
// and returns the executor.
func firstRun(t *testing.T, k *clc.Kernel, args []interp.Arg, nd interp.NDRange, cfg sim.Config) *Executor {
	t.Helper()
	e, err := NewExecutor(sim.Kaveri(), k, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.AssumeMalleable = true
	if err := e.Bind(args...); err != nil {
		t.Fatal(err)
	}
	if err := e.Launch(nd); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(cfg, RunOptions{Dist: sim.Dynamic, Functional: true}); err != nil {
		t.Fatal(err)
	}
	if !e.Profiled() {
		t.Fatal("a fresh kernel's first run did not profile")
	}
	return e
}

// TestFirstRunRunsEachGroupOnce: a fresh real kernel's first functional
// run, at AllResources and at CPUOnly, leaves the bytes of a plain run
// and runs exactly the launch's work-groups; a pinned kernel (a global
// atomic) still profiles on a snapshot and runs sampled + total groups.
func TestFirstRunRunsEachGroupOnce(t *testing.T) {
	m := sim.Kaveri()
	for _, w := range firstLaunchWorkloads(t) {
		for _, cfg := range []sim.Config{m.AllResources(), m.CPUOnly()} {
			k := freshKernel(t, w)
			inst, err := w.Setup()
			if err != nil {
				t.Fatal(err)
			}
			pristine := snapshotBuffers(inst.Args)
			e := firstRun(t, k, inst.Args, inst.ND, cfg)
			if r := e.PinReason(); r != "" {
				t.Fatalf("%s is pinned (%s): the kept-groups path is not under test", w.Name, r)
			}
			got := snapshotBuffers(inst.Args)
			pristine.restore()
			referenceRun(t, k, inst.Args, inst.ND)
			if i := got.diff(); i >= 0 {
				t.Errorf("%s %v: argument %d differs from a plain run", w.Name, cfg, i)
			}
			if g, total := e.ex.Stats().GroupsRun, int64(inst.ND.TotalGroups()); g != total {
				t.Errorf("%s %v: %d work-groups ran, the launch has %d", w.Name, cfg, g, total)
			}
		}
	}

	const src = `
__kernel void sum(__global int* in, __global int* total, __global int* out) {
    int i = get_global_id(0);
    atomic_add(total, in[i] & 7);
    out[i] = in[i] + 1;
}`
	const n, wg = 1024, 64
	for _, cfg := range []sim.Config{m.AllResources(), m.CPUOnly()} {
		prog, err := clc.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		k := prog.Kernel("sum")
		args := []interp.Arg{
			interp.BufArg(workloads.NewFilledInt(n, 3, 1000)),
			interp.BufArg(interp.NewIntBuffer(1)),
			interp.BufArg(interp.NewIntBuffer(n)),
		}
		pristine := snapshotBuffers(args)
		e := firstRun(t, k, args, interp.ND1(n, wg), cfg)
		if e.PinReason() == "" {
			t.Fatal("the atomic kernel is not pinned")
		}
		got := snapshotBuffers(args)
		pristine.restore()
		referenceRun(t, k, args, interp.ND1(n, wg))
		if i := got.diff(); i >= 0 {
			t.Errorf("pinned %v: argument %d differs from a plain run", cfg, i)
		}
		if g, want := e.ex.Stats().GroupsRun, int64(ProfileSampleWGs+n/wg); g != want {
			t.Errorf("pinned %v: %d work-groups ran, want sampled + total = %d", cfg, g, want)
		}
	}
}

// TestDeadlineBoundsProfile: a functional run whose deadline has passed
// times out before the model's sampled groups run, and leaves the buffers
// as they were.
func TestDeadlineBoundsProfile(t *testing.T) {
	var w *workloads.Workload
	for _, d := range workloads.RealDescs() {
		if d.Name == "GESUMMV" {
			var err error
			if w, err = d.Build(4096, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	k, err := w.CompileKernel()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Setup()
	if err != nil {
		t.Fatal(err)
	}
	pristine := snapshotBuffers(inst.Args)
	e, err := NewExecutor(sim.Kaveri(), k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Bind(inst.Args...); err != nil {
		t.Fatal(err)
	}
	if err := e.Launch(inst.ND); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = e.Run(sim.Kaveri().AllResources(), RunOptions{Dist: sim.Dynamic, Functional: true, Context: ctx})
	if !errors.Is(err, faults.ErrExecTimeout) {
		t.Fatalf("err = %v, want a watchdog timeout", err)
	}
	if g := e.ex.Stats().GroupsRun; g != 0 {
		t.Errorf("%d work-groups ran past the deadline", g)
	}
	if i := pristine.diff(); i >= 0 {
		t.Errorf("argument %d changed", i)
	}
}

// TestTrappedFirstRunLeavesNoWrites: when a sampled group of a
// work-group-independent launch traps, a functional run returns the trap
// and puts back what the other sampled groups wrote to a buffer the
// kernel reads back ("traps_rmw"). A store-only output ("traps") keeps
// those writes: the launch's next complete run rewrites them
// (TestFailedFirstRunRollsBackOnlyWhatIsReadBack).
func TestTrappedFirstRunLeavesNoWrites(t *testing.T) {
	const n, wg = 1024, 64 // sampled groups 0, 4, 8, 12; group 4 holds i = 300
	for _, c := range []struct {
		src, kname string
		outLoaded  bool
	}{{trapSrc, "traps", false}, {trapRMWSrc, "traps_rmw", true}} {
		prog, err := clc.Compile(c.src)
		if err != nil {
			t.Fatal(err)
		}
		args := []interp.Arg{
			interp.BufArg(workloads.NewFilledInt(n, 3, 1000)),
			interp.BufArg(workloads.NewFilledInt(n, 5, 1000)),
			interp.IntArg(n),
		}
		for _, par := range planShards {
			pristine := snapshotBuffers(args)
			e, err := NewExecutor(sim.Kaveri(), prog.Kernel(c.kname), nil)
			if err != nil {
				t.Fatal(err)
			}
			e.Parallelism = par
			if err := e.Bind(args...); err != nil {
				t.Fatal(err)
			}
			if err := e.Launch(interp.ND1(n, wg)); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(sim.Kaveri().AllResources(), RunOptions{Dist: sim.Dynamic, Functional: true}); err == nil {
				t.Fatalf("%s shards=%d: no trap", c.kname, par)
			}
			if e.PinReason() != "" || e.model != nil {
				t.Fatalf("%s shards=%d: the run did not fail in an independent launch's profile", c.kname, par)
			}
			if !sameBits(args[0].Buf, pristine.saved[0]) {
				t.Errorf("%s shards=%d: the run wrote its input", c.kname, par)
			}
			if c.outLoaded && !sameBits(args[1].Buf, pristine.saved[1]) {
				t.Errorf("%s shards=%d: out, which the kernel reads back, kept the failed profile's writes", c.kname, par)
			}
			pristine.restore()
		}
	}
}

// trapRMWSrc is trapSrc accumulating into out, so the kernel reads it
// back.
const trapRMWSrc = `
__kernel void traps_rmw(__global int* in, __global int* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        if (i >= 512) {
            out[i] += in[i] % (i - 700);
        } else {
            out[i] += in[i] / (i - 300);
        }
    }
}`

// writtenCtx is a context that expires as soon as buf holds anything but
// the sentinel: a profile under it fails right after its first sampled
// group writes buf. Only a single-shard run may poll it, since it reads
// buf unsynchronized.
type writtenCtx struct {
	context.Context
	buf      *interp.Buffer
	sentinel float32
}

func (c writtenCtx) Err() error {
	for _, v := range c.buf.F32 {
		if v != c.sentinel {
			return context.DeadlineExceeded
		}
	}
	return nil
}

// TestFailedFirstRunRollsBackOnlyWhatIsReadBack: a fresh kernel's first
// functional run whose profile fails after its sampled groups wrote b
// puts b back only when the kernel reads it back; either way the launch's
// next run leaves the bytes of a clean run. The failed run copies b only
// when it reads b back, so it allocates b's size only then.
func TestFailedFirstRunRollsBackOnlyWhatIsReadBack(t *testing.T) {
	const n, wg, sentinel = 1 << 18, 64, -7
	for _, c := range []struct {
		op     string
		loadsB bool
	}{{"=", false}, {"+=", true}} {
		src := `__kernel void k(__global const float* a, __global float* b) {
    int i = get_global_id(0);
    b[i] ` + c.op + ` 2.0f * a[i];
}`
		prog, err := clc.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		k := prog.Kernel("k")
		b := interp.NewFloatBuffer(n)
		for i := range b.F32 {
			b.F32[i] = sentinel
		}
		args := []interp.Arg{interp.BufArg(workloads.NewFilledFloat(n, 9)), interp.BufArg(b)}
		pristine := snapshotBuffers(args)
		referenceRun(t, k, args, interp.ND1(n, wg))
		want := snapshotBuffers(args)
		pristine.restore()

		run := func(ctx context.Context) error {
			e, err := NewExecutor(sim.Kaveri(), k, nil)
			if err != nil {
				t.Fatal(err)
			}
			e.Parallelism = 1
			if err := e.Bind(args...); err != nil {
				t.Fatal(err)
			}
			if err := e.Launch(interp.ND1(n, wg)); err != nil {
				t.Fatal(err)
			}
			_, err = e.Run(sim.Kaveri().AllResources(), RunOptions{Dist: sim.Dynamic, Functional: true, Context: ctx})
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = run(writtenCtx{context.Background(), b, sentinel})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, faults.ErrExecTimeout) {
			t.Fatalf("b %s: the failing run returned %v, want a watchdog timeout", c.op, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; (grew >= uint64(b.Bytes())) != c.loadsB {
			t.Errorf("b %s: the failed run allocated %d bytes, b holds %d: want a copy of b %v", c.op, grew, b.Bytes(), c.loadsB)
		}
		if !sameBits(args[0].Buf, pristine.saved[0]) {
			t.Errorf("b %s: the failed run wrote a", c.op)
		}
		if c.loadsB != sameBits(b, pristine.saved[1]) {
			t.Errorf("b %s: b put back %v after the failed run, want %v", c.op, !c.loadsB, c.loadsB)
		}
		if err := run(nil); err != nil {
			t.Fatal(err)
		}
		if i := want.diff(); i >= 0 {
			t.Errorf("b %s: argument %d after the rerun differs from a clean run", c.op, i)
		}
	}
}

// TestMemoKeepsProfiledBytes: a kernel that writes one of its profile
// inputs memoizes the bytes its profile read, not the bytes the kept
// groups left. Its 4 groups are all sampled, so the functional run keeps
// the whole launch.
func TestMemoKeepsProfiledBytes(t *testing.T) {
	const src = `__kernel void k(__global float* x) { int i = get_global_id(0); if (x[i] > 0.0f) x[i] = x[i] - 1.0f; }`
	prog, err := clc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.Kernel("k")
	const n, wg = 256, 64
	orig := interp.NewFloatBuffer(n)
	for i := range orig.F32 {
		orig.F32[i] = float32(i%5) - 2
	}
	x := orig.Clone()
	e := firstRun(t, k, []interp.Arg{interp.BufArg(x)}, interp.ND1(n, wg), sim.Kaveri().AllResources())
	if r := e.PinReason(); r != "" {
		t.Fatalf("the kernel is pinned (%s)", r)
	}
	if sameBits(x, orig) {
		t.Fatal("the run left x unchanged: the test needs a kernel that writes its input")
	}
	for _, c := range []struct {
		name    string
		buf     *interp.Buffer
		profile bool
	}{{"original bytes", orig.Clone(), false}, {"post-run bytes", x.Clone(), true}} {
		e, err := NewExecutor(sim.Kaveri(), k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Bind(interp.BufArg(c.buf)); err != nil {
			t.Fatal(err)
		}
		if err := e.Launch(interp.ND1(n, wg)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Model(); err != nil {
			t.Fatal(err)
		}
		if e.Profiled() != c.profile {
			t.Errorf("%s: Profiled() = %v, want %v", c.name, e.Profiled(), c.profile)
		}
	}
}

// BenchmarkFirstRun times a freshly compiled kernel's first functional
// run — analysis, lowering, the sampled profile, the simulation and the
// plan — for each real kernel at first_launch geometry on Kaveri at
// AllResources; compilation and executor set-up stay outside the timer.
// groups/op counts the work-groups the run executed: the launch's group
// count, since the plan leaves out the groups the profile kept.
func BenchmarkFirstRun(b *testing.B) {
	m := sim.Kaveri()
	for _, w := range firstLaunchWorkloads(b) {
		b.Run(w.Name, func(b *testing.B) {
			inst, err := w.Setup()
			if err != nil {
				b.Fatal(err)
			}
			pristine := snapshotBuffers(inst.Args)
			var groups int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pristine.restore()
				e, err := NewExecutor(m, freshKernel(b, w), nil)
				if err != nil {
					b.Fatal(err)
				}
				e.AssumeMalleable = true
				if err := e.Bind(inst.Args...); err != nil {
					b.Fatal(err)
				}
				if err := e.Launch(inst.ND); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := e.Run(m.AllResources(), RunOptions{Dist: sim.Dynamic, Functional: true}); err != nil {
					b.Fatal(err)
				}
				groups += e.ex.Stats().GroupsRun
			}
			b.ReportMetric(float64(groups)/float64(b.N), "groups/op")
		})
	}
}
