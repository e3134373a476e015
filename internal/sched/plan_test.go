package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"dopia/internal/analysis"
	"dopia/internal/clc"
	"dopia/internal/faults"
	"dopia/internal/interp"
	"dopia/internal/sim"
	"dopia/internal/transform"
	"dopia/internal/workloads"
)

// Equivalence tests of the plan executor: a functional run simulates the
// schedule first and then executes it as a sharded plan, and whatever the
// shard count the buffers, the simulation result and the sampled profile
// must be those of the schedule-order walk on one goroutine.

var planShards = []int{1, 2, 3, 8}

// planWorkloads is the fourteen real kernels plus a planSynthetic-workload
// slice of the synthetic grid.
func planWorkloads(t *testing.T) []*workloads.Workload {
	t.Helper()
	ws, err := workloads.RealWorkloads(128, 64)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := workloads.SyntheticGrid()
	if err != nil {
		t.Fatal(err)
	}
	for i, stride := 0, len(grid)/planSynthetic; i < planSynthetic; i++ {
		ws = append(ws, grid[i*stride])
	}
	return ws
}

// sameBits compares two buffers bit for bit (NaNs included).
func sameBits(a, b *interp.Buffer) bool {
	if a.Kind != b.Kind || a.Len() != b.Len() {
		return false
	}
	for i := range a.F32 {
		if math.Float32bits(a.F32[i]) != math.Float32bits(b.F32[i]) {
			return false
		}
	}
	for i := range a.F64 {
		if math.Float64bits(a.F64[i]) != math.Float64bits(b.F64[i]) {
			return false
		}
	}
	return reflect.DeepEqual(a.I32, b.I32) && reflect.DeepEqual(a.I64, b.I64)
}

// bufferSet snapshots and restores the buffers of an argument list.
type bufferSet struct {
	args  []interp.Arg
	saved []*interp.Buffer
}

func snapshotBuffers(args []interp.Arg) *bufferSet {
	s := &bufferSet{args: args, saved: make([]*interp.Buffer, len(args))}
	for i, a := range args {
		if a.IsBuf {
			s.saved[i] = a.Buf.Clone()
		}
	}
	return s
}

func (s *bufferSet) restore() {
	for i, b := range s.saved {
		if b != nil {
			s.args[i].Buf.CopyFrom(b)
		}
	}
}

// diff returns the index of the first argument whose buffer differs from
// the snapshot, or -1.
func (s *bufferSet) diff() int {
	for i, b := range s.saved {
		if b != nil && !sameBits(s.args[i].Buf, b) {
			return i
		}
	}
	return -1
}

// TestPlanEquivalence: every workload × zoo machine × scheduling policy ×
// shard count leaves the buffers of the Parallelism=1 schedule-order run
// and returns its sim.Result.
func TestPlanEquivalence(t *testing.T) {
	sharded := 0
	for _, w := range planWorkloads(t) {
		k, err := w.CompileKernel()
		if err != nil {
			t.Fatal(err)
		}
		mall, err := transform.MalleableGPU(k, w.WorkDim)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := w.Setup()
		if err != nil {
			t.Fatal(err)
		}
		pristine := snapshotBuffers(inst.Args)
		for _, m := range sim.Zoo() {
			e, err := NewExecutor(m, k, mall.Kernel)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Bind(inst.Args...); err != nil {
				t.Fatal(err)
			}
			if err := e.Launch(inst.ND); err != nil {
				t.Fatal(err)
			}
			for _, dist := range sim.Distributions() {
				var want *bufferSet
				var wantRes *sim.Result
				for _, par := range planShards {
					pristine.restore()
					e.Parallelism = par
					res, err := e.Run(m.AllResources(), RunOptions{Dist: dist, CPUShare: 0.5, Functional: true})
					if err != nil {
						t.Fatalf("%s %s/%s shards=%d: %v", w.Name, m.Name, dist, par, err)
					}
					if par == 1 {
						want, wantRes = snapshotBuffers(inst.Args), res
						continue
					}
					if *res != *wantRes {
						t.Errorf("%s %s/%s shards=%d: sim.Result %+v, want %+v", w.Name, m.Name, dist, par, res, wantRes)
					}
					if i := want.diff(); i >= 0 {
						t.Fatalf("%s %s/%s shards=%d: argument %d differs from the schedule-order run",
							w.Name, m.Name, dist, par, i)
					}
				}
			}
			if e.PinReason() == "" {
				sharded++
			}
		}
		pristine.restore()
	}
	if sharded == 0 {
		t.Error("no workload was work-group independent: the sharded plan path never ran")
	}
}

// TestRealKernelsShard pins down the point of the exercise: all fourteen
// real kernels are work-group independent, so their managed launches use
// every core.
func TestRealKernelsShard(t *testing.T) {
	ws, err := workloads.RealWorkloads(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		e, _, _ := newWorkloadExecutor(t, w)
		if _, err := e.Model(); err != nil {
			t.Fatal(err)
		}
		if r := e.PinReason(); r != "" {
			t.Errorf("%s is pinned to schedule order: %s", w.Name, r)
		}
	}
}

// TestSampledProfileShardInvariant: RunSampled cut into shards produces
// the Profile — and therefore the KernelModel — of the sequential sampled
// walk, on both engines.
func TestSampledProfileShardInvariant(t *testing.T) {
	for _, w := range planWorkloads(t) {
		k, err := w.CompileKernel()
		if err != nil {
			t.Fatal(err)
		}
		res, err := analysis.Analyze(k)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := w.Setup()
		if err != nil {
			t.Fatal(err)
		}
		pristine := snapshotBuffers(inst.Args)
		for _, eng := range []interp.Engine{interp.EngineClosures, interp.EngineBytecode} {
			var want *interp.Profile
			var wantKM *sim.KernelModel
			for _, par := range planShards {
				pristine.restore()
				ex, err := interp.NewExec(k)
				if err != nil {
					t.Fatal(err)
				}
				ex.Engine, ex.Parallelism = eng, par
				if err := ex.Bind(inst.Args...); err != nil {
					t.Fatal(err)
				}
				if err := ex.Launch(inst.ND); err != nil {
					t.Fatal(err)
				}
				if _, err := ex.RunSampled(ProfileSampleWGs); err != nil {
					t.Fatalf("%s %v shards=%d: %v", w.Name, eng, par, err)
				}
				prof := ex.Stats()
				km, err := sim.BuildModel(k.Name, prof, res, inst.BufBytes, inst.ND)
				if err != nil {
					t.Fatal(err)
				}
				if par == 1 {
					want, wantKM = prof, km
					continue
				}
				if !reflect.DeepEqual(prof, want) {
					t.Errorf("%s %v shards=%d: profile differs\n got %+v\nwant %+v", w.Name, eng, par, prof, want)
				}
				if !reflect.DeepEqual(km, wantKM) {
					t.Errorf("%s %v shards=%d: kernel model differs", w.Name, eng, par)
				}
			}
		}
		pristine.restore()
	}
}

// The pinned kernels: each marks its work-item first (an independent
// store, so progress is observable) and then does the one thing that makes
// work-group order observable.
const pinnedSrc = `
__kernel void ticket(__global int* mark, __global int* out, __global int* cnt, int n) {
    int i = get_global_id(0);
    if (i < n) {
        mark[i] = 1;
        out[i] = atomic_inc(cnt);
    }
}

__kernel void scatter(__global int* mark, __global int* out, __global int* idx, int n) {
    int i = get_global_id(0);
    if (i < n) {
        mark[i] = 1;
        out[idx[i]] = i;
    }
}

__kernel void neighbour(__global int* mark, __global int* out, __global int* unused, int n) {
    int i = get_global_id(0);
    if (i < n) {
        mark[i] = 1;
        if (i + 1 < n) {
            out[i] = out[i + 1] + 1;
        }
    }
}`

// orderCtx observes a plan through the watchdog, which polls the run's
// context before every work-group. At the k-th poll exactly the groups
// order[:k] may have marked anything, which holds only if the groups
// really execute one after the other, in schedule order, on the observed
// goroutine. groups lists the groups in the order their marks appeared.
type orderCtx struct {
	context.Context
	mu     sync.Mutex
	mark   *interp.Buffer
	wgSize int
	order  []int
	polls  int
	groups []int
	early  int // polls that found a group marked before its turn
}

// Err is the watchdog's poll.
func (c *orderCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if marked := c.scan(); marked != c.polls || !slices.Equal(c.groups, c.order[:min(c.polls, len(c.order))]) {
		c.early++
	}
	c.polls++
	return nil
}

// scan appends the groups that marked since the last scan to groups, in
// group order, and returns how many groups have marked in all.
func (c *orderCtx) scan() int {
	marked := 0
	for g := 0; g*c.wgSize < len(c.mark.I32); g++ {
		if slices.ContainsFunc(c.mark.I32[g*c.wgSize:(g+1)*c.wgSize], func(v int32) bool { return v != 0 }) {
			marked++
			if !slices.Contains(c.groups, g) {
				c.groups = append(c.groups, g)
			}
		}
	}
	return marked
}

// scheduleOrder flattens the spans sim.Simulate assigns into the order
// their work-groups execute in.
func scheduleOrder(t *testing.T, e *Executor, cfg sim.Config, dist sim.Distribution) []int {
	t.Helper()
	km, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	_, err = sim.Simulate(e.Machine, km, cfg, dist, sim.SimOptions{
		CPUShare: 0.5,
		OnSpan: func(_ string, start, count int) error {
			for g := start; g < start+count; g++ {
				order = append(order, g)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return order
}

// TestPinnedKernelsRunInScheduleOrder: a global-atomic ticket counter, an
// indirect store with colliding indices and a load of a neighbour's
// element report a reason, execute their plan in schedule order on one
// goroutine at every Parallelism, and match the sequential reference.
func TestPinnedKernelsRunInScheduleOrder(t *testing.T) {
	prog, err := clc.Compile(pinnedSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n, wg = 1024, 64
	for _, name := range []string{"ticket", "scatter", "neighbour"} {
		k := prog.Kernel(name)
		mall, err := transform.MalleableGPU(k, 1)
		if err != nil {
			t.Fatal(err)
		}
		mark := interp.NewIntBuffer(n)
		out := workloads.NewFilledInt(n, 7, 1000)
		third := workloads.NewFilledInt(n, 11, n/4) // idx: every target collides ~4 ways
		if name == "ticket" {
			third = interp.NewIntBuffer(1)
		}
		args := []interp.Arg{interp.BufArg(mark), interp.BufArg(out), interp.BufArg(third), interp.IntArg(n)}
		pristine := snapshotBuffers(args)
		m := sim.Kaveri()
		for _, dist := range sim.Distributions() {
			var want *bufferSet
			for _, par := range planShards {
				pristine.restore()
				e, err := NewExecutor(m, k, mall.Kernel)
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
				order := scheduleOrder(t, e, m.AllResources(), dist)
				ctx := &orderCtx{Context: context.Background(), mark: mark, wgSize: wg, order: order}
				if _, err := e.Run(m.AllResources(), RunOptions{Dist: dist, CPUShare: 0.5, Functional: true, Context: ctx}); err != nil {
					t.Fatalf("%s/%s shards=%d: %v", name, dist, par, err)
				}
				ctx.scan() // the last group marks after the last poll
				if e.PinReason() == "" {
					t.Fatalf("%s: no pin reason recorded", name)
				}
				if !reflect.DeepEqual(ctx.groups, order) {
					t.Errorf("%s/%s shards=%d: groups ran in order %v, schedule order is %v", name, dist, par, ctx.groups, order)
				}
				if ctx.polls != len(order) {
					t.Errorf("%s/%s shards=%d: the watchdog polled %d times for %d groups", name, dist, par, ctx.polls, len(order))
				}
				if ctx.early > 0 {
					t.Errorf("%s/%s shards=%d: %d of %d polls found groups that had run before their turn", name, dist, par, ctx.early, ctx.polls)
				}
				if par == 1 {
					want = snapshotBuffers(args)
				} else if i := want.diff(); i >= 0 {
					t.Errorf("%s/%s shards=%d: argument %d differs from the sequential reference", name, dist, par, i)
				}
			}
		}
	}
}

// trapSrc is work-group independent and divides by zero in two different
// work-groups through two different operators, so which trap is reported
// identifies which group failed first.
const trapSrc = `
__kernel void traps(__global int* in, __global int* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        if (i >= 512) {
            out[i] = in[i] % (i - 700);
        } else {
            out[i] = in[i] / (i - 300);
        }
    }
}`

// TestTrapMatchesSequential: a sharded plan reports the trap the
// schedule-order walk reports — the earliest failing segment wins, however
// the shards race.
func TestTrapMatchesSequential(t *testing.T) {
	prog, err := clc.Compile(trapSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.Kernel("traps")
	mall, err := transform.MalleableGPU(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n, wg = 1024, 64
	in := workloads.NewFilledInt(n, 3, 1000)
	out := interp.NewIntBuffer(n)
	m := sim.Kaveri()
	for _, dist := range sim.Distributions() {
		var want string
		for _, par := range planShards {
			for trial := 0; trial < 5; trial++ {
				e, err := NewExecutor(m, k, mall.Kernel)
				if err != nil {
					t.Fatal(err)
				}
				e.Parallelism = par
				if err := e.Bind(interp.BufArg(in), interp.BufArg(out), interp.IntArg(n)); err != nil {
					t.Fatal(err)
				}
				if err := e.Launch(interp.ND1(n, wg)); err != nil {
					t.Fatal(err)
				}
				_, err = e.Run(m.AllResources(), RunOptions{Dist: dist, CPUShare: 0.5, Functional: true})
				if err == nil {
					t.Fatalf("%s shards=%d: no trap", dist, par)
				}
				if r := e.PinReason(); r != "" {
					t.Fatalf("trap kernel is pinned (%s): the sharded path is not under test", r)
				}
				if par == 1 && trial == 0 {
					want = err.Error()
				} else if err.Error() != want {
					t.Fatalf("%s shards=%d: trap %q, the sequential run reports %q", dist, par, err, want)
				}
			}
		}
	}
}

// slowSrc gives every work-group enough work that a cancellation raised
// during the first group arrives while the other shards are mid-group.
const slowSrc = `
__kernel void slow(__global int* mark, __global float* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        mark[i] = 1;
        float acc = 0.0f;
        for (int j = 0; j < 4000; j++) {
            acc += (float)(j & 7) * 0.5f;
        }
        out[i] = acc;
    }
}`

// cancelCtx is a context the watchdog finds cancelled from its second
// poll on: the first work-group to start runs, and a cancellation arrives
// while it does.
type cancelCtx struct {
	context.Context
	polls atomic.Int32
}

// Err is the watchdog's poll.
func (c *cancelCtx) Err() error {
	if c.polls.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// TestCancelAbortsEveryShard: a context cancelled mid-plan stops every
// shard within one work-group — no shard starts another group after the
// one it was in — and the failure is classified as an execution failure.
func TestCancelAbortsEveryShard(t *testing.T) {
	prog, err := clc.Compile(slowSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.Kernel("slow")
	const n, wg = 4096, 64
	for _, par := range planShards {
		mark := interp.NewIntBuffer(n)
		out := interp.NewFloatBuffer(n)
		e, err := NewExecutor(sim.Kaveri(), k, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.Parallelism = par
		if err := e.Bind(interp.BufArg(mark), interp.BufArg(out), interp.IntArg(n)); err != nil {
			t.Fatal(err)
		}
		if err := e.Launch(interp.ND1(n, wg)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Model(); err != nil {
			t.Fatal(err)
		}
		if r := e.PinReason(); r != "" {
			t.Fatalf("slow kernel is pinned: %s", r)
		}
		for i := range mark.I32 {
			mark.I32[i] = 0
		}
		ctx := &cancelCtx{Context: context.Background()}
		_, err = e.Run(sim.Kaveri().AllResources(), RunOptions{Dist: sim.Dynamic, Functional: true, Context: ctx})
		if !errors.Is(err, faults.ErrExecFailed) {
			t.Fatalf("shards=%d: err = %v, want an execution failure", par, err)
		}
		groups := 0
		for g := 0; g < n/wg; g++ {
			if mark.I32[g*wg] != 0 {
				groups++
			}
		}
		if groups < 1 || groups > par {
			t.Errorf("shards=%d: %d work-groups ran after a cancellation during the first one, want 1..%d", par, groups, par)
		}
	}
}

func ExampleExecutor_PinReason() {
	prog, _ := clc.Compile(pinnedSrc)
	e, _ := NewExecutor(sim.Kaveri(), prog.Kernel("scatter"), nil)
	n := 256
	_ = e.Bind(interp.BufArg(interp.NewIntBuffer(n)), interp.BufArg(interp.NewIntBuffer(n)),
		interp.BufArg(interp.NewIntBuffer(n)), interp.IntArg(int64(n)))
	_ = e.Launch(interp.ND1(n, 64))
	_, _ = e.Model()
	fmt.Println(e.PinReason())
	// Output: out is stored at a data-dependent or non-affine index
}
