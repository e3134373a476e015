package sched

import (
	"bytes"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"dopia/internal/analysis"
	"dopia/internal/clc"
	"dopia/internal/interp"
	"dopia/internal/sim"
	"dopia/internal/transform"
	"dopia/internal/workloads"
)

// Who keeps an access profile: Model's sampled run does, exactly; the
// functional plan, run for its output, does not.

// spillSrc writes every element it owns and then, in the upper half of the
// range, stores out of bounds — so a sampled profile traps in its third
// group with the first two already written.
const spillSrc = `
__kernel void spill(__global int* out, int n) {
    int i = get_global_id(0);
    out[i] = i + 1;
    if (i >= n / 2) {
        out[i + n] = 1;
    }
}`

// TestFailedProfileLeavesNoWrites: a profile run that traps returns the
// error and puts back what its earlier groups wrote.
func TestFailedProfileLeavesNoWrites(t *testing.T) {
	prog, err := clc.Compile(spillSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n, wg = 1024, 64
	for _, par := range []int{1, 2, 3} {
		e, err := NewExecutor(sim.Kaveri(), prog.Kernel("spill"), nil)
		if err != nil {
			t.Fatal(err)
		}
		e.Parallelism = par
		out := workloads.NewFilledInt(n, 5, 1000)
		args := []interp.Arg{interp.BufArg(out), interp.IntArg(n)}
		before := snapshotBuffers(args)
		if err := e.Bind(args...); err != nil {
			t.Fatal(err)
		}
		if err := e.Launch(interp.ND1(n, wg)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Model(); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("shards=%d: Model() error = %v, want the kernel's bounds trap", par, err)
		}
		if before.diff() >= 0 {
			t.Errorf("shards=%d: the failed profile run left its writes in the output buffer", par)
		}
	}
}

// TestModelNeverWritesABoundBuffer: Model's profile writes private
// copies of the written buffers, so a second header over a bound buffer's
// elements reads the same bytes before every sampled group and after
// Model, and the bound buffer keeps its elements: for a read-modify-write
// kernel, when a sampled group traps, and when one buffer is bound to two
// slots.
func TestModelNeverWritesABoundBuffer(t *testing.T) {
	const n, wg = 1024, 64
	cases := []struct {
		name, src, kernel string
		args              func() []interp.Arg
		traps             bool
	}{
		{"read-modify-write", `__kernel void rmw(__global float* x) { int i = get_global_id(0); x[i] = x[i] * 2.0f + 1.0f; }`, "rmw",
			func() []interp.Arg { return []interp.Arg{interp.BufArg(workloads.NewFilledFloat(n, 7))} }, false},
		{"trap", spillSrc, "spill",
			func() []interp.Arg {
				return []interp.Arg{interp.BufArg(workloads.NewFilledInt(n, 5, 1000)), interp.IntArg(n)}
			}, true},
		{"two slots", `__kernel void two(__global int* a, __global int* b) { int i = get_global_id(0); a[i] = b[i] + 1; b[i] = a[i] * 2; }`, "two",
			func() []interp.Arg {
				b := workloads.NewFilledInt(n, 5, 1000)
				return []interp.Arg{interp.BufArg(b), interp.BufArg(b)}
			}, false},
	}
	for _, c := range cases {
		for _, par := range planShards {
			prog, err := clc.Compile(c.src) // a fresh model memo: Model profiles
			if err != nil {
				t.Fatal(err)
			}
			args := c.args()
			bound := args[0].Buf
			shadow := *bound
			want := bytes.Clone(shadow.Raw())
			e, err := NewExecutor(sim.Kaveri(), prog.Kernel(c.kernel), nil)
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
			var wrote atomic.Bool
			e.ex.Check = func() error {
				if !bytes.Equal(shadow.Raw(), want) {
					wrote.Store(true)
				}
				return nil
			}
			if _, err := e.Model(); (err != nil) != c.traps {
				t.Fatalf("%s, shards=%d: Model() error = %v, want a trap: %v", c.name, par, err, c.traps)
			}
			if wrote.Load() || !bytes.Equal(shadow.Raw(), want) {
				t.Errorf("%s, shards=%d: the profile wrote the bound buffer", c.name, par)
			}
			if &bound.Raw()[0] != &shadow.Raw()[0] {
				t.Errorf("%s, shards=%d: the bound buffer no longer holds its elements", c.name, par)
			}
		}
	}
}

// freshModel profiles the executor's launch again, past the kernel's
// model memo.
func freshModel(t *testing.T, e *Executor) *sim.KernelModel {
	t.Helper()
	res, err := analysis.Analyze(e.orig)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ex.Launch(e.nd); err != nil {
		t.Fatal(err)
	}
	km, _, err := e.profile(res, false)
	if err != nil {
		t.Fatal(err)
	}
	return km
}

// counters is the aggregate half of a profile: everything but the sites.
func counters(p *interp.Profile) interp.Profile {
	c := *p
	c.Sites = nil
	return c
}

// runPlanProfiled executes the plan e.Run would execute for (cfg, dist),
// through the profile-keeping entry point.
func runPlanProfiled(t *testing.T, e *Executor, cfg sim.Config, dist sim.Distribution) {
	t.Helper()
	km, err := e.Model()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.prepareFunctional(); err != nil {
		t.Fatal(err)
	}
	var plan []interp.Segment
	_, err = sim.Simulate(e.Machine, km, cfg, dist, sim.SimOptions{
		CPUShare: 0.5,
		OnSpan: func(device string, start, count int) error {
			seg, err := segment(device, start, count)
			plan = append(plan, seg)
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ex.RunSegments(plan); err != nil {
		t.Fatal(err)
	}
}

// TestFunctionalRunKeepsNoProfile: for the fourteen real kernels and one
// indirect synthetic workload, at Parallelism 1, 2 and 3, a functional run
// classifies no access while its aggregate counters
// are those of the same plan run profiled; its buffers are the
// schedule-order run's; and a fresh profile after it builds the model
// Model returned before it.
func TestFunctionalRunKeepsNoProfile(t *testing.T) {
	ws, err := workloads.RealWorkloads(128, 64)
	if err != nil {
		t.Fatal(err)
	}
	indirect, err := workloads.SynthSpec{Alpha: 1, MatDims: 3, Random: 1,
		WorkDim: 1, DType: clc.KindFloat, Size: 16384, WGSize: 64}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	m := sim.Kaveri()
	cfg, dist := m.AllResources(), sim.Dynamic
	opts := RunOptions{Dist: dist, CPUShare: 0.5, Functional: true}
	for _, w := range append(ws, indirect) {
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
		var want *bufferSet
		for _, par := range []int{1, 2, 3} {
			pristine.restore()
			e, err := NewExecutor(m, k, mall.Kernel)
			if err != nil {
				t.Fatal(err)
			}
			e.Parallelism = par
			if err := e.Bind(inst.Args...); err != nil {
				t.Fatal(err)
			}
			if err := e.Launch(inst.ND); err != nil {
				t.Fatal(err)
			}
			before, err := e.Model()
			if err != nil {
				t.Fatal(err)
			}

			// The profiled plan is the reference for the counters.
			e.ex.ResetStats()
			runPlanProfiled(t, e, cfg, dist)
			profiled := e.ex.Stats()
			if len(profiled.Sites) == 0 {
				t.Fatalf("%s shards=%d: the profiled plan classified nothing", w.Name, par)
			}

			pristine.restore()
			e.ex.ResetStats()
			if _, err := e.Run(cfg, opts); err != nil {
				t.Fatalf("%s shards=%d: %v", w.Name, par, err)
			}
			got := e.ex.Stats()
			if len(got.Sites) != 0 {
				t.Errorf("%s shards=%d: the functional run classified accesses at %d sites",
					w.Name, par, len(got.Sites))
			}
			if got, want := counters(got), counters(profiled); !reflect.DeepEqual(got, want) {
				t.Errorf("%s shards=%d: counters %+v, the profiled plan counts %+v", w.Name, par, got, want)
			}
			if par == 1 {
				want = snapshotBuffers(inst.Args)
			} else if i := want.diff(); i >= 0 {
				t.Errorf("%s shards=%d: argument %d differs from the schedule-order run", w.Name, par, i)
			}

			pristine.restore()
			if after := freshModel(t, e); after == before || !reflect.DeepEqual(after, before) {
				t.Errorf("%s shards=%d: the model rebuilt after a functional run differs from the one before it", w.Name, par)
			}
		}
		pristine.restore()
	}
}
