package sched_test

import (
	"fmt"
	"reflect"
	"testing"

	"dopia/internal/analysis"
	"dopia/internal/clc"
	"dopia/internal/conformance"
	"dopia/internal/faults"
	"dopia/internal/interp"
	"dopia/internal/sched"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// The model memo's contract: a memoized model is the model a fresh
// profile builds, for every launch the memo answers.

// memoCase is one kernel launch the memo tests repeat.
type memoCase struct {
	name, src, kernel string
	nd                interp.NDRange
	args              func() []interp.Arg // fresh buffers with the initial contents
}

// memoCases returns the fourteen real kernels and eight seeded
// trap-free conformance cases.
func memoCases(t *testing.T) []memoCase {
	t.Helper()
	ws, err := workloads.RealWorkloads(128, 64)
	if err != nil {
		t.Fatal(err)
	}
	var cases []memoCase
	for _, w := range ws {
		inst, err := w.Setup()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, memoCase{w.Name, w.Source, w.Kernel, inst.ND, func() []interp.Arg {
			inst, err := w.Setup()
			if err != nil {
				t.Fatal(err)
			}
			return inst.Args
		}})
	}
	for i := 0; i < 8; i++ {
		c, err := conformance.GenerateClass(conformance.CaseSeed(0x3e3e, i), conformance.ClassTotal)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, memoCase{c.String(), c.Source, c.Kernel, c.ND, func() []interp.Arg {
			args := make([]interp.Arg, len(c.Args))
			for j := range c.Args {
				args[j] = c.Args[j].Arg()
			}
			return args
		}})
	}
	return cases
}

// compile compiles a case's source afresh: a new kernel, with an empty
// memo.
func compile(t *testing.T, c memoCase) *clc.Kernel {
	t.Helper()
	prog, err := clc.Compile(c.src)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Kernel(c.kernel)
}

// modelOf launches k on a new executor with par shards and returns its
// model and whether the launch profiled.
func modelOf(k *clc.Kernel, args []interp.Arg, nd interp.NDRange, par int) (*sim.KernelModel, bool, error) {
	e, err := sched.NewExecutor(sim.Kaveri(), k, nil)
	if err != nil {
		return nil, false, err
	}
	e.Parallelism = par
	if err := e.Bind(args...); err != nil {
		return nil, false, err
	}
	if err := e.Launch(nd); err != nil {
		return nil, false, err
	}
	km, err := e.Model()
	return km, e.Profiled(), err
}

// flip flips the lowest bit of a buffer's first element, or of every
// element.
func flip(b *interp.Buffer, every bool) {
	raw, es := b.Raw(), int(b.ElemSize())
	for i := 0; i < len(raw); i += es {
		raw[i] ^= 1 // little-endian: the element's lowest bit
		if !every {
			return
		}
	}
}

// TestModelMemoMatchesFreshProfile launches every case at 1, 2 and 3
// shards. A relaunch hits — also at a shard count other than the
// profile's. Flipping element 0 of a buffer misses exactly when the
// buffer is a profile input; refilling every non-input buffer hits; a
// changed scalar, ND-range or alias layout misses; and every model the
// memo serves is reflect.DeepEqual to a fresh profile of the recompiled
// source.
func TestModelMemoMatchesFreshProfile(t *testing.T) {
	for _, c := range memoCases(t) {
		// shared is profiled at one shard and relaunched at every count.
		shared := compile(t, c)
		res, err := analysis.Analyze(shared)
		if err != nil {
			t.Fatal(err)
		}
		input := map[int]bool{}
		for _, s := range res.ProfileInputs {
			input[s] = true
		}
		for _, par := range []int{1, 2, 3} {
			at := fmt.Sprintf("%s shards=%d", c.name, par)
			k := compile(t, c)
			prime := func() {
				if _, _, err := modelOf(k, c.args(), c.nd, par); err != nil {
					t.Fatalf("%s: %v", at, err)
				}
			}
			// check launches args on kernel k, requires a hit or a miss,
			// and compares the model with a fresh profile; a miss may
			// also fail, as a fresh profile of the launch does.
			check := func(what string, k *clc.Kernel, args []interp.Arg, nd interp.NDRange, hit bool) {
				t.Helper()
				km, profiled, err := modelOf(k, args, nd, par)
				if hit && err != nil {
					t.Fatalf("%s, %s: %v", at, what, err)
				}
				if err == nil && profiled == hit {
					t.Errorf("%s, %s: profiled = %v, want %v", at, what, profiled, !hit)
				}
				want, profiled, ferr := modelOf(compile(t, c), args, nd, par)
				if (err == nil) != (ferr == nil) || (ferr == nil && !profiled) {
					t.Fatalf("%s, %s: fresh profile: %v (memo: %v)", at, what, ferr, err)
				}
				if !reflect.DeepEqual(km, want) {
					t.Errorf("%s, %s: the model differs from a fresh profile", at, what)
				}
			}
			if par == 1 {
				if _, _, err := modelOf(shared, c.args(), c.nd, par); err != nil {
					t.Fatalf("%s: %v", at, err)
				}
			}
			check("relaunch of the one-shard profile", shared, c.args(), c.nd, true)
			prime()
			check("relaunch", k, c.args(), c.nd, true)

			for s := range k.Params {
				args := c.args()
				if !args[s].IsBuf || args[s].Buf.Len() == 0 {
					continue
				}
				flip(args[s].Buf, false)
				check("element 0 of "+k.Params[s].Name+" flipped", k, args, c.nd, !input[s])
				prime()
			}

			args := c.args()
			for s, a := range args {
				if a.IsBuf && !input[s] {
					flip(a.Buf, true)
				}
			}
			check("non-input buffers refilled", k, args, c.nd, true)

			for s, p := range k.Params {
				args := c.args()
				if args[s].IsBuf {
					continue
				}
				if p.Type.Kind.IsFloat() {
					args[s] = interp.FloatArg(args[s].Val.F + float64(args[s].Val.I) + 0.5)
				} else {
					args[s] = interp.IntArg(args[s].Val.I + 1)
				}
				check("scalar "+p.Name+" changed", k, args, c.nd, false)
			}

			if nd := c.nd; nd.Local[0]%2 == 0 {
				nd.Local[0] /= 2
				check("local size halved", k, c.args(), nd, false)
			}

			args = c.args()
		alias:
			for i, a := range args {
				for j := i + 1; j < len(args); j++ {
					if b := args[j]; a.IsBuf && b.IsBuf && a.Buf.Kind == b.Buf.Kind && a.Buf.Len() == b.Buf.Len() {
						args[j] = a
						check(k.Params[j].Name+" bound to "+k.Params[i].Name+"'s buffer", k, args, c.nd, false)
						break alias
					}
				}
			}
		}
	}
}

// TestModelMemoIsPerKernel: the memo lives on the kernel, so neither a
// recompile of the same source nor another kernel with the same name and
// another body sees its entries.
func TestModelMemoIsPerKernel(t *testing.T) {
	const n = 256
	const body = `__kernel void k(__global float* x, __global float* y) {
		int i = get_global_id(0);
		y[i] = %s;
	}`
	args := func() []interp.Arg {
		return []interp.Arg{interp.BufArg(workloads.NewFilledFloat(n, 3)), interp.BufArg(interp.NewFloatBuffer(n))}
	}
	c := memoCase{src: fmt.Sprintf(body, "x[i]"), kernel: "k"}
	other := memoCase{src: fmt.Sprintf(body, fmt.Sprintf("x[i] * 2.0f + x[%d - i]", n-1)), kernel: "k"}
	nd := interp.ND1(n, 64)
	var models []*sim.KernelModel
	for _, k := range []*clc.Kernel{compile(t, c), compile(t, c), compile(t, other)} {
		km, profiled, err := modelOf(k, args(), nd, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !profiled {
			t.Errorf("kernel %d: the first launch of a new kernel did not profile", len(models))
		}
		models = append(models, km)
	}
	if !reflect.DeepEqual(models[0], models[1]) || models[0] == models[1] {
		t.Error("a recompiled kernel shared or changed its profile")
	}
	if reflect.DeepEqual(models[0], models[2]) {
		t.Error("two different bodies built one model")
	}
}

// TestModelMemoAliasedInput: binding an input to a buffer another slot
// also names makes every buffer an input, because a store through the
// other slot reaches the input's loads — here w's copy of v lands in idx.
func TestModelMemoAliasedInput(t *testing.T) {
	const n = 256
	k := compile(t, memoCase{src: `__kernel void k(__global int* idx, __global int* w, __global int* v,
			__global float* x, __global float* y) {
		int i = get_global_id(0);
		w[i] = v[i];
		y[i] = x[idx[i]];
	}`, kernel: "k"})
	ramp := func() *interp.Buffer {
		b := interp.NewIntBuffer(n)
		for i := range b.I32 {
			b.I32[i] = int32(i)
		}
		return b
	}
	args := func(aliased bool) []interp.Arg {
		idx, w := ramp(), interp.NewIntBuffer(n)
		if aliased {
			w = idx
		}
		return []interp.Arg{interp.BufArg(idx), interp.BufArg(w), interp.BufArg(ramp()),
			interp.BufArg(workloads.NewFilledFloat(n, 5)), interp.BufArg(interp.NewFloatBuffer(n))}
	}
	nd := interp.ND1(n, 64)
	for _, aliased := range []bool{false, true} {
		if _, _, err := modelOf(k, args(aliased), nd, 1); err != nil {
			t.Fatal(err)
		}
		flipped := args(aliased)
		flip(flipped[2].Buf, false)
		_, profiled, err := modelOf(k, flipped, nd, 1)
		if err != nil {
			t.Fatal(err)
		}
		if profiled != aliased {
			t.Errorf("idx and w aliased = %v: a flipped v profiled = %v, want %v", aliased, profiled, aliased)
		}
	}
}

// TestModelMemoBypassedWhileFaultsArmed: while any fault is armed every
// launch profiles, and nothing profiled then is stored.
func TestModelMemoBypassedWhileFaultsArmed(t *testing.T) {
	t.Cleanup(faults.Reset)
	ws, err := workloads.RealWorkloads(128, 64)
	if err != nil {
		t.Fatal(err)
	}
	w := ws[8] // GESUMMV
	inst, err := w.Setup()
	if err != nil {
		t.Fatal(err)
	}
	c := memoCase{src: w.Source, kernel: w.Kernel}
	launch := func(k *clc.Kernel, want bool, what string) {
		t.Helper()
		if _, profiled, err := modelOf(k, inst.Args, inst.ND, 1); err != nil {
			t.Fatal(err)
		} else if profiled != want {
			t.Errorf("%s: profiled = %v, want %v", what, profiled, want)
		}
	}
	arm := func() { faults.Inject("ml.predict", faults.Plan{}) } // a point profiling never reaches

	stored := compile(t, c)
	launch(stored, true, "first launch")
	arm()
	launch(stored, true, "armed relaunch")
	launch(stored, true, "second armed relaunch")
	faults.Reset()
	launch(stored, false, "relaunch after disarming")

	fresh := compile(t, c)
	arm()
	launch(fresh, true, "armed first launch")
	launch(fresh, true, "armed relaunch")
	faults.Reset()
	launch(fresh, true, "first disarmed launch: nothing was stored while armed")
	launch(fresh, false, "disarmed relaunch")
}
