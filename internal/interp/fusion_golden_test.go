package interp_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"dopia/internal/clc"
	"dopia/internal/interp"
	"dopia/internal/transform"
	"dopia/internal/workloads"
)

// TestFusedLoopGolden records how many fused FMA loop heads lowering
// gives each of the fourteen real kernels and its malleable GPU form, at
// the geometry the relaunch benchmark runs them (forRelaunchKernels). A
// change to the lowering or the fusion rule that moves a kernel in or out
// of the fused loop shows up here as a reviewed diff. Its parks columns
// say whether an unprofiled run of the kernel and of its malleable form
// parks its work-items at their column walks (park.go). It also holds
// that every run of every reduction kernel and its malleable form,
// profiled or not, serves each fused loop whose guard held by the closed
// form, never by the unfused body, and that an unprofiled run of the
// kernel — the managed launch's functional run — parks exactly when the
// table says so.
func TestFusedLoopGolden(t *testing.T) {
	const golden = "testdata/fused_loops.golden"
	closedForm := map[string]bool{
		"ATAX1": true, "ATAX2": true, "BICG1": true, "BICG2": true,
		"GESUMMV": true, "MVT1": true, "MVT2": true, "SYR2K": true,
	}
	var b strings.Builder
	b.WriteString("# kernel fused_heads malleable_fused_heads parks malleable_parks\n")
	forRelaunchKernels(t, func(rk relaunchKernel) {
		inst := rk.inst
		ex := launched(t, rk.k, inst.Args, inst.ND)
		mex := launched(t, rk.mall, rk.margs, inst.ND)
		parks := interp.Parks(ex)
		fmt.Fprintf(&b, "%s %d %d %t %t\n", rk.name, interp.FusedHeads(ex), interp.FusedHeads(mex), parks, interp.Parks(mex))

		if !closedForm[rk.name] {
			return
		}
		for _, leg := range []struct {
			name     string
			ex       *interp.Exec
			profiled bool
		}{
			{"unprofiled", ex, false},
			{"profiled", launched(t, rk.k, inst.Args, inst.ND), true},
			{"malleable unprofiled", mex, false},
			{"malleable profiled", launched(t, rk.mall, rk.margs, inst.ND), true},
		} {
			if err := runAll(leg.ex, inst.ND, leg.profiled); err != nil {
				t.Fatalf("%s %s: %v", rk.name, leg.name, err)
			}
			if served, unfused := interp.AffineLoops(leg.ex), interp.UnfusedLoops(leg.ex); served == 0 || unfused != 0 {
				t.Errorf("%s %s: the closed form served %d loops and the unfused body ran %d, want every loop served",
					rk.name, leg.name, served, unfused)
			}
		}
		if parked := interp.ParkedItems(ex); (parked != 0) != parks {
			t.Errorf("%s: %d work-items parked, want parking %t", rk.name, parked, parks)
		}
	})
	checkGolden(t, golden, b.String())
}

// relaunchKernel is one of the fourteen real kernels at the geometry the
// relaunch benchmark runs it, with its malleable GPU form and the form's
// arguments (mod and alloc 8).
type relaunchKernel struct {
	name    string
	inst    *workloads.Instance
	k, mall *clc.Kernel
	margs   []interp.Arg
}

// forRelaunchKernels calls f with each of the fourteen real kernels at
// the relaunch benchmark's geometry: 1-D 1024, 2-D 256, SpMV 512,
// work-groups of 64. One kernel's buffers are live at a time.
func forRelaunchKernels(t *testing.T, f func(relaunchKernel)) {
	t.Helper()
	for _, d := range workloads.RealDescs() {
		n := 1024
		switch {
		case d.TwoDim:
			n = 256
		case d.Name == "SpMV":
			n = 512
		}
		w, err := d.Build(n, 64)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := w.Setup()
		if err != nil {
			t.Fatal(err)
		}
		k, err := w.CompileKernel()
		if err != nil {
			t.Fatal(err)
		}
		mall, err := transform.MalleableGPU(k, inst.ND.Dims)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		margs := append(append([]interp.Arg(nil), inst.Args...), interp.IntArg(8), interp.IntArg(8))
		f(relaunchKernel{name: d.Name, inst: inst, k: k, mall: mall.Kernel, margs: margs})
	}
}

// launched binds args to a new executor of k and launches it over nd.
func launched(t *testing.T, k *clc.Kernel, args []interp.Arg, nd interp.NDRange) *interp.Exec {
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
	return ex
}

// runAll runs every work-group of the launch on ex: with the access
// profile when profiled, else as the managed launch's functional run.
func runAll(ex *interp.Exec, nd interp.NDRange, profiled bool) error {
	seg := []interp.Segment{{Count: nd.TotalGroups()}}
	if profiled {
		return ex.RunSegments(seg)
	}
	return ex.RunUnprofiled(seg)
}

// checkGolden compares the table a golden test produced with the file.
func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v; the table this run produced:\n%s", err, got)
	}
	if got != string(want) {
		t.Errorf("%s is stale; the table this run produced:\n%s", golden, got)
	}
}
