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
// the geometry the relaunch benchmark runs them (1-D 1024, 2-D 256, SpMV
// 512, work-groups of 64). A change to the lowering or the fusion rule
// that moves a kernel in or out of the fused loop shows up here as a
// reviewed diff. Its parks columns say whether an unprofiled, untraced
// run of the kernel and of its malleable form parks its work-items at
// their column walks (park.go). It also holds that every untraced run of
// every reduction kernel and its malleable form, profiled or not, serves
// each fused loop whose guard held by the closed form, never by the
// unfused body, and that an unprofiled run of the kernel — the managed
// launch's functional run — parks exactly when the table says so.
func TestFusedLoopGolden(t *testing.T) {
	const golden = "testdata/fused_loops.golden"
	closedForm := map[string]bool{
		"ATAX1": true, "ATAX2": true, "BICG1": true, "BICG2": true,
		"GESUMMV": true, "MVT1": true, "MVT2": true, "SYR2K": true,
	}
	var b strings.Builder
	b.WriteString("# kernel fused_heads malleable_fused_heads parks malleable_parks\n")
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
		ex := launched(t, k, inst.Args, inst.ND)
		margs := append(append([]interp.Arg(nil), inst.Args...), interp.IntArg(8), interp.IntArg(8))
		mex := launched(t, mall.Kernel, margs, inst.ND)
		parks := interp.Parks(ex)
		fmt.Fprintf(&b, "%s %d %d %t %t\n", d.Name, interp.FusedHeads(ex), interp.FusedHeads(mex), parks, interp.Parks(mex))

		if !closedForm[d.Name] {
			continue
		}
		for _, leg := range []struct {
			name     string
			ex       *interp.Exec
			profiled bool
		}{
			{"unprofiled", ex, false},
			{"profiled", launched(t, k, inst.Args, inst.ND), true},
			{"malleable unprofiled", mex, false},
			{"malleable profiled", launched(t, mall.Kernel, margs, inst.ND), true},
		} {
			seg := []interp.Segment{{Count: inst.ND.TotalGroups()}}
			run := leg.ex.RunUnprofiled
			if leg.profiled {
				run = leg.ex.RunSegments
			}
			if err := run(seg); err != nil {
				t.Fatalf("%s %s: %v", d.Name, leg.name, err)
			}
			if served, unfused := interp.AffineLoops(leg.ex), interp.UnfusedLoops(leg.ex); served == 0 || unfused != 0 {
				t.Errorf("%s %s: the closed form served %d loops and the unfused body ran %d, want every loop served",
					d.Name, leg.name, served, unfused)
			}
		}
		if parked := interp.ParkedItems(ex); (parked != 0) != parks {
			t.Errorf("%s: %d work-items parked, want parking %t", d.Name, parked, parks)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v; the table this run produced:\n%s", err, b.String())
	}
	if got := b.String(); got != string(want) {
		t.Errorf("%s is stale; the table this run produced:\n%s", golden, got)
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
