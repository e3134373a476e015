package transform

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dopia/internal/clc"
	"dopia/internal/interp"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// TestPropertyMalleableEquivalence is the repository's central correctness
// property: the malleable GPU kernel produces buffers bit-identical to the
// original kernel — for the fourteen real kernels at every throttle setting
// a zoo machine's configuration gives the GPU, and for randomly drawn
// synthetic-workload specifications at randomly drawn throttling
// parameters. The runtime relies on it: GPU spans run the original
// kernel, and the malleable form's throttling is charged as timing only.
func TestPropertyMalleableEquivalence(t *testing.T) {
	ws, err := workloads.RealWorkloads(128, 64)
	if err != nil {
		t.Fatal(err)
	}
	settings := sim.ZooDopParams()
	for _, w := range ws {
		k, err := w.CompileKernel()
		if err != nil {
			t.Fatal(err)
		}
		mall, err := MalleableGPU(k, w.WorkDim)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		ref, err := w.Setup()
		if err != nil {
			t.Fatal(err)
		}
		if err := runInstance(k, ref, nil); err != nil {
			t.Fatalf("%s: original run: %v", w.Name, err)
		}
		for _, p := range settings {
			inst, err := w.Setup()
			if err != nil {
				t.Fatal(err)
			}
			if err := runInstance(mall.Kernel, inst, []interp.Arg{interp.IntArg(p[0]), interp.IntArg(p[1])}); err != nil {
				t.Fatalf("%s mod=%d alloc=%d: %v", w.Name, p[0], p[1], err)
			}
			for _, oi := range ref.OutputArgs {
				if !ref.Args[oi].Buf.Equal(inst.Args[oi].Buf) {
					t.Errorf("%s mod=%d alloc=%d: output %d differs", w.Name, p[0], p[1], oi)
				}
			}
		}
	}

	cfg := &quick.Config{
		MaxCount: 200,
		Rand:     rand.New(rand.NewSource(99)),
	}
	prop := func(alphaRaw, dimsRaw, gammaRaw, tRaw, rRaw, cRaw, wdRaw uint8, modRaw, allocRaw uint8) bool {
		spec := workloads.SynthSpec{
			Alpha:      1 + int(alphaRaw)%3,
			MatDims:    3 + int(dimsRaw)%2,
			Gamma:      int(gammaRaw) % 3,
			WorkDim:    1 + int(wdRaw)%2,
			DType:      clc.KindFloat,
			Size:       16384,
			WGSize:     64,
			Transposed: int(tRaw) % 2,
			Random:     int(rRaw) % 2,
			Constant:   int(cRaw) % 2,
		}
		w, err := spec.Generate()
		if err != nil {
			t.Logf("generate %+v: %v", spec, err)
			return false
		}
		k, err := w.CompileKernel()
		if err != nil {
			t.Logf("compile: %v", err)
			return false
		}
		mall, err := MalleableGPU(k, spec.WorkDim)
		if err != nil {
			t.Logf("transform: %v", err)
			return false
		}

		mod := int64(1 + modRaw%16)
		alloc := int64(1 + int64(allocRaw)%mod)

		instA, err := w.Setup()
		if err != nil {
			return false
		}
		instB, err := w.Setup()
		if err != nil {
			return false
		}
		if err := runInstance(k, instA, nil); err != nil {
			t.Logf("original run: %v", err)
			return false
		}
		extra := []interp.Arg{interp.IntArg(mod), interp.IntArg(alloc)}
		if err := runInstance(mall.Kernel, instB, extra); err != nil {
			t.Logf("malleable run (mod=%d alloc=%d): %v", mod, alloc, err)
			return false
		}
		for _, oi := range instA.OutputArgs {
			if !instA.Args[oi].Buf.Equal(instB.Args[oi].Buf) {
				t.Logf("spec %+v mod=%d alloc=%d: output %d differs", spec, mod, alloc, oi)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func runInstance(k *clc.Kernel, inst *workloads.Instance, extra []interp.Arg) error {
	ex, err := interp.NewExec(k)
	if err != nil {
		return err
	}
	args := append(append([]interp.Arg(nil), inst.Args...), extra...)
	if err := ex.Bind(args...); err != nil {
		return err
	}
	if err := ex.Launch(inst.ND); err != nil {
		return err
	}
	return ex.Run()
}
