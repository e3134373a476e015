package transform

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dopia/internal/clc"
	"dopia/internal/interp"
	"dopia/internal/workloads"
)

// TestPropertyMalleableEquivalence is the repository's central correctness
// property: for randomly drawn synthetic-workload specifications and
// randomly drawn throttling parameters, the malleable GPU kernel produces
// buffers bit-identical to the original kernel.
func TestPropertyMalleableEquivalence(t *testing.T) {
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

// TestPropertyMalleableChunking: executing the malleable kernel as any
// contiguous-chunk partition of the work-groups equals a whole-range run.
func TestPropertyMalleableChunking(t *testing.T) {
	spec := workloads.SynthSpec{
		Alpha: 2, MatDims: 3, Gamma: 2, WorkDim: 1,
		DType: clc.KindFloat, Size: 16384, WGSize: 64,
	}
	w, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	k, err := w.CompileKernel()
	if err != nil {
		t.Fatal(err)
	}
	mall, err := MalleableGPU(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := w.Setup()
	if err != nil {
		t.Fatal(err)
	}
	if err := runInstance(k, ref, nil); err != nil {
		t.Fatal(err)
	}

	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(5))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst, err := w.Setup()
		if err != nil {
			return false
		}
		ex, err := interp.NewExec(mall.Kernel)
		if err != nil {
			return false
		}
		args := append(append([]interp.Arg(nil), inst.Args...),
			interp.IntArg(8), interp.IntArg(int64(1+rng.Intn(8))))
		if err := ex.Bind(args...); err != nil {
			return false
		}
		total := inst.ND.TotalGroups()
		for start := 0; start < total; {
			count := 1 + rng.Intn(total-start)
			sub, err := inst.ND.SubRange(start, count)
			if err != nil {
				return false
			}
			if err := ex.Launch(sub); err != nil {
				return false
			}
			if err := ex.Run(); err != nil {
				return false
			}
			start += count
		}
		for _, oi := range ref.OutputArgs {
			if !ref.Args[oi].Buf.Equal(inst.Args[oi].Buf) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
