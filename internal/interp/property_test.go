package interp_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dopia/internal/clc"
	"dopia/internal/interp"
	"dopia/internal/workloads"
)

// TestPropertyDeterminism: running the same kernel twice over identical
// inputs yields bit-identical outputs and identical statistics — the
// interpreter has no hidden nondeterminism (map iteration, scratch reuse,
// sampling order).
func TestPropertyDeterminism(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(17))}
	prop := func(alphaRaw, dimsRaw, wdRaw, rRaw uint8) bool {
		spec := workloads.SynthSpec{
			Alpha:   1 + int(alphaRaw)%3,
			MatDims: 3 + int(dimsRaw)%2,
			Gamma:   2,
			WorkDim: 1 + int(wdRaw)%2,
			DType:   clc.KindFloat,
			Size:    16384,
			WGSize:  64,
			Random:  int(rRaw) % 2,
		}
		w, err := spec.Generate()
		if err != nil {
			return true
		}
		k, err := w.CompileKernel()
		if err != nil {
			return false
		}
		run := func() (*workloads.Instance, *interp.Profile, error) {
			inst, err := w.Setup()
			if err != nil {
				return nil, nil, err
			}
			ex, err := interp.NewExec(k)
			if err != nil {
				return nil, nil, err
			}
			if err := ex.Bind(inst.Args...); err != nil {
				return nil, nil, err
			}
			if err := ex.Launch(inst.ND); err != nil {
				return nil, nil, err
			}
			if err := ex.Run(); err != nil {
				return nil, nil, err
			}
			return inst, ex.Stats(), nil
		}
		i1, p1, err := run()
		if err != nil {
			t.Logf("%s: %v", w.Name, err)
			return false
		}
		i2, p2, err := run()
		if err != nil {
			return false
		}
		for ai := range i1.Args {
			if i1.Args[ai].IsBuf && !i1.Args[ai].Buf.Equal(i2.Args[ai].Buf) {
				return false
			}
		}
		if p1.AluInt != p2.AluInt || p1.AluFloat != p2.AluFloat ||
			p1.Loads != p2.Loads || p1.Stores != p2.Stores {
			return false
		}
		for i := range p1.Sites {
			if p1.Sites[i] != p2.Sites[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyGroupOrderIrrelevant: executing work-groups in any order
// produces the same buffers for data-parallel kernels (each work-item
// owns its output element) — the foundation that makes Dopia's arbitrary
// CPU/GPU partitioning sound.
func TestPropertyGroupOrderIrrelevant(t *testing.T) {
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
	ref, err := w.Setup()
	if err != nil {
		t.Fatal(err)
	}
	exRef, err := interp.NewExec(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := exRef.Bind(ref.Args...); err != nil {
		t.Fatal(err)
	}
	if err := exRef.Launch(ref.ND); err != nil {
		t.Fatal(err)
	}
	if err := exRef.Run(); err != nil {
		t.Fatal(err)
	}

	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(23))}
	prop := func(seed int64) bool {
		inst, err := w.Setup()
		if err != nil {
			return false
		}
		ex, err := interp.NewExec(k)
		if err != nil {
			return false
		}
		if err := ex.Bind(inst.Args...); err != nil {
			return false
		}
		if err := ex.Launch(inst.ND); err != nil {
			return false
		}
		ex.Parallelism = interp.Sequential
		var segs []interp.Segment
		for _, g := range rand.New(rand.NewSource(seed)).Perm(inst.ND.TotalGroups()) {
			segs = append(segs, interp.Segment{Start: g, Count: 1})
		}
		if err := ex.RunSegments(segs); err != nil {
			return false
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
