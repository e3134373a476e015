package analysis_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dopia/internal/access"
	"dopia/internal/analysis"
	"dopia/internal/clc"
	"dopia/internal/interp"
	"dopia/internal/workloads"
)

// TestPropertyStaticMatchesDynamic cross-validates the two classifiers:
// for random synthetic workloads, every memory site's static
// classification must agree with what the interpreter observes at
// runtime (when the dynamic stream is long enough to classify).
func TestPropertyStaticMatchesDynamic(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(7))}
	prop := func(alphaRaw, dimsRaw, tRaw, rRaw, cRaw, wdRaw uint8) bool {
		spec := workloads.SynthSpec{
			Alpha:      1 + int(alphaRaw)%3,
			MatDims:    3 + int(dimsRaw)%2,
			Gamma:      2,
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
			t.Logf("generate: %v", err)
			return false
		}
		k, err := w.CompileKernel()
		if err != nil {
			return false
		}
		res, err := analysis.Analyze(k)
		if err != nil {
			t.Logf("%s: analyze: %v", w.Name, err)
			return false
		}
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
		if _, err := ex.RunSampled(2); err != nil {
			t.Logf("%s: run: %v", w.Name, err)
			return false
		}
		prof := ex.Stats()
		for _, sp := range prof.Sites {
			sc := res.Site(sp.Site)
			if sc == nil {
				t.Logf("%s: site %d missing from static analysis", w.Name, sp.Site)
				return false
			}
			if sp.IterPattern == access.Unknown || sc.Iter == access.Unknown {
				continue
			}
			if !patternsCompatible(sc.Iter, sp.IterPattern) {
				t.Logf("%s site %d: static iter %v vs dynamic %v",
					w.Name, sp.Site, sc.Iter, sp.IterPattern)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// patternsCompatible accepts the classifications that legitimately differ
// between the static (conservative) and dynamic (observed) views:
//   - static Random may be observed as anything (e.g. an indirect access
//     through an index array that happens to be locally regular);
//   - static Strided with a symbolic stride may be observed as random when
//     the concrete stride exceeds the classifier's consistency window.
func patternsCompatible(static, dynamic access.Pattern) bool {
	if static == dynamic {
		return true
	}
	if static == access.Random {
		return true
	}
	if static == access.Strided && dynamic == access.Random {
		return true
	}
	// A stride that is 1 element at runtime (e.g. coefficient times a
	// size that resolves to 1) is continuous in the trace.
	if static == access.Strided && dynamic == access.Continuous {
		return true
	}
	return false
}

// TestItemIndependenceOnRealKernels: on the fourteen real kernels at the
// relaunch benchmark's geometry the work-item predicate agrees with the
// work-group one — none stores through an index a local axis leaves
// alone — so every kernel whose groups may shard may also interleave its
// items.
func TestItemIndependenceOnRealKernels(t *testing.T) {
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
		nd := inst.ND.Normalized()
		lf := analysis.LaunchFacts{
			Scalars:   make([]int64, len(inst.Args)),
			BufferID:  make([]int, len(inst.Args)),
			NumGroups: nd.NumGroups(),
			Local:     nd.Local,
		}
		for i, a := range inst.Args {
			if !a.IsBuf {
				lf.Scalars[i] = a.Val.I
				continue
			}
			lf.BufferID[i] = i + 1
			for j := 0; j < i; j++ {
				if inst.Args[j].IsBuf && inst.Args[j].Buf == a.Buf {
					lf.BufferID[i] = j + 1
					break
				}
			}
		}
		in := analysis.WorkGroupIndependence(k)
		if groups, items := in.OrderSensitive(lf), in.ItemOrderSensitive(lf); groups != items {
			t.Errorf("%s: work-groups %q, work-items %q", d.Name, groups, items)
		}
	}
}
