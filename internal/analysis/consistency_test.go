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
